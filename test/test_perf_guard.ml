(* Loose wall-clock guard on the allocation fast path.

   The claim under test is structural, not a benchmark number: a cached
   allocation (pop from a size-class free list) must never cost more real
   time than a fresh allocation (address-range carve + per-page frame
   alloc + mapping). If the fast path regresses to scanning the parked
   population, the second scenario below pushes it past the fresh path
   and the test fails.

   Assertions compare two measured paths against each other, never
   against an absolute time, so CI machine speed does not matter. Each
   test times 101 trial pairs (21 for whole Table 1 runs) on the
   monotonic clock in ABBA order (A B, B A, A B, ...), so neither side
   always runs first, and asserts on the median of the pairs' ratios.
   The two trials of a pair run back to back, so they share the host's
   state: a shared host flips between a fast and a slow state (cycle
   times 2x apart), and a ratio of the two sides' own medians then
   depends on how many slow trials each side happened to draw. A
   failure message carries each side's median, min and max. The two
   pay-for-play ratios whose sides do the same work also pin the exact
   allocation proxy: equal minor words per cycle. *)

open Fbufs
module Testbed = Fbufs_harness.Testbed

let trials = 101
let iters_per_trial = 1_000

let elapsed_ns t0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)

let time_ns iters f =
  (* One warmup pass keeps first-touch effects out of the measurement;
     starting from an empty minor heap keeps a trial from paying for
     the previous trial's garbage (a minor collection and the major
     slice it drives), which would land on one side at random. *)
  f ();
  Gc.minor ();
  let t0 = Monotonic_clock.now () in
  for _ = 1 to iters do
    f ()
  done;
  elapsed_ns t0 /. float_of_int iters

let median samples =
  let a = List.sort compare samples in
  List.nth a (List.length a / 2)

(* One side's per-trial times, in trial order. *)
type side = { name : string; samples : float list }

(* [n] timed pairs in ABBA order; [switch true] runs before each A
   trial and [switch false] before each B trial, outside the timing. *)
let abba_switched ~n ~switch ~run (a, fa) (b, fb) =
  let sa = ref [] and sb = ref [] in
  let time_a () = switch true; sa := run fa :: !sa in
  let time_b () = switch false; sb := run fb :: !sb in
  for i = 1 to n do
    if i mod 2 = 1 then (time_a (); time_b ()) else (time_b (); time_a ())
  done;
  ({ name = a; samples = !sa }, { name = b; samples = !sb })

let abba a b =
  abba_switched ~n:trials ~switch:ignore ~run:(time_ns iters_per_trial) a b

let pp_side s =
  Printf.sprintf "%s (median %.0f ns, min %.0f, max %.0f)" s.name
    (median s.samples)
    (List.fold_left Float.min Float.infinity s.samples)
    (List.fold_left Float.max Float.neg_infinity s.samples)

(* [lhs] within [bound] times [rhs]: the median over the trial pairs of
   one [abba] run of lhs/rhs. *)
let check_within ~bound lhs rhs =
  let ratio = median (List.map2 ( /. ) lhs.samples rhs.samples) in
  Alcotest.(check bool)
    (Printf.sprintf "%s <= %.2f * %s: median pair ratio %.3f" (pp_side lhs)
       bound (pp_side rhs) ratio)
    true (ratio <= bound)

(* The exact allocation proxy: minor words per cycle over a warm run. *)
let minor_words_per_cycle f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to iters_per_trial do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters_per_trial

let alloc_free alloc dom npages () =
  let fb = Allocator.alloc alloc ~npages in
  Transfer.free fb ~dom

let check_cached_not_slower what ~fresh ~cached =
  let fresh, cached =
    abba (what ^ " fresh alloc", fresh) (what ^ " cached alloc", cached)
  in
  check_within ~bound:1.0 cached fresh

(* Fresh-path baseline: uncached fbufs re-map every page on each cycle. *)
let fresh_path tb app =
  let alloc = Testbed.allocator tb ~domains:[ app ] Fbuf.volatile_only in
  alloc_free alloc app 8

let test_cached_not_slower_than_fresh () =
  let tb = Testbed.create () in
  let app = Testbed.user_domain tb "app" in
  let cached = Testbed.allocator tb ~domains:[ app ] Fbuf.cached_volatile in
  check_cached_not_slower "plain"
    ~fresh:(fresh_path tb app)
    ~cached:(alloc_free cached app 8)

let test_cached_unaffected_by_large_mixed_free_list () =
  let tb = Testbed.create () in
  let app = Testbed.user_domain tb "app" in
  let cached = Testbed.allocator tb ~domains:[ app ] Fbuf.cached_volatile in
  (* Park ~900 one-page buffers in a *different* size class. An O(n) scan
     of the parked population would have to wade through all of them on
     every 8-page allocation; the size-class lookup never sees them. *)
  let parked = List.init 900 (fun _ -> Allocator.alloc cached ~npages:1) in
  List.iter (fun fb -> Transfer.free fb ~dom:app) parked;
  check_cached_not_slower "900 parked strangers"
    ~fresh:(fresh_path tb app)
    ~cached:(alloc_free cached app 8)

(* Metrics are pay-for-play: every instrumentation site guards on the
   machine carrying a registry instance, so a run without one ("disabled")
   does no registry work at all. Structural claim, measured structurally:
   the same alloc/free cycle on an unmetered machine must not be slower
   than on a metered one (which does strictly more — hashtable cells,
   ledger adds) beyond scheduling noise. *)
let test_metrics_disabled_not_slower_than_enabled () =
  let unmetered = Testbed.create () in
  let app_u = Testbed.user_domain unmetered "app" in
  let alloc_u =
    Testbed.allocator unmetered ~domains:[ app_u ] Fbuf.cached_volatile
  in
  let mx = Fbufs_metrics.Metrics.create () in
  let metered =
    Fbufs_sim.Machine.with_probe (Fbufs_metrics.Metrics.probe mx) (fun () ->
        Testbed.create ())
  in
  let app_m = Testbed.user_domain metered "app" in
  let alloc_m =
    Testbed.allocator metered ~domains:[ app_m ] Fbuf.cached_volatile
  in
  let enabled, disabled =
    abba
      ("metered cycle", alloc_free alloc_m app_m 8)
      ("disabled cycle", alloc_free alloc_u app_u 8)
  in
  check_within ~bound:1.05 disabled enabled

(* Causal spans are pay-for-play the same way: every span entry point
   guards on the machine carrying a sink, so a run without one pays a
   single pointer comparison per site. The workload is identical on both
   sides — the transfer bracket is part of the cycle — and the recording
   side does strictly more (context stack, per-span charge cells). *)
let test_spans_disabled_not_slower_than_enabled () =
  let module Machine = Fbufs_sim.Machine in
  let plain = Testbed.create () in
  let app_p = Testbed.user_domain plain "app" in
  let alloc_p =
    Testbed.allocator plain ~domains:[ app_p ] Fbuf.cached_volatile
  in
  let spanned =
    Machine.with_probe
      (Fbufs_span.Span.probe (Fbufs_span.Span.create ()))
      (fun () -> Testbed.create ())
  in
  let app_s = Testbed.user_domain spanned "app" in
  let alloc_s =
    Testbed.allocator spanned ~domains:[ app_s ] Fbuf.cached_volatile
  in
  let cycle tb alloc dom () =
    Machine.with_transfer tb.Testbed.m "cycle" (alloc_free alloc dom 8)
  in
  let enabled, disabled =
    abba
      ("recording cycle", cycle spanned alloc_s app_s)
      ("unspanned cycle", cycle plain alloc_p app_p)
  in
  check_within ~bound:1.05 disabled enabled

(* The unobserved charge path is one comparison before the clock moves
   and one after, and allocates nothing: exactly the minor words of an
   empty cycle measured the same way. *)
let test_unobserved_charge_allocates_nothing () =
  let m = Fbufs_sim.Machine.create () in
  let empty = minor_words_per_cycle ignore in
  let charged =
    minor_words_per_cycle (fun () ->
        Fbufs_sim.Machine.charge ~kind:"pmap.enter"
          ~comp:Fbufs_metrics.Component.Map m 0.5)
  in
  Alcotest.(check (float 0.0))
    "minor words per unobserved charge = per empty cycle" empty charged

(* Same structural claim for the quantile sketch: observation sites guard
   on the machine carrying a registry, so with none installed a sketch
   observation site costs one match on [Metrics.of_machine]. *)
let guard_sketch =
  Fbufs_metrics.Metrics.sketch ~name:"fbufs_perf_guard_wall_us"
    ~help:"perf-guard fixture sketch" ()

let test_sketch_disabled_not_slower_than_enabled () =
  let module Mx = Fbufs_metrics.Metrics in
  let unmetered = Testbed.create () in
  let app_u = Testbed.user_domain unmetered "app" in
  let alloc_u =
    Testbed.allocator unmetered ~domains:[ app_u ] Fbuf.cached_volatile
  in
  let mx = Mx.create () in
  let metered =
    Fbufs_sim.Machine.with_probe (Mx.probe mx) (fun () -> Testbed.create ())
  in
  let app_m = Testbed.user_domain metered "app" in
  let alloc_m =
    Testbed.allocator metered ~domains:[ app_m ] Fbuf.cached_volatile
  in
  let cycle tb alloc dom () =
    alloc_free alloc dom 8 ();
    (* The transfer-wall observation site, guarded exactly like the
       harness's: registry absent means no sketch work at all. *)
    match Mx.of_machine tb.Testbed.m with
    | None -> ()
    | Some mx -> Mx.observe mx guard_sketch 42.0
  in
  let enabled, disabled =
    abba
      ("sketching cycle", cycle metered alloc_m app_m)
      ("sketchless cycle", cycle unmetered alloc_u app_u)
  in
  check_within ~bound:1.05 disabled enabled

(* The TLB deferral rework keeps the PR 6 immediate-shootdown behaviour
   reachable behind [Pmap.elision_enabled]; its simulated costs in that
   mode are pinned byte-for-byte by the noelide goldens. This guards the
   real cost: the generation tags and the pending queue the rework added
   must not tax the legacy path — an elision-off alloc/touch/free cycle
   (which pays every shootdown eagerly and uses none of the machinery)
   stays within 1.05x of the elision-on cycle that benefits from it. *)
let test_elision_off_within_noise_of_on () =
  let tb = Testbed.create () in
  let app = Testbed.user_domain tb "app" in
  let cached = Testbed.allocator tb ~domains:[ app ] Fbuf.cached_volatile in
  let cycle flag () =
    Fbufs_vm.Pmap.elision_enabled := flag;
    let fb = Allocator.alloc cached ~npages:8 in
    Fbufs_vm.Access.touch_write app ~vaddr:(Fbuf.vaddr fb) ~npages:8;
    Transfer.free fb ~dom:app
  in
  (* Timed trials first: they are the word count's warm-up. *)
  let on, off, on_words, off_words =
    Fun.protect ~finally:(fun () -> Fbufs_vm.Pmap.elision_enabled := true)
    @@ fun () ->
    let on, off =
      abba ("elision-on cycle", cycle true) ("elision-off cycle", cycle false)
    in
    let on_words = minor_words_per_cycle (cycle true) in
    (on, off, on_words, minor_words_per_cycle (cycle false))
  in
  check_within ~bound:1.05 off on;
  Alcotest.(check (float 0.0))
    "elision-off minor words per cycle = elision-on" on_words off_words

(* Buffer-sharing hooks are pay-for-play the same way: a Static policy's
   hooks maintain one integer account and never take the admission path
   ([sh_dynamic] is false), so a managed alloc/free cycle does strictly
   bounded extra work. Both sides run on one allocator and one heap: the
   Static hooks are attached ([Allocator.set_share], via a fresh Static
   policy's registration) before each managed trial and detached before
   each bare one. The bare cycle must stay within noise of the managed
   one, and the hooks allocate nothing, so minor words per cycle match. *)
let test_static_share_within_noise_of_bare () =
  let module Policy = Fbufs_policy.Policy in
  let tb = Testbed.create () in
  let app = Testbed.user_domain tb "app" in
  let alloc = Testbed.allocator tb ~domains:[ app ] Fbuf.cached_volatile in
  let share on =
    if on then
      Policy.register
        (Policy.create tb.Testbed.region Policy.Static)
        alloc ~klass:Policy.Latency
    else Allocator.set_share alloc None
  in
  let cycle = alloc_free alloc app 8 in
  let managed, bare =
    abba_switched ~n:trials ~switch:share ~run:(time_ns iters_per_trial)
      ("static-managed cycle", cycle)
      ("bare cycle", cycle)
  in
  check_within ~bound:1.05 bare managed;
  share true;
  let managed_words = minor_words_per_cycle cycle in
  share false;
  let bare_words = minor_words_per_cycle cycle in
  Alcotest.(check (float 0.0))
    "bare minor words per cycle = static-managed" managed_words bare_words

(* The Osiris adapter stages each PDU in a recycled host buffer, so a
   steady-state send plus delivery allocates only small bookkeeping (the
   event closure, the message node). A per-PDU copy of a 16 KB fragment
   alone costs over 2048 words and fails this. Counted as the repository
   benchmark's probe counts: right after a full major cycle, in a fresh
   minor heap large enough that no collection runs during the count. *)
let pdu_words_budget = 512.0

let test_osiris_send_allocation_free () =
  let module Des = Fbufs_sim.Des in
  let module Osiris = Fbufs_netdev.Osiris in
  let module Msg = Fbufs_msg.Msg in
  let des = Des.create () in
  let tb1 = Testbed.create ~name:"tx" ~seed:1 () in
  let tb2 = Testbed.create ~name:"rx" ~seed:2 () in
  let k1 = tb1.Testbed.kernel and k2 = tb2.Testbed.kernel in
  let adapter (tb : Testbed.t) =
    Osiris.create ~m:tb.Testbed.m ~des ~region:tb.Testbed.region
      ~kernel:tb.Testbed.kernel ()
  in
  let ad1 = adapter tb1 and ad2 = adapter tb2 in
  Osiris.connect ad1 ad2;
  Osiris.register_path ad2 ~vci:1 ~domains:[ k2 ];
  Osiris.set_rx_handler ad2 (fun ~vci:_ msg -> Msg.free_held msg ~dom:k2);
  let alloc = Testbed.allocator tb1 ~domains:[ k1 ] Fbuf.cached_volatile in
  let msg =
    Fbufs_protocols.Testproto.make_message ~alloc ~as_:k1 ~bytes:16384 ()
  in
  let cycle () =
    Osiris.send_pdu ad1 ~vci:1 msg;
    Des.run des
  in
  for _ = 1 to 8 do
    cycle ()
  done;
  let pdus = 64 in
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 4 lsl 20 };
  Gc.full_major ();
  let minors0 = (Gc.quick_stat ()).Gc.minor_collections in
  let mi0, pr0, ma0 = Gc.counters () in
  for _ = 1 to pdus do
    cycle ()
  done;
  let mi1, pr1, ma1 = Gc.counters () in
  let minors = (Gc.quick_stat ()).Gc.minor_collections - minors0 in
  Gc.set gc;
  Msg.free_held msg ~dom:k1;
  let words = (mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0)) /. float_of_int pdus in
  Alcotest.(check int) "no minor collection during the count" 0 minors;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per 16 KB PDU < %.0f" words pdu_words_budget)
    true
    (words < pdu_words_budget)

(* The lint analyzer (PR 4) parses the whole tree with compiler-libs; it
   must never be linked into the benchmark executable or the harness it
   measures — an accidental dependency would drag parser tables and
   startup work into the hot path's process. The link lists are data, so
   check them as data. *)
let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let in_tree rel =
  (* cwd is test/ under dune runtest, the repo root under dune exec. *)
  if Sys.file_exists ("../" ^ rel) then "../" ^ rel else rel

let test_lint_not_linked_into_bench () =
  (* Layer C reads *sources* across the whole tree, which must never
     tempt anyone to link the analyzer library into what it analyzes:
     the benchmark, the harness it is built from, or the examples. *)
  List.iter
    (fun dune_file ->
      let src = read_file (in_tree dune_file) in
      Alcotest.(check bool)
        (Printf.sprintf "%s does not link fbufs_lint" dune_file)
        false
        (contains src "fbufs_lint"))
    [ "bench/dune"; "lib/harness/dune"; "examples/dune" ]

(* Same isolation for the policy layer: the benchmark measures the bare
   mechanism, so the policy library (admission hooks, event log) must
   never be linked into it or into the harness it is built from —
   attaching a policy is an explicit per-experiment act. *)
let test_policy_not_linked_into_bench () =
  List.iter
    (fun dune_file ->
      let src = read_file (in_tree dune_file) in
      Alcotest.(check bool)
        (Printf.sprintf "%s does not link fbufs_policy" dune_file)
        false
        (contains src "fbufs_policy"))
    [ "bench/dune"; "lib/harness/dune" ]

(* And for the observability layer: recorder, monitors and trend live
   outside the measured mechanism; arming them is an explicit per-run
   act, never a link-time default of the benchmark or harness. *)
let test_obs_not_linked_into_bench () =
  List.iter
    (fun dune_file ->
      let src = read_file (in_tree dune_file) in
      Alcotest.(check bool)
        (Printf.sprintf "%s does not link fbufs_obs" dune_file)
        false
        (contains src "fbufs_obs"))
    [ "bench/dune"; "lib/harness/dune"; "examples/dune" ]

(* And for the simulator itself: telemetry observes machines through
   probes, so the simulator library links none of the telemetry
   libraries. *)
let test_sim_links_no_telemetry () =
  let src = read_file (in_tree "lib/sim/dune") in
  List.iter
    (fun lib ->
      Alcotest.(check bool)
        (Printf.sprintf "lib/sim/dune does not link %s" lib)
        false (contains src lib))
    [ "fbufs_trace"; "fbufs_metrics"; "fbufs_span" ]

(* Machine events are counted once, in the machine's [Stats] table,
   which the metrics exposition reads. The mechanism layers must not
   grow registry counters that shadow those events again. *)
let test_no_shadow_counters_in_mechanism () =
  let dir_ml d =
    Sys.readdir (in_tree d)
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.sort compare
    |> List.map (fun f -> d ^ "/" ^ f)
  in
  let files =
    dir_ml "lib/vm" @ dir_ml "lib/ipc"
    @ [
        "lib/core/fbuf.ml";
        "lib/core/transfer.ml";
        "lib/core/pageout.ml";
        "lib/netdev/osiris.ml";
      ]
  in
  Alcotest.(check bool) "mechanism sources found" true
    (List.length files > 6);
  List.iter
    (fun file ->
      let src = read_file (in_tree file) in
      List.iter
        (fun reg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s registers no %s" file reg)
            false (contains src reg))
        [ "Metrics.counter"; "Mx.counter" ])
    files

(* The observability layer rides the same sink refs: with no recorder
   armed and no monitor installed, a cycle pays nothing beyond the
   existing pointer comparisons. The bare side must stay within noise of
   the armed side, which does strictly more (ring push, reservoir offer,
   rule evaluation per sequence point). *)
let test_obs_unarmed_pays_nothing () =
  let module R = Fbufs_obs.Recorder in
  let module Mon = Fbufs_obs.Monitor in
  let bare_tb = Testbed.create () in
  let app_b = Testbed.user_domain bare_tb "app" in
  let alloc_b =
    Testbed.allocator bare_tb ~domains:[ app_b ] Fbuf.cached_volatile
  in
  let r = R.create { R.default with dir = "obs-perf-unused" } in
  let mon = Mon.create ~recorder:r Mon.default in
  let armed_tb, armed, bare =
    R.with_armed r @@ fun () ->
    Fbufs_sim.Machine.with_probe (Mon.probe mon) @@ fun () ->
    let armed_tb = Testbed.create () in
    let app_a = Testbed.user_domain armed_tb "app" in
    let alloc_a =
      Testbed.allocator armed_tb ~domains:[ app_a ] Fbuf.cached_volatile
    in
    let cycle tb alloc dom () =
      alloc_free alloc dom 8 ();
      Fbufs_sim.Machine.seq_point tb.Testbed.m "perf"
    in
    let armed, bare =
      abba
        ("armed cycle", cycle armed_tb alloc_a app_a)
        ("unarmed cycle", cycle bare_tb alloc_b app_b)
    in
    (armed_tb, armed, bare)
  in
  ignore armed_tb;
  check_within ~bound:1.05 bare armed

(* End-to-end bound on the armed cost: a Table 1 run with the recorder
   tapping every event at default sampling stays within 1.10x of the
   bare run. Whole runs are the unit of measurement here, so one run per
   trial, medians over the ABBA trials. *)
let test_recorder_armed_table1_overhead () =
  let module R = Fbufs_obs.Recorder in
  let time_once f =
    let t0 = Monotonic_clock.now () in
    f ();
    elapsed_ns t0
  in
  let bare () = ignore (Fbufs_harness.Exp_table1.run ()) in
  let armed () =
    let r = R.create { R.default with dir = "obs-perf-unused" } in
    R.with_armed r bare
  in
  (* warmup one pair, then ABBA *)
  bare ();
  armed ();
  let armed, bare =
    abba_switched ~n:21 ~switch:ignore ~run:time_once ("armed table1", armed)
      ("bare table1", bare)
  in
  check_within ~bound:1.10 armed bare

(* The interprocedural layer re-analyzes the whole tree on every lint
   run (parse, call graph, SCC fixpoint, abstract interpretation), so a
   quadratic blowup in the fixpoint or resolver would land here first.
   The bound is a deliberately generous absolute ceiling — the analysis
   currently finishes in well under a second — asserted on the median of
   five runs so one cold page cache cannot decide the verdict. *)
let lint_budget_s = 20.0
let lint_runs = 5

let test_whole_tree_lint_within_budget () =
  match Fbufs_lint.Driver.find_root () with
  | None -> Alcotest.skip ()
  | Some root ->
      let samples = ref [] in
      for _ = 1 to lint_runs do
        let t0 = Monotonic_clock.now () in
        let (_ : Fbufs_lint.Finding.t list) = Fbufs_lint.Driver.run ~root in
        samples := (elapsed_ns t0 /. 1e9) :: !samples
      done;
      let m = median !samples in
      Alcotest.(check bool)
        (Printf.sprintf "median whole-tree lint %.2fs within %.0fs budget" m
           lint_budget_s)
        true (m < lint_budget_s)

let () =
  Alcotest.run "perf_guard"
    [
      ( "allocation fast path",
        [
          Alcotest.test_case "cached <= fresh" `Quick
            test_cached_not_slower_than_fresh;
          Alcotest.test_case "immune to free-list population" `Quick
            test_cached_unaffected_by_large_mixed_free_list;
        ] );
      ( "metrics overhead",
        [
          Alcotest.test_case "disabled pays nothing" `Quick
            test_metrics_disabled_not_slower_than_enabled;
          Alcotest.test_case "disabled spans pay nothing" `Quick
            test_spans_disabled_not_slower_than_enabled;
          Alcotest.test_case "disabled sketch pays nothing" `Quick
            test_sketch_disabled_not_slower_than_enabled;
          Alcotest.test_case "unobserved charge allocates nothing" `Quick
            test_unobserved_charge_allocates_nothing;
        ] );
      ( "tlb elision overhead",
        [
          Alcotest.test_case "elision-off path untaxed" `Quick
            test_elision_off_within_noise_of_on;
        ] );
      ( "policy overhead",
        [
          Alcotest.test_case "static share within noise of bare" `Quick
            test_static_share_within_noise_of_bare;
        ] );
      ( "osiris allocation",
        [
          Alcotest.test_case "steady-state 16 KB pdu" `Quick
            test_osiris_send_allocation_free;
        ] );
      ( "link isolation",
        [
          Alcotest.test_case "lint stays off the hot path" `Quick
            test_lint_not_linked_into_bench;
          Alcotest.test_case "policy stays off the hot path" `Quick
            test_policy_not_linked_into_bench;
          Alcotest.test_case "obs stays off the hot path" `Quick
            test_obs_not_linked_into_bench;
          Alcotest.test_case "no shadow counters in mechanism" `Quick
            test_no_shadow_counters_in_mechanism;
          Alcotest.test_case "sim links no telemetry" `Quick
            test_sim_links_no_telemetry;
        ] );
      ( "obs overhead",
        [
          Alcotest.test_case "unarmed pays nothing" `Quick
            test_obs_unarmed_pays_nothing;
          Alcotest.test_case "armed table1 within 1.10x" `Slow
            test_recorder_armed_table1_overhead;
        ] );
      ( "lint runtime",
        [
          Alcotest.test_case "whole-tree lint within budget" `Slow
            test_whole_tree_lint_within_budget;
        ] );
    ]
