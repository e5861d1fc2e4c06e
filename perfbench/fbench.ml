(* The repository benchmark: one workload per run, seeded, closed loop.

     fbench --workload ipc-rpc|udp-cached|udp-uncached --seed N
            --seconds S --trace 0|1 [--out DIR]
     fbench --self-test

   With --trace 0 the timed window runs untraced and the last line of
   stdout is a JSON object carrying the end-to-end metrics; with --trace 1
   half the window runs untraced and half traced, and the object carries
   the per-layer metrics. Either way the run also makes fixed-length
   determinism probes, checks every delivered message, checks the system
   is consistent once quiescent, and exits 1 if any check failed. *)

open Fbufs_sim
module W = Workload

(* ---- small helpers --------------------------------------------------- *)

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of [a] (which it sorts). *)
let percentile_f a p =
  let n = Array.length a in
  Array.sort compare a;
  let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
  if n = 0 then nan else a.(max 0 (min (n - 1) k))

let percentile a p = percentile_f (Array.map float_of_int a) p

let per n x = if n = 0 then 0.0 else x /. float_of_int n
let fi = float_of_int

(* A Stats counter summed over the per-machine deltas. *)
let sum_stat deltas name =
  List.fold_left (fun acc d -> acc +. Stats.value d name) 0.0 deltas

(* ---- host fingerprint ------------------------------------------------ *)

(* A fixed integer loop, best of three: lets a later comparison refuse to
   compare results taken on different hosts. *)
let calibration_ms () =
  let once () =
    let t0 = Spans.now_ns () in
    let x = ref 0x2545F491 in
    for _ = 1 to 20_000_000 do
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17)
    done;
    let dt = Spans.now_ns () - t0 in
    if !x = 0 then 0.0 else fi dt /. 1e6
  in
  List.fold_left min infinity [ once (); once (); once () ]

(* ---- set-up, windows and probes -------------------------------------- *)

let nsetups = 15

(* Build the workload and warm it until allocator free lists, the Osiris
   receive pools and the TLB are full. *)
let build (spec : W.spec) =
  let w = spec.W.create () in
  let t = W.tally () in
  let warm = W.warmup_sizes spec in
  w.W.run t ~sizes:warm (W.count (Array.length warm));
  (w, t)

(* The deliveries of a timed window are cut, in order, into slices of
   [slice_msgs] messages, about a third of a second each. The host is
   shared, and its speed switches, for seconds at a time, between a fast
   and a slow state up to 1.5x apart; how much of a run each state covers
   changes from run to run, so a median over slices lands anywhere between
   the two. Every host-time metric therefore reads the slower quarter of
   the slices: throughput is the rate met or beaten in three slices of
   four (the 25th percentile of per-slice rates) and each latency is the
   75th percentile of its per-slice values. The slow state shows up in
   nearly every run, so this reads it steadily, and a change to the
   program moves it as it moves every slice. *)
let slow_quartile = 0.75

type slice = { first : int; last : int; dur_ns : int }
(** deliveries [first, last) of the window's tally *)

type window = {
  tally : W.tally;
  seconds : float;
  slices : slice array;  (** full slices only *)
  minor_gcs : int;
  major_gcs : int;
  promoted : float;
  setup_times : float array;  (** seconds, one per set-up *)
  setup_tallies : W.tally list;
}

(* One set-up, timed: build and warm a fresh instance, then drop it. Full
   major cycles before and after, outside the timing, give every set-up
   the same heap and leave no garbage to the traffic that follows. *)
let time_setup (spec : W.spec) =
  Gc.full_major ();
  let t0 = Spans.now_ns () in
  let _, warm = build spec in
  let dt = fi (Spans.now_ns () - t0) /. 1e9 in
  Gc.full_major ();
  (dt, warm)

(* A timed window of [seconds] of traffic on [w]. With [setups] > 0 the
   window runs in that many equal chunks, each after one timed set-up, so
   the set-ups sample the host across the whole run as the slices do;
   time spent in set-ups is left out of the window and of its slices. *)
let timed (spec : W.spec) (w : W.t) ~sizes ~seconds ~traced ~setups =
  Spans.reset ();
  let t = W.tally () in
  let chunks = max 1 setups in
  let chunk_ns = int_of_float (seconds *. 1e9) / chunks in
  let setup_times = Array.make setups 0.0 and setup_tallies = ref [] in
  let pauses = ref [] (* (start, end) of each set-up inside the window *) in
  let g0 = Gc.quick_stat () in
  let t0 = ref 0 in
  for c = 0 to chunks - 1 do
    if c < setups then begin
      let p0 = Spans.now_ns () in
      let dt, warm = time_setup spec in
      setup_times.(c) <- dt;
      setup_tallies := warm :: !setup_tallies;
      if c > 0 then pauses := (p0, Spans.now_ns ()) :: !pauses
    end;
    if c = 0 then t0 := Spans.now_ns ();
    Spans.on := traced;
    w.W.run t ~sizes { W.upto = max_int; deadline = Spans.now_ns () + chunk_ns };
    Spans.on := false
  done;
  let t0 = !t0 and t1 = Spans.now_ns () in
  let g1 = Gc.quick_stat () in
  let paused a b =
    List.fold_left (fun acc (p0, p1) -> acc + max 0 (min b p1 - max a p0)) 0 !pauses
  in
  (* A window too short for one full slice is one partial slice. *)
  let k = min spec.W.slice_msgs (max 1 t.W.nlat) in
  let slices =
    Array.init (t.W.nlat / k) (fun i ->
        let first = i * k and last = (i + 1) * k in
        let start = if i = 0 then t0 else t.W.done_ns.(first - 1) in
        let stop = t.W.done_ns.(last - 1) in
        { first; last; dur_ns = stop - start - paused start stop })
  in
  {
    tally = t;
    seconds = fi (t1 - t0 - paused t0 t1) /. 1e9;
    slices;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    setup_times;
    setup_tallies = List.rev !setup_tallies;
  }

type probe = {
  msgs : int;
  values : (string * float) list;
      (** everything the determinism check compares, by name *)
  alloc_words : float;  (** excluded from the traced-vs-untraced check *)
  stats : (string * float) list list;  (** per-machine Stats deltas *)
  acc : (string * float) list;  (** accessor deltas *)
  pchecks : (string * bool) list;
}

let probe_minor_words = 4 lsl 20

let live_fbufs (w : W.t) =
  List.fold_left (fun a al -> a + Fbufs.Allocator.live_fbufs al) 0 w.W.allocators

let verified what (t : W.tally) =
  (what ^ " all verified", t.W.ok = t.W.sent && t.W.errors = 0)

let machines (w : W.t) = if w.W.tx == w.W.rx then [ w.W.tx ] else [ w.W.tx; w.W.rx ]

(* A fixed number of messages on a fresh, warmed instance: every count it
   yields is exact and must repeat run to run, traced or not. *)
let probe (spec : W.spec) ~sizes ~traced =
  let w, warm = build spec in
  let ms = machines w in
  let snaps = List.map (fun m -> Stats.snapshot m.Machine.stats) ms in
  let acc0 = w.W.accessors () in
  let cp_tx = Machine.checkpoint w.W.tx and cp_rx = Machine.checkpoint w.W.rx in
  let start_us = List.fold_left (fun a m -> Float.max a (Machine.now m)) 0.0 ms in
  Spans.reset ();
  Spans.on := traced;
  let t = W.tally () in
  (* OCaml 5.1 miscounts allocated words across a minor collection or a
     major slice, so the probe starts right after a full major cycle, in a
     fresh minor heap large enough that neither happens. *)
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = probe_minor_words };
  Gc.full_major ();
  let minors0 = (Gc.quick_stat ()).Gc.minor_collections in
  let mi0, pr0, ma0 = Gc.counters () in
  w.W.run t ~sizes (W.count spec.W.probe_msgs);
  let mi1, pr1, ma1 = Gc.counters () in
  let minors = (Gc.quick_stat ()).Gc.minor_collections - minors0 in
  Gc.set gc;
  Spans.on := false;
  let sim_us = Machine.now w.W.rx -. start_us in
  let tx_load = Machine.load_since w.W.tx cp_tx in
  let rx_load = Machine.load_since w.W.rx cp_rx in
  let stats = List.map2 (fun m s -> Stats.since m.Machine.stats s) ms snaps in
  let acc =
    List.map2 (fun (k, b) (_, a) -> (k, fi (a - b))) acc0 (w.W.accessors ())
  in
  let alloc_words = mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0) in
  let sim_mbps = Fbufs_harness.Report.mbps ~bytes:t.W.bytes ~us:sim_us in
  let values =
    [
      ("sim_mbps", sim_mbps);
      ("sim.tx_cpu_load", tx_load);
      ("sim.rx_cpu_load", rx_load);
      ("msgs_ok", fi t.W.ok);
      ("msg.dag_nodes", fi t.W.nodes);
    ]
    @ List.concat
        (List.mapi
           (fun i d -> List.map (fun (k, v) -> (Printf.sprintf "m%d:%s" i k, v)) d)
           stats)
    @ acc
  in
  let quiescent = w.W.quiesce_checks () in
  let pchecks =
    [
      verified "probe warm-up messages" warm;
      verified "probe messages" t;
      ("probe ran without a minor collection", minors = 0);
      ("no live fbufs after the probe", live_fbufs w = 0);
    ]
    @ quiescent
  in
  { msgs = spec.W.probe_msgs; values; alloc_words; stats; acc; pchecks }

(* The first metric on which two probes differ, if any. *)
let first_difference a b =
  let keys = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  List.find_opt
    (fun k ->
      let v l = Option.value (List.assoc_opt k l) ~default:0.0 in
      v a <> v b)
    keys

(* Two untraced probes must agree exactly; a traced one must agree with
   them on everything but allocation, which the span recorder changes. *)
let determinism p1 p2 p3 =
  let with_alloc p = ("alloc_words_per_msg", p.alloc_words) :: p.values in
  let agree what a b =
    match first_difference a b with
    | None -> []
    | Some k -> [ (Printf.sprintf "%s (differs: %s)" what k, false) ]
  in
  agree "untraced probes repeat exactly" (with_alloc p1) (with_alloc p2)
  @
  match p3 with
  | None -> []
  | Some p3 -> agree "traced probe matches untraced" p1.values p3.values

(* Every end-of-run check on instance [w], whose message windows are
   [tallies], and on the probes. *)
let checks (w : W.t) tallies p1 p2 p3 =
  let quiescent = w.W.quiesce_checks () in
  List.mapi (fun i t -> verified (Printf.sprintf "window %d messages" i) t) tallies
  @ (("no live fbufs at end", live_fbufs w = 0) :: quiescent)
  @ List.concat_map (fun p -> p.pchecks) (p1 :: p2 :: Option.to_list p3)
  @ determinism p1 p2 p3

(* ---- metrics --------------------------------------------------------- *)

type metric = { mname : string; unit_ : string; value : float; note : string }

let metric ?(note = "") mname unit_ value = { mname; unit_; value; note }

let end_to_end ~setup_s ~(win : window) ~(p : probe) ~heap_mb =
  let t = win.tally in
  let over_slices p f = percentile_f (Array.map f win.slices) p in
  let lat_us q =
    over_slices slow_quartile (fun s ->
        percentile (Array.sub t.W.lat_ns s.first (s.last - s.first)) q /. 1e3)
  in
  let samples =
    Printf.sprintf "n=%d, slower quartile of %d slices" t.W.nlat
      (Array.length win.slices)
  in
  [
    metric "setup_s" "s" setup_s ~note:(Printf.sprintf "median of %d set-ups" nsetups);
    metric "msgs_per_s" "1/s"
      (over_slices (1.0 -. slow_quartile) (fun s ->
           fi (s.last - s.first) /. (fi s.dur_ns /. 1e9)))
      ~note:samples;
    metric "msg_host_us_p50" "us" (lat_us 0.50) ~note:samples;
    metric "msg_host_us_p99" "us" (lat_us 0.99) ~note:samples;
    metric "sim_mbps" "Mb/s" (List.assoc "sim_mbps" p.values)
      ~note:(Printf.sprintf "probe of %d msgs" p.msgs);
    metric "alloc_words_per_msg" "words" (per p.msgs p.alloc_words)
      ~note:(Printf.sprintf "probe of %d msgs" p.msgs);
    metric "heap_peak_mb" "MB" heap_mb;
  ]

let per_layer ~(untraced : window) ~(traced : window) ~(p : probe)
    ~live ~failed_frac =
  let n = p.msgs in
  let stat name = per n (sum_stat p.stats name) in
  let acc name = Option.value (List.assoc_opt name p.acc) ~default:0.0 in
  let nt = traced.tally.W.sent in
  let self_us = Spans.self_us () in
  let self name = per nt (List.assoc name self_us) in
  let hits = sum_stat p.stats "fbuf.alloc_cached_hit" in
  let fresh = sum_stat p.stats "fbuf.alloc_fresh" in
  let rate (win : window) = fi win.tally.W.ok /. win.seconds in
  let nu = untraced.tally.W.sent in
  let traced_note = Printf.sprintf "traced n=%d" nt in
  [
    metric "sim.tlb_miss_per_msg" "1/msg" (stat "tlb.miss");
    metric "sim.des_self_us_per_msg" "us/msg" (self "sim.des") ~note:traced_note;
    metric "sim.rx_cpu_load" "ratio" (List.assoc "sim.rx_cpu_load" p.values);
    metric "sim.tx_cpu_load" "ratio" (List.assoc "sim.tx_cpu_load" p.values);
    metric "vm.pmap_ops_per_msg" "1/msg"
      (stat "pmap.enter" +. stat "pmap.remove" +. stat "pmap.protect");
    metric "vm.zero_fill_per_msg" "1/msg" (stat "vm.zero_fill");
    metric "vm.tlb_shootdowns_per_msg" "1/msg"
      (stat "tlb.shootdown" +. stat "tlb.shootdown_batch");
    metric "vm.faults_per_msg" "1/msg" (stat "vm.fault");
    metric "core.alloc_self_us_per_msg" "us/msg" (self "core.alloc") ~note:traced_note;
    metric "core.cache_hit_ratio" "ratio"
      (if hits +. fresh = 0.0 then 0.0 else hits /. (hits +. fresh))
      ~note:(Printf.sprintf "of %.0f allocations" (hits +. fresh));
    metric "core.allocs_per_msg" "1/msg" (per n (hits +. fresh));
    metric "core.secure_per_msg" "1/msg" (stat "fbuf.secured");
    metric "core.live_fbufs_at_end" "count" (fi live);
    metric "msg.build_self_us_per_msg" "us/msg" (self "msg.build") ~note:traced_note;
    metric "msg.touch_read_self_us_per_msg" "us/msg" (self "msg.touch_read")
      ~note:traced_note;
    metric "msg.check_self_us_per_msg" "us/msg" (self "msg.check") ~note:traced_note;
    metric "msg.free_self_us_per_msg" "us/msg" (self "msg.free") ~note:traced_note;
    metric "msg.dag_nodes_per_msg" "1/msg" (per n (List.assoc "msg.dag_nodes" p.values));
    metric "ipc.call_self_us_per_msg" "us/msg" (self "ipc.call") ~note:traced_note;
    metric "ipc.calls_per_msg" "1/msg" (stat "ipc.call");
    metric "ipc.explicit_dealloc_per_msg" "1/msg" (stat "ipc.explicit_dealloc_msg");
    metric "xkernel.proxy_self_us_per_msg" "us/msg" (self "xkernel.proxy")
      ~note:traced_note;
    metric "protocols.udp_push_self_us_per_msg" "us/msg" (self "protocols.udp_push")
      ~note:traced_note;
    metric "protocols.udp_pop_self_us_per_msg" "us/msg" (self "protocols.udp_pop")
      ~note:traced_note;
    metric "protocols.ip_push_self_us_per_msg" "us/msg" (self "protocols.ip_push")
      ~note:traced_note;
    metric "protocols.ip_pop_self_us_per_msg" "us/msg" (self "protocols.ip_pop")
      ~note:traced_note;
    metric "protocols.fragments_per_msg" "1/msg" (per n (acc "ip.fragments_sent"));
    metric "protocols.reassemblies_per_msg" "1/msg" (per n (acc "ip.reassemblies"));
    metric "netdev.send_pdu_self_us_per_msg" "us/msg" (self "netdev.send_pdu")
      ~note:traced_note;
    metric "netdev.rx_self_us_per_msg" "us/msg" (self "netdev.rx") ~note:traced_note;
    metric "netdev.cells_per_msg" "1/msg" (per n (acc "osiris.cells_sent"));
    metric "netdev.uncached_rx_frac" "ratio"
      (let r = acc "osiris.data_pdus_received" in
       if r = 0.0 then 0.0 else acc "osiris.uncached_rx_pdus" /. r)
      ~note:(Printf.sprintf "of %.0f data PDUs" (acc "osiris.data_pdus_received"));
    metric "netdev.pdus_dropped" "count" (acc "osiris.pdus_dropped");
    metric "bench.glue_self_us_per_msg" "us/msg"
      (self "bench.handler" +. self "bench.sink") ~note:traced_note;
    metric "gc.minor_collections_per_kmsg" "1/kmsg"
      (per nu (1000.0 *. fi untraced.minor_gcs));
    metric "gc.major_collections_per_kmsg" "1/kmsg"
      (per nu (1000.0 *. fi untraced.major_gcs));
    metric "gc.promoted_words_per_msg" "words/msg" (per nu untraced.promoted);
    metric "bench.trace_overhead_ratio" "ratio" (rate untraced /. rate traced)
      ~note:(Printf.sprintf "untraced n=%d, traced n=%d" nu nt);
    metric "failed_frac" "ratio" failed_frac;
  ]

(* ---- output ---------------------------------------------------------- *)

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun m ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.mname
           (json_float m.value) m.unit_)
       ms)

let print_table ms =
  List.iter
    (fun m ->
      Printf.printf "  %-36s %16.6g %-8s %s\n" m.mname m.value m.unit_ m.note)
    ms

(* ---- one benchmark run ----------------------------------------------- *)

let run_workload (spec : W.spec) ~seed ~seconds ~trace ~out =
  let calib = calibration_ms () in
  let nproc = Domain.recommended_domain_count () in
  Printf.printf "# host: nproc=%d ocaml=%s calib_ms=%.3f\n" nproc Sys.ocaml_version
    calib;
  Printf.printf "# workload=%s seed=%d seconds=%g trace=%d\n%!" spec.W.name seed
    seconds (if trace then 1 else 0);
  let sizes = W.sizes spec ~seed ~count:4096 in
  let w, warm = build spec in
  (* Determinism: two untraced probes must agree exactly; in a traced run,
     a traced probe must agree with them on every simulated count. The
     probes run before the timed windows so the spans left in memory at
     the end are the traced window's. *)
  let p1 = probe spec ~sizes ~traced:false in
  let p2 = probe spec ~sizes ~traced:false in
  (* Peak heap over a fixed amount of work, the build and probes: the
     timed window's garbage would make it grow with the number of messages
     the host happened to get through. *)
  let heap_mb =
    fi (Gc.quick_stat ()).Gc.top_heap_words *. fi (Sys.word_size / 8) /. 1048576.0
  in
  let p3 = if trace then Some (probe spec ~sizes ~traced:true) else None in
  (* The set-ups run inside the untraced window of an end-to-end run. *)
  let untraced =
    timed spec w ~sizes
      ~seconds:(if trace then seconds /. 2.0 else seconds)
      ~traced:false ~setups:(if trace then 0 else nsetups)
  in
  let traced =
    if trace then timed spec w ~sizes ~seconds:(seconds /. 2.0) ~traced:true ~setups:0
    else untraced
  in
  let setup_s = median untraced.setup_times in
  let checks = checks w (warm :: untraced.setup_tallies) p1 p2 p3 in
  let live = live_fbufs w in
  let wins = if trace then [ untraced; traced ] else [ untraced ] in
  let failed_checks = List.filter (fun (_, ok) -> not ok) checks in
  let attempted = List.fold_left (fun a win -> a + win.tally.W.sent) 0 wins in
  let failed =
    List.fold_left (fun a win -> a + (win.tally.W.sent - win.tally.W.ok)) 0 wins
    + List.length failed_checks
  in
  let errors = List.fold_left (fun a win -> a + win.tally.W.errors) 0 wins in
  List.iter (fun (name, _) -> Printf.eprintf "check failed: %s\n" name) failed_checks;
  List.iter
    (fun win ->
      if win.tally.W.errors > 0 then
        Printf.eprintf "%d exception(s) escaped a layer call; last: %s\n"
          win.tally.W.errors win.tally.W.last_error)
    wins;
  let failed_frac = per attempted (fi failed) in
  let metrics =
    if trace then per_layer ~untraced ~traced ~p:p1 ~live ~failed_frac
    else end_to_end ~setup_s ~win:untraced ~p:p1 ~heap_mb
  in
  let correct = failed = 0 && errors = 0 in
  print_table metrics;
  if not trace then
    Printf.printf "  %-36s %16.6g %-8s n=%d of %d attempted\n" "failed_frac" failed_frac
      "ratio" failed attempted;
  (match out with
  | None -> ()
  | Some dir ->
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      let base =
        Filename.concat dir
          (Printf.sprintf "%s-seed%d-trace%d" spec.W.name seed (if trace then 1 else 0))
      in
      let oc = open_out (base ^ ".json") in
      Printf.fprintf oc
        "{\"workload\": %S, \"seed\": %d, \"host\": {\"nproc\": %d, \"ocaml\": %S, \
         \"calib_ms\": %s}, \"samples\": %d, \"attempted\": %d, \"failed\": %d, \
         \"probe\": {%s}, \"metrics\": {%s}}\n"
        spec.W.name seed nproc Sys.ocaml_version (json_float calib) untraced.tally.W.nlat
        attempted failed
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_float v)) p1.values))
        (json_metrics metrics);
      close_out oc;
      if trace then Spans.write_jsonl (base ^ "-spans.jsonl"));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 attempted) failed (json_metrics metrics);
  if correct then 0 else 1

(* ---- self-test ------------------------------------------------------- *)

(* The correctness gate on a seed held out from tuning: a short fixed
   window per workload, the quiescence checks, and the three-way
   determinism probe. *)
let held_out_seed = 104729

let self_test () =
  let passes (spec : W.spec) =
    let sizes = W.sizes spec ~seed:held_out_seed ~count:4096 in
    let w, warm = build spec in
    let t = W.tally () in
    w.W.run t ~sizes (W.count 64);
    let p1 = probe spec ~sizes ~traced:false in
    let p2 = probe spec ~sizes ~traced:false in
    let p3 = probe spec ~sizes ~traced:true in
    let failures =
      List.filter_map
        (fun (name, ok) -> if ok then None else Some name)
        (checks w [ warm; t ] p1 p2 (Some p3))
    in
    Printf.printf "%-14s %s\n" spec.W.name
      (if failures = [] then "ok" else "FAILED: " ^ String.concat "; " failures);
    failures = []
  in
  if List.for_all Fun.id (List.map passes W.specs) then 0 else 1

(* ---- command line ---------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref None and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME ipc-rpc | udp-cached | udp-uncached");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.String (fun d -> out := Some d), "DIR write the full report here");
      ("--self-test", Arg.Set self, " run the correctness gate on a held-out seed");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]";
  if !self then exit (self_test ());
  match List.find_opt (fun s -> s.W.name = !workload) W.specs with
  | None ->
      prerr_endline ("fbench: unknown workload " ^ !workload);
      exit 2
  | Some spec ->
      exit (run_workload spec ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out)
