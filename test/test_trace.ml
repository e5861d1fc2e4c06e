(* Tests for the tracing facility: histogram math, slice bookkeeping,
   Chrome trace_event export round-tripped through the JSON parser, and
   the zero-overhead-when-disabled invariant. *)

open Fbufs_sim
open Fbufs
module Trace = Fbufs_trace.Trace
module Histogram = Fbufs_trace.Histogram
module Json = Fbufs_trace.Json
module Chrome = Fbufs_trace.Chrome
module Testbed = Fbufs_harness.Testbed
module Msg = Fbufs_msg.Msg
module Osiris = Fbufs_netdev.Osiris
module Testproto = Fbufs_protocols.Testproto

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let test_hist_exact_extrema () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 ];
  check Alcotest.int "count" 8 (Histogram.count h);
  check (Alcotest.float 1e-9) "sum" 31.0 (Histogram.sum h);
  check (Alcotest.float 1e-9) "min" 1.0 (Histogram.min_value h);
  check (Alcotest.float 1e-9) "max" 9.0 (Histogram.max_value h)

let test_hist_percentiles_known_inputs () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.add h (float_of_int i)
  done;
  (* Buckets grow by 2^(1/8) (~9%); a reported percentile is an upper
     bound within one bucket of the true order statistic. *)
  let assert_close p truth =
    let v = Histogram.percentile h p in
    let name = Printf.sprintf "p%g in [truth, truth*1.09]" p in
    Alcotest.(check bool) name true (v >= truth && v <= truth *. 1.09)
  in
  assert_close 50.0 50.0;
  assert_close 90.0 90.0;
  assert_close 99.0 99.0;
  check (Alcotest.float 1e-9) "p100 is exact max" 100.0
    (Histogram.percentile h 100.0);
  check (Alcotest.float 1e-9) "p0 is exact min" 1.0
    (Histogram.percentile h 0.0)

let test_hist_single_sample () =
  let h = Histogram.create () in
  Histogram.add h 42.0;
  List.iter
    (fun p ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "p%g of single sample" p)
        42.0
        (Histogram.percentile h p))
    [ 0.0; 50.0; 99.0; 100.0 ]

let test_hist_empty_and_zero () =
  let h = Histogram.create () in
  check (Alcotest.float 1e-9) "empty percentile" 0.0
    (Histogram.percentile h 50.0);
  check (Alcotest.float 1e-9) "empty mean" 0.0 (Histogram.mean h);
  Histogram.add h 0.0;
  Histogram.add h (-3.0) (* clamped to zero *);
  check Alcotest.int "zero samples counted" 2 (Histogram.count h);
  check (Alcotest.float 1e-9) "all-zero percentile" 0.0
    (Histogram.percentile h 99.0)

let test_hist_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.add a) [ 1.0; 2.0 ];
  List.iter (Histogram.add b) [ 100.0 ];
  let m = Histogram.merge a b in
  check Alcotest.int "merged count" 3 (Histogram.count m);
  check (Alcotest.float 1e-9) "merged min" 1.0 (Histogram.min_value m);
  check (Alcotest.float 1e-9) "merged max" 100.0 (Histogram.max_value m);
  check Alcotest.int "merge does not mutate" 2 (Histogram.count a)

(* ------------------------------------------------------------------ *)
(* Slices and event bookkeeping                                        *)
(* ------------------------------------------------------------------ *)

let test_capacity_drops_events_not_samples () =
  let tr = Trace.create ~capacity:2 () in
  for i = 0 to 9 do
    Trace.complete tr
      ~ts_us:(float_of_int i)
      ~dur_us:1.0 ~machine:"m" "op"
  done;
  check Alcotest.int "buffer capped" 2 (Trace.event_count tr);
  check Alcotest.int "drops counted" 8 (Trace.dropped tr);
  let h = List.assoc "op" (Trace.kind_summary tr) in
  check Alcotest.int "histogram saw every sample" 10 (Histogram.count h)

let test_machine_trace_complete () =
  let m = Machine.create ~name:"host" () in
  Alcotest.(check bool) "disabled by default" false (Machine.tracing m);
  Machine.trace_complete m ~since:0.0 "nope" (* no sink: must not raise *);
  let tr = Trace.create () in
  Machine.set_trace m (Some tr);
  Machine.charge ~kind:"before" m 2.0;
  let t0 = Machine.now m in
  Machine.charge ~kind:"step" m 5.0;
  Machine.charge ~kind:"step" m 1.5;
  Machine.trace_complete m ~since:t0 ~path_id:3 "work";
  (match List.rev (Trace.events tr) with
  | { Trace.kind = "work"; ts_us; phase = Trace.Complete dur; path_id; _ }
    :: _ ->
      check (Alcotest.float 1e-9) "slice starts at since" t0 ts_us;
      check (Alcotest.float 1e-9) "slice covers the charges since" 6.5 dur;
      check Alcotest.int "slice keeps its path" 3 path_id
  | _ -> Alcotest.fail "trace_complete emitted no trailing slice");
  let h = List.assoc ("work", 3) (Trace.summary tr) in
  check Alcotest.int "one latency sample" 1 (Histogram.count h);
  check (Alcotest.float 1e-9) "sample is the slice" 6.5 (Histogram.max_value h)

(* ------------------------------------------------------------------ *)
(* Chrome export round trip                                            *)
(* ------------------------------------------------------------------ *)

(* A small real workload with the sink installed the way the harness
   does it: via [Machine.default_trace], picked up by [Machine.create]. *)
let traced_workload () =
  let tr = Trace.create () in
  let saved = !Machine.default_trace in
  Machine.default_trace := Some tr;
  Fun.protect
    ~finally:(fun () -> Machine.default_trace := saved)
    (fun () ->
      let tb = Testbed.create () in
      let app = Testbed.user_domain tb "app" in
      let recv = Testbed.user_domain tb "recv" in
      let alloc =
        Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile
      in
      for _ = 1 to 3 do
        let fb = Allocator.alloc alloc ~npages:2 in
        Fbuf_api.touch_write fb ~as_:app;
        Transfer.send fb ~src:app ~dst:recv;
        Fbuf_api.touch_read fb ~as_:recv;
        Transfer.free fb ~dom:recv;
        Transfer.free fb ~dom:app
      done);
  tr

let test_chrome_json_roundtrip () =
  let tr = traced_workload () in
  Alcotest.(check bool) "workload emitted events" true
    (Trace.event_count tr > 0);
  let parsed = Json.parse (Chrome.to_string tr) in
  let events =
    match Json.member "traceEvents" parsed with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing or not a list"
  in
  Alcotest.(check bool) "non-empty traceEvents" true (events <> []);
  let str_field name ev =
    match Json.member name ev with
    | Some (Json.String s) -> s
    | _ -> Alcotest.failf "event without string %S field" name
  in
  let metadata = ref 0 in
  List.iter
    (fun ev ->
      let ph = str_field "ph" ev in
      (match ph with
      | "X" | "i" | "M" -> ()
      | other -> Alcotest.failf "unknown phase %S" other);
      if ph = "M" then incr metadata
      else
        (* Every non-metadata event carries a numeric timestamp. *)
        match Json.member "ts" ev with
        | Some (Json.Float _ | Json.Int _) -> ()
        | _ -> Alcotest.fail "event without numeric ts")
    events;
  Alcotest.(check bool) "has process/thread metadata" true (!metadata > 0);
  match Json.member "displayTimeUnit" parsed with
  | Some (Json.String _) -> ()
  | _ -> Alcotest.fail "missing displayTimeUnit"

let test_jsonl_lines_parse () =
  let tr = traced_workload () in
  let path = Filename.temp_file "fbufs_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Chrome.write_jsonl tr path;
      let ic = open_in path in
      let lines = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lines;
           match Json.parse line with
           | Json.Obj fields ->
               Alcotest.(check bool) "line has kind" true
                 (List.mem_assoc "kind" fields);
               Alcotest.(check bool) "line is an instant or a slice" true
                 (match List.assoc_opt "ph" fields with
                 | Some (Json.String ("i" | "X")) -> true
                 | _ -> false)
           | _ -> Alcotest.fail "jsonl line is not an object"
         done
       with End_of_file -> close_in ic);
      check Alcotest.int "one line per buffered event" (Trace.event_count tr)
        !lines)

(* ------------------------------------------------------------------ *)
(* Two hosts                                                           *)
(* ------------------------------------------------------------------ *)

let with_default_trace trace f =
  let saved = !Machine.default_trace in
  Machine.default_trace := trace;
  Fun.protect ~finally:(fun () -> Machine.default_trace := saved) f

(* Two hosts joined by Osiris, as in the netdev tests: [tx] sends four
   PDUs and holds their source buffers until the link drains, and [rx]
   answers each with a short reply. Both hosts allocate and free fbufs
   while the other holds buffers, and fbuf ids are per machine, so the
   two hosts' ids overlap. Returns both machines. *)
let osiris_exchange ~trace () =
  with_default_trace trace (fun () ->
      let des = Des.create () in
      let tb1 = Testbed.create ~name:"tx" ~seed:1 () in
      let tb2 = Testbed.create ~name:"rx" ~seed:2 () in
      let host tb =
        let k = tb.Testbed.kernel in
        let ad =
          Osiris.create ~m:tb.Testbed.m ~des ~region:tb.Testbed.region
            ~kernel:k ()
        in
        let alloc = Testbed.allocator tb ~domains:[ k ] Fbuf.cached_volatile in
        (ad, k, fun bytes -> Testproto.make_message ~alloc ~as_:k ~bytes ())
      in
      let ad1, k1, msg1 = host tb1 and ad2, k2, msg2 = host tb2 in
      Osiris.connect ad1 ad2;
      Osiris.set_rx_handler ad1 (fun ~vci:_ msg -> Msg.free_held msg ~dom:k1);
      Osiris.set_rx_handler ad2 (fun ~vci msg ->
          Msg.free_held msg ~dom:k2;
          let reply = msg2 64 in
          Osiris.send_pdu ad2 ~vci reply;
          Msg.free_held reply ~dom:k2);
      let sent =
        List.init 4 (fun i ->
            let msg = msg1 (1000 * (i + 1)) in
            Osiris.send_pdu ad1 ~vci:7 msg;
            msg)
      in
      Des.run des;
      List.iter (fun msg -> Msg.free_held msg ~dom:k1) sent;
      [ tb1.Testbed.m; tb2.Testbed.m ])

(* Each last free closes exactly one [fbuf.life] slice, whichever
   machine the buffer lives on and whatever ids the other host uses. *)
let test_fbuf_life_per_last_free () =
  let tr = Trace.create () in
  let machines = osiris_exchange ~trace:(Some tr) () in
  let last_frees =
    List.fold_left
      (fun acc (m : Machine.t) -> acc + Stats.get m.stats "fbuf.last_free")
      0 machines
  in
  let lives =
    List.fold_left
      (fun acc ((kind, _), h) ->
        if kind = "fbuf.life" then acc + Histogram.count h else acc)
      0 (Trace.summary tr)
  in
  Alcotest.(check bool) "both hosts freed buffers" true (last_frees > 0);
  check Alcotest.int "one fbuf.life sample per last free" last_frees lives;
  List.iter
    (fun (ev : Trace.event) ->
      match ev.phase with
      | Trace.Complete d when d < 0.0 ->
          Alcotest.failf "%s slice on %s has negative duration %g" ev.kind
            ev.machine d
      | _ -> ())
    (Trace.events tr)

(* ------------------------------------------------------------------ *)
(* Zero overhead when disabled                                         *)
(* ------------------------------------------------------------------ *)

(* The same seeded workload must leave bit-identical statistics, clock
   and id counters whether a sink is attached or not: tracing observes
   charges, it never adds any, and it draws no ids. Each leg reports
   [(stats, clock, next id)] per machine: a one-host send/free loop, then
   both hosts of an Osiris exchange. *)
let run_workload ~trace () =
  let leg (m : Machine.t) =
    (Stats.snapshot m.stats, Machine.now m, Machine.fresh_id m)
  in
  let single =
    with_default_trace trace (fun () ->
        let tb = Testbed.create () in
        let app = Testbed.user_domain tb "app" in
        let recv = Testbed.user_domain tb "recv" in
        let alloc =
          Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile
        in
        for _ = 1 to 5 do
          let fb = Allocator.alloc alloc ~npages:3 in
          Fbuf_api.touch_write fb ~as_:app;
          Transfer.send fb ~src:app ~dst:recv;
          Fbuf_api.touch_read fb ~as_:recv;
          Transfer.free fb ~dom:recv;
          Transfer.free fb ~dom:app
        done;
        tb.Testbed.m)
  in
  List.map leg (single :: osiris_exchange ~trace ())

let test_disabled_tracing_is_invisible () =
  let off = run_workload ~trace:None () in
  let tr = Trace.create () in
  let on = run_workload ~trace:(Some tr) () in
  Alcotest.(check bool) "traced run actually traced" true
    (Trace.event_count tr > 0);
  check Alcotest.int "same machines" (List.length off) (List.length on);
  List.iteri
    (fun i ((stats_off, now_off, id_off), (stats_on, now_on, id_on)) ->
      let name what = Printf.sprintf "machine %d: %s" i what in
      check (Alcotest.float 0.0) (name "identical clock") now_off now_on;
      check Alcotest.int (name "identical next id") id_off id_on;
      check
        Alcotest.(list (pair string (Alcotest.float 0.0)))
        (name "identical statistics") stats_off stats_on;
      check
        Alcotest.(list (pair string (Alcotest.float 0.0)))
        (name "no residual delta") []
        (Stats.diff ~before:stats_off ~after:stats_on))
    (List.combine off on)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "trace"
    [
      ( "histogram",
        [
          Alcotest.test_case "exact extrema" `Quick test_hist_exact_extrema;
          Alcotest.test_case "percentiles on known inputs" `Quick
            test_hist_percentiles_known_inputs;
          Alcotest.test_case "single sample" `Quick test_hist_single_sample;
          Alcotest.test_case "empty and zero" `Quick test_hist_empty_and_zero;
          Alcotest.test_case "merge" `Quick test_hist_merge;
        ] );
      ( "spans",
        [
          Alcotest.test_case "capacity drops events not samples" `Quick
            test_capacity_drops_events_not_samples;
          Alcotest.test_case "machine helpers" `Quick
            test_machine_trace_complete;
          Alcotest.test_case "fbuf.life per last free" `Quick
            test_fbuf_life_per_last_free;
        ] );
      ( "chrome-export",
        [
          Alcotest.test_case "json round trip" `Quick test_chrome_json_roundtrip;
          Alcotest.test_case "jsonl lines parse" `Quick test_jsonl_lines_parse;
        ] );
      ( "zero-overhead",
        [
          Alcotest.test_case "disabled tracing is invisible" `Quick
            test_disabled_tracing_is_invisible;
        ] );
    ]
