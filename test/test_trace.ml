(* Tests for the tracing facility: slice bookkeeping and its latency
   sketches, Chrome trace_event export round-tripped through the JSON
   parser (alone and sharing one file with the causal span trees), and
   the zero-overhead-when-disabled invariant. *)

open Fbufs_sim
open Fbufs
module Trace = Fbufs_trace.Trace
module Sketch = Fbufs_trace.Sketch
module Json = Fbufs_trace.Json
module Chrome = Fbufs_trace.Chrome
module Testbed = Fbufs_harness.Testbed
module Msg = Fbufs_msg.Msg
module Osiris = Fbufs_netdev.Osiris
module Testproto = Fbufs_protocols.Testproto

let check = Alcotest.check

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
  let samples =
    List.fold_left
      (fun acc ((kind, _), sk) ->
        if kind = "op" then acc + Sketch.count sk else acc)
      0 (Trace.summary tr)
  in
  check Alcotest.int "latency sketches saw every sample" 10 samples

let test_machine_trace_complete () =
  let m = Machine.create ~name:"host" () in
  Alcotest.(check bool) "disabled by default" false (Machine.tracing m);
  Machine.trace_complete m ~since:0.0 "nope" (* no sink: must not raise *);
  let tr = Trace.create () in
  let m =
    Machine.with_probe (Trace.probe tr) (fun () ->
        Machine.create ~name:"host" ())
  in
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
  let sk = List.assoc ("work", 3) (Trace.summary tr) in
  check Alcotest.int "one latency sample" 1 (Sketch.count sk);
  check (Alcotest.float 1e-9) "sample is the slice" 6.5 (Sketch.max_value sk)

(* ------------------------------------------------------------------ *)
(* Chrome export round trip                                            *)
(* ------------------------------------------------------------------ *)

(* A small real workload with the sink installed the way the harness
   does it: a trace probe observing every machine [Machine.create]s. *)
let traced_workload () =
  let tr = Trace.create () in
  Machine.with_probe (Trace.probe tr) (fun () ->
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

(* A run with both a trace sink and a causal span sink, through the same
   harness entry point as [fbufs_cli trace --trace F --spans S]: the one
   Chrome file holds the trace's instants and slices, the span slices and
   their flow arrows, with one pid per machine shared by both kinds of
   event and a named thread for every lane in use. *)
let test_trace_and_spans_one_file () =
  let chrome = Filename.temp_file "fbufs_trace" ".json" in
  let spans = Filename.temp_file "fbufs_spans" ".jsonl" in
  let parsed =
    Fun.protect
      ~finally:(fun () ->
        Sys.remove chrome;
        Sys.remove spans)
      (fun () ->
        Fbufs_harness.Tracing.run_workload ~bytes:16384 ~window:4 ~nmsgs:4
          ~chrome ~spans ();
        Json.parse (In_channel.with_open_bin chrome In_channel.input_all))
  in
  let events =
    match Json.member "traceEvents" parsed with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing or not a list"
  in
  let str name ev =
    match Json.member name ev with Some (Json.String s) -> s | _ -> ""
  in
  let int name ev =
    match Json.member name ev with Some (Json.Int i) -> i | _ -> -1
  in
  (* Trace events carry no [cat]; spans are "span", arrows "flow". *)
  let source ev = if str "ph" ev = "M" then "meta" else str "cat" ev in
  let has what src ph =
    Alcotest.(check bool) what true
      (List.exists (fun ev -> source ev = src && str "ph" ev = ph) events)
  in
  has "trace instants" "" "i";
  has "trace slices" "" "X";
  has "span slices" "span" "X";
  has "flow starts" "flow" "s";
  has "flow ends" "flow" "f";
  let meta name = List.filter (fun ev -> str "name" ev = name) events in
  let procs =
    List.map
      (fun ev ->
        let machine =
          match Json.member "args" ev with
          | Some args -> str "name" args
          | None -> ""
        in
        (machine, int "pid" ev))
      (meta "process_name")
  in
  let machines = List.map fst procs in
  check
    Alcotest.(list string)
    "one process_name per machine"
    (List.sort_uniq compare machines)
    (List.sort compare machines);
  List.iter
    (fun machine ->
      let pid = Option.value ~default:(-1) (List.assoc_opt machine procs) in
      let on_pid src =
        List.exists (fun ev -> int "pid" ev = pid && source ev = src) events
      in
      Alcotest.(check bool)
        (machine ^ ": trace and span events share its pid")
        true
        (on_pid "" && on_pid "span"))
    [ "tx"; "rx" ];
  let named =
    List.map (fun ev -> (int "pid" ev, int "tid" ev)) (meta "thread_name")
  in
  List.iter
    (fun ev ->
      let pid = int "pid" ev and tid = int "tid" ev in
      if source ev <> "meta" && not (List.mem (pid, tid) named) then
        Alcotest.failf "lane (%d, %d) has no thread_name" pid tid)
    events

(* [f ()] with stdout sent to a file; returns the lines printed. *)
let stdout_lines f =
  let path = Filename.temp_file "fbufs_stdout" ".txt" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  let lines = In_channel.with_open_bin path In_channel.input_lines in
  Sys.remove path;
  lines

(* Each "trace: N events -> F" note counts what F holds: in the Chrome
   file every non-metadata event, span slices and flow arrows included;
   in the JSONL file every line. The span sink is installed inside the
   trace here — the reverse of [run_workload] — and still lands in the
   Chrome file. *)
let test_notes_count_file_events () =
  let chrome = Filename.temp_file "fbufs_trace" ".json" in
  let jsonl = Filename.temp_file "fbufs_trace" ".jsonl" in
  let spans = Filename.temp_file "fbufs_spans" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ chrome; jsonl; spans ])
  @@ fun () ->
  let notes =
    stdout_lines (fun () ->
        Fbufs_harness.Tracing.with_trace ~chrome ~jsonl (fun () ->
            Fbufs_harness.Spans_run.with_causal_spans ~jsonl:spans (fun () ->
                ignore
                  (Fbufs_harness.Exp_fig5.run_one ~uncached:false
                     ~config:Fbufs_harness.Exp_fig5.User_user ~bytes:16384
                     ~window:4 ~nmsgs:4 ()))))
  in
  let noted path =
    List.find_map
      (fun line ->
        Scanf.sscanf_opt line "trace: %d events -> %s@ " (fun n p ->
            if p = path then Some n else None)
        |> Option.join)
      notes
  in
  let events =
    match
      Json.member "traceEvents"
        (Json.parse (In_channel.with_open_bin chrome In_channel.input_all))
    with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing or not a list"
  in
  let ph ev =
    match Json.member "ph" ev with Some (Json.String s) -> s | _ -> ""
  in
  let in_chrome = List.length (List.filter (fun ev -> ph ev <> "M") events) in
  Alcotest.(check bool) "the file holds span slices" true
    (List.exists (fun ev -> ph ev = "s") events);
  check
    Alcotest.(option int)
    "chrome note = non-metadata events in the file" (Some in_chrome)
    (noted chrome);
  check
    Alcotest.(option int)
    "jsonl note = lines in the file"
    (Some (List.length (In_channel.with_open_bin jsonl In_channel.input_lines)))
    (noted jsonl)

(* ------------------------------------------------------------------ *)
(* Two hosts                                                           *)
(* ------------------------------------------------------------------ *)

let with_trace_probe trace f =
  match trace with
  | None -> f ()
  | Some tr -> Machine.with_probe (Trace.probe tr) f

(* Two hosts joined by Osiris, as in the netdev tests: [tx] sends four
   PDUs and holds their source buffers until the link drains, and [rx]
   answers each with a short reply. Both hosts allocate and free fbufs
   while the other holds buffers, and fbuf ids are per machine, so the
   two hosts' ids overlap. Returns both machines. *)
let osiris_exchange ~trace () =
  with_trace_probe trace (fun () ->
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
      (fun acc ((kind, _), sk) ->
        if kind = "fbuf.life" then acc + Sketch.count sk else acc)
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
    with_trace_probe trace (fun () ->
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
          Alcotest.test_case "trace and spans share one file" `Quick
            test_trace_and_spans_one_file;
          Alcotest.test_case "notes count the file's events" `Quick
            test_notes_count_file_events;
        ] );
      ( "zero-overhead",
        [
          Alcotest.test_case "disabled tracing is invisible" `Quick
            test_disabled_tracing_is_invisible;
        ] );
    ]
