open Fbufs_sim
module Mx = Fbufs_metrics.Metrics
module Span = Fbufs_span.Span
module Critical = Fbufs_span.Critical
module Export = Fbufs_span.Span_export

(* Harness-side span glue: the counterpart of [Metrics_run] for the
   causal span sink. A run is spanned by installing a span probe for its
   duration; with nothing requested, nothing is installed and the run
   does zero span work. *)

let transfer_wall =
  Mx.sketch ~name:"fbufs_transfer_wall_us"
    ~help:
      "End-to-end wall time per causal transfer (mergeable quantile sketch)"
    ~labels:[ "label" ] ()

let export what write sink path =
  match write path with
  | () ->
      Printf.printf "spans: %d transfers -> %s (%s)\n"
        (List.length (Span.transfers sink))
        path what
  | exception Sys_error msg ->
      Printf.eprintf "spans: cannot write %s: %s\n" path msg

let roll_transfer_walls mx sink =
  List.iter
    (fun (tr : Span.transfer) ->
      let s = Critical.analyze sink tr in
      Mx.observe mx transfer_wall ~labels:[ tr.Span.label ] s.Critical.wall_us)
    (Span.transfers sink)

(* [obs] with a tick that notes the span sink recording [m] in [found]:
   by the first tick the machine carries all its observers, whichever
   bracket installed them. The sink is kept, not the machine, which would
   stay alive past its run. *)
let noting_sink found m (obs : Observer.t) =
  let tick () = if Option.is_none !found then found := Span.of_machine m in
  { obs with tick = (fun () -> tick (); obs.tick ()) }

let with_causal_spans ?jsonl ?chrome ?(summary = false) ?top f =
  match (jsonl, chrome, summary) with
  | None, None, false -> f ()
  | _ ->
      let sink = Span.create () in
      let result = Machine.with_probe (Span.probe sink) f in
      Option.iter
        (export "jsonl" (fun path -> Export.write_jsonl path sink) sink)
        jsonl;
      Option.iter
        (export "chrome://tracing, Perfetto"
           (fun path -> Fbufs_trace.Chrome.write path (Export.chrome sink))
           sink)
        chrome;
      if summary then Critical.print_report Format.std_formatter ?top sink;
      result
