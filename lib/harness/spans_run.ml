open Fbufs_sim
module Mx = Fbufs_metrics.Metrics
module Span = Fbufs_span.Span
module Critical = Fbufs_span.Critical
module Export = Fbufs_span.Span_export

(* Harness-side span glue: the counterpart of [Metrics_run] for the
   causal span sink. A run is spanned by installing a sink in
   [Machine.default_spans] for its duration; with nothing requested,
   nothing is installed and the run does zero span work. *)

let transfer_wall =
  Mx.sketch ~name:"fbufs_transfer_wall_us"
    ~help:
      "End-to-end wall time per causal transfer (mergeable quantile sketch)"
    ~labels:[ "label" ] ()

let export_jsonl sink path =
  match Export.write_jsonl path sink with
  | () ->
      Printf.printf "spans: %d transfers -> %s (jsonl)\n"
        (List.length (Span.transfers sink))
        path
  | exception Sys_error msg ->
      Printf.eprintf "spans: cannot write %s: %s\n" path msg

let export_chrome sink path =
  match Fbufs_trace.Chrome.write path (Export.chrome sink) with
  | () ->
      Printf.printf "spans: %d transfers -> %s (chrome://tracing, Perfetto)\n"
        (List.length (Span.transfers sink))
        path
  | exception Sys_error msg ->
      Printf.eprintf "spans: cannot write %s: %s\n" path msg

let print_report ?top sink =
  Critical.print_report Format.std_formatter ?top sink

let roll_transfer_walls mx sink =
  List.iter
    (fun (tr : Span.transfer) ->
      let s = Critical.analyze sink tr in
      Mx.observe mx transfer_wall ~labels:[ tr.Span.label ] s.Critical.wall_us)
    (Span.transfers sink)

let with_causal_spans ?jsonl ?chrome ?(summary = false) ?top f =
  match (jsonl, chrome, summary) with
  | None, None, false -> f ()
  | _ ->
      let sink = Span.create () in
      let saved = !Machine.default_spans in
      Machine.default_spans := Some sink;
      let result =
        Fun.protect ~finally:(fun () -> Machine.default_spans := saved) f
      in
      (* Roll per-transfer wall times into the run's metrics instance (when
         one is installed around us) as a mergeable sketch, keyed by the
         transfer label. *)
      (match !Machine.default_metrics with
      | None -> ()
      | Some mx -> roll_transfer_walls mx sink);
      Option.iter (export_jsonl sink) jsonl;
      Option.iter (export_chrome sink) chrome;
      if summary then print_report ?top sink;
      result
