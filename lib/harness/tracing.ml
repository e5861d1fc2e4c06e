open Fbufs_sim
module Trace = Fbufs_trace.Trace
module Chrome = Fbufs_trace.Chrome
module Span_export = Fbufs_span.Span_export

(* Full experiment sweeps emit tens of millions of events; a bounded
   buffer keeps exports loadable in a viewer while the online latency
   sketches (fed before the capacity check) still see every slice. *)
let capacity = 2_000_000

(* One Chrome file per run: the trace's events and, when a causal span
   sink observed the same machines, its span trees and flow arrows, all
   on one lane table — one pid per machine for both kinds of event.
   Returns the number of events written. *)
let write_chrome tr spans path =
  let lanes = Chrome.lanes () in
  let events =
    Chrome.trace_events lanes tr
    @ Option.fold ~none:[] ~some:(Span_export.chrome_events lanes) spans
  in
  Chrome.write path (Chrome.document lanes ~dropped:(Trace.dropped tr) events);
  List.length events

let with_trace ?chrome ?jsonl f =
  match (chrome, jsonl) with
  | None, None -> f ()
  | _ ->
      let tr = Trace.create ~capacity () in
      let spans = ref None in
      let result =
        Machine.with_probe
          (fun m -> Spans_run.noting_sink spans m (Trace.probe tr m))
          f
      in
      let write what writer path =
        match writer path with
        | n -> Printf.printf "trace: %d events -> %s (%s)\n" n path what
        | exception Sys_error msg ->
            Printf.eprintf "trace: cannot write %s: %s\n" path msg
      in
      Option.iter
        (write "chrome://tracing, Perfetto" (write_chrome tr !spans))
        chrome;
      Option.iter
        (write "jsonl" (fun path ->
             Chrome.write_jsonl tr path;
             Trace.event_count tr))
        jsonl;
      if Trace.dropped tr > 0 then
        Printf.printf "trace: %d events dropped (buffer capacity)\n"
          (Trace.dropped tr);
      Report.print_trace_summary tr;
      result

let run_workload ?(config = Exp_fig5.User_user) ?(bytes = 65536)
    ?(uncached = false) ?pdu_size ?window ?nmsgs ?chrome ?jsonl ?metrics
    ?spans ?spans_chrome ?(spans_summary = false) ?top () =
  Report.print_title
    (Printf.sprintf
       "Traced end-to-end transfer: %s, %s fbufs, %d-byte messages"
       (Exp_fig5.config_name config)
       (if uncached then "uncached" else "cached/volatile")
       bytes);
  Metrics_run.with_metrics ?file:metrics (fun () ->
      Spans_run.with_causal_spans ?jsonl:spans ?chrome:spans_chrome
        ~summary:spans_summary ?top (fun () ->
          with_trace ?chrome ?jsonl (fun () ->
              let p =
                Exp_fig5.run_one ~uncached ~config ~bytes ?pdu_size ?window
                  ?nmsgs ()
              in
              Printf.printf
                "throughput %.1f Mb/s, tx CPU load %.2f, rx CPU load %.2f\n"
                p.Exp_fig5.mbps p.Exp_fig5.tx_cpu_load p.Exp_fig5.rx_cpu_load)))
