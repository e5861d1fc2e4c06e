(** Harness-side tracing glue.

    The experiment drivers build their own testbeds, so tracing is enabled
    by installing a trace probe ({!Fbufs_sim.Machine.with_probe}) for the
    duration of a run: every machine created inside is observed. With no
    output file requested nothing is installed and the run is untouched —
    report output is byte-identical to an untraced run. *)

val with_trace : ?chrome:string -> ?jsonl:string -> (unit -> 'a) -> 'a
(** [with_trace ?chrome ?jsonl f] runs [f]; when at least one output file
    is given, machines created during the run share one fresh trace sink,
    and afterwards the Chrome JSON and/or JSONL exports are written, the
    per-path latency summary is printed, and a one-line note per file
    says how many events it holds. When a causal span sink observed the
    same machines ({!Spans_run.with_causal_spans}, nested either way),
    the Chrome file also carries its span trees and flow arrows on the
    same lanes. The buffer holds at most 2M events (full sweeps emit far
    more; dropped events are reported, and the latency summary still
    covers them). *)

val run_workload :
  ?config:Exp_fig5.config ->
  ?bytes:int ->
  ?uncached:bool ->
  ?pdu_size:int ->
  ?window:int ->
  ?nmsgs:int ->
  ?chrome:string ->
  ?jsonl:string ->
  ?metrics:string ->
  ?spans:string ->
  ?spans_chrome:string ->
  ?spans_summary:bool ->
  ?top:int ->
  unit ->
  unit
(** The [trace] and [spans] subcommands: one fully instrumented
    end-to-end UDP/IP transfer run (the Figure 5/6 testbed at a single
    message size, default 64 KB user-user cached), dumping any
    combination of Chrome trace / JSONL ([chrome], [jsonl]), metrics
    exposition ([metrics], via {!Metrics_run.with_metrics}), and causal
    span trees ([spans] JSONL / [spans_chrome], via
    {!Spans_run.with_causal_spans}; [spans_summary] prints the
    critical-path report, [top] limits it) — one execution, every
    requested output. With both [chrome] and [spans], the [chrome] file
    holds the trace and the span trees on one timeline. *)
