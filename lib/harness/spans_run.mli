(** Harness-side span glue.

    The counterpart of {!Metrics_run} for the causal span sink: a run is
    spanned by installing a {!Fbufs_span.Span.t} in
    {!Fbufs_sim.Machine.default_spans} for its duration, so every machine
    created inside records into it. With nothing requested, nothing is
    installed and the run does no span work at all. *)

val with_causal_spans :
  ?jsonl:string ->
  ?chrome:string ->
  ?summary:bool ->
  ?top:int ->
  (unit -> 'a) ->
  'a
(** [with_causal_spans ?jsonl ?chrome ?summary ?top f] runs [f]; when
    any output is requested, machines created during the run share one
    fresh span sink. Afterwards [jsonl] receives the span trees
    (round-trippable via {!Fbufs_span.Span_export.parse_jsonl}),
    [chrome] a trace_event file with flow events, and with [summary]
    (default [false]) the critical-path report (first [top] transfers
    when given) is printed. When a metrics instance is installed around
    the run (e.g. [--metrics]), each transfer's wall time is additionally
    observed into the [fbufs_transfer_wall_us] sketch. The previous
    [default_spans] is restored even if [f] raises. *)

val print_report : ?top:int -> Fbufs_span.Span.t -> unit
(** Print the critical-path report to stdout. *)

val roll_transfer_walls : Fbufs_metrics.Metrics.t -> Fbufs_span.Span.t -> unit
(** Observe each of the sink's transfer wall times into the
    [fbufs_transfer_wall_us] sketch of the given registry (what
    {!with_causal_spans} does automatically when a metrics instance is
    installed around it). *)

val export_jsonl : Fbufs_span.Span.t -> string -> unit
(** Write span trees as JSONL; I/O errors are reported on stderr. *)

val export_chrome : Fbufs_span.Span.t -> string -> unit
(** Write the Chrome trace_event file; errors reported as
    {!export_jsonl}. *)
