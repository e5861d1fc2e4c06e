(** Harness-side span glue.

    The counterpart of {!Metrics_run} for the causal span sink: a run is
    spanned by installing a span probe ({!Fbufs_sim.Machine.with_probe})
    for its duration, so every machine created inside records into one
    {!Fbufs_span.Span.t}. With nothing requested, nothing is installed
    and the run does no span work at all. *)

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
    when given) is printed. A {!Metrics_run.with_metrics} around or
    inside the call observes each transfer's wall time into the
    [fbufs_transfer_wall_us] sketch. *)

val noting_sink :
  Fbufs_span.Span.t option ref ->
  Fbufs_sim.Machine.t ->
  Fbufs_sim.Observer.t ->
  Fbufs_sim.Observer.t
(** [obs] that also sets [found] to the span sink recording [m] on its
    first tick, when [m] carries the observers of every bracket: how
    {!Tracing.with_trace} and {!Metrics_run.with_metrics} find the run's
    causal spans, nested either way. *)

val roll_transfer_walls : Fbufs_metrics.Metrics.t -> Fbufs_span.Span.t -> unit
(** Observe each of the sink's transfer wall times into the
    [fbufs_transfer_wall_us] sketch of the given registry (what
    {!Metrics_run.with_metrics} does for the run's span sink). *)
