(** Harness-side metrics glue.

    The counterpart of {!Tracing} for the metrics registry: a run is
    metered by installing a metrics probe
    ({!Fbufs_sim.Machine.with_probe}) for its duration, so every machine
    created inside is metered. With nothing requested, nothing is
    installed and the run is untouched — report output is byte-identical
    to an unmetered run. *)

val with_metrics :
  ?file:string -> ?folded:string -> ?summary:bool -> (unit -> 'a) -> 'a
(** [with_metrics ?file ?folded ?summary f] runs [f]; when any output is
    requested, machines created during the run share one fresh
    {!Fbufs_metrics.Metrics.t}. Afterwards the wall time of each transfer
    recorded by a causal span sink on the same machines
    ({!Spans_run.with_causal_spans}, nested either way) is observed into
    the [fbufs_transfer_wall_us] sketch, [file] receives the exposition
    (JSON when the filename ends in [.json], Prometheus text otherwise),
    [folded] receives collapsed flamegraph stacks of the cost ledger, and
    with [summary] (default [false]) the per-component cost breakdown is
    printed. *)
