(** Periodic snapshot report over the metrics registry, on the simulated
    timeline.

    A [Top.t] observes machines through its {!probe}: every time an
    observed machine's clock crosses an interval boundary it renders one
    frame — throughput counters with per-interval deltas, drops by
    class, held pages vs threshold, TLB shootdowns and elisions, monitor
    violations, per-component cost shares from the ledger — read from
    the metrics instance metering those machines
    ({!Fbufs_metrics.Metrics.of_machine}); frames show only their header
    on unmetered machines. The closing frame adds transfer-wall quantiles
    from the causal spans Top records itself. Everything printed is
    simulated-time state, so frames are deterministic and goldenable;
    rendering reads without charging, so observing with Top perturbs
    nothing.

    Both [fbufs_cli top] and [fbufs_cli stats --watch] share this
    renderer. *)

type t

val create : ?interval_us:float -> unit -> t
(** Frames go to stdout; default interval 1 s of simulated time. Raises
    [Invalid_argument] unless the interval is positive. *)

val probe : t -> Fbufs_sim.Machine.probe
(** Frame on the machines' clock ticks, and record their causal spans in
    a private sink that feeds the closing frame only. *)

val final : t -> unit
(** Render a closing frame at the latest simulated time a tick showed,
    with the wall-time quantiles of the transfers recorded while
    observing. *)
