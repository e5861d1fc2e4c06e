(** Online invariant monitors: metered-run invariants evaluated at
    sequence points ({!Fbufs_sim.Machine.seq_point} sites: an IPC reply
    delivered, a transfer secured, a pageout sweep done). The structural
    invariants (reference counts, free lists) belong to the offline
    checker's audit.

    Rules rotate round-robin, one rule per sequence point, each
    examining at most [budget] items. Monitors only read: they never
    charge simulated time, so arming them cannot perturb any golden
    output.

    Rules:
    - [ledger]: the metering instance's arrival total for the machine
      ({!Fbufs_metrics.Metrics.charged_us}) equals [Machine.busy_us] —
      attribution is complete (metered runs);
    - [gauge]: policy held-pages gauges do not exceed their threshold
      gauge by more than [grace] pages (metered runs).

    Violations feed [fbufs_monitor_violations_total{rule}], leave an
    instant event in the recorded stream and arm the recorder's dump
    trigger. Independently of the rules, a policy drop spike (the
    dropped-total counter advancing by [drop_spike] or more between
    consecutive sequence points of a machine) triggers a dump with
    reason [drop-spike]. *)

type config = {
  budget : int;  (** max items examined per sequence point *)
  grace : int;  (** pages of held-over-threshold slack before [gauge] fires *)
  drop_spike : float;  (** drops between sequence points that trigger a dump *)
  max_violations : int;  (** retained violation messages (metric still counts all) *)
}

val default : config
(** budget 32, grace 16 pages, spike 8 drops, 64 retained messages. *)

type t

val create : ?recorder:Recorder.t -> config -> t

val probe : t -> Fbufs_sim.Machine.probe
(** Check the rules at every sequence point of the machines it observes
    (install with [Fbufs_sim.Machine.with_probe]). *)

val violations : t -> (string * string) list
(** Retained [(rule, message)] pairs, oldest first, capped at
    [max_violations]. *)

val violation_count : t -> int
val checks : t -> int
(** Sequence points observed. *)
