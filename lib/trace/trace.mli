(** Structured event tracing for the simulated data path.

    A [Trace.t] is a sink that subsystems stamp typed events into as the
    simulation runs: instants (a pmap update, an fbuf cache hit) and
    complete slices. A slice is emitted where its interval ends, from a
    start time the emitter already holds: a cost charge, an IPC call from
    entry to reply, the life of one fbuf from allocation to last free, or
    one PDU from DMA-gather to delivery on the peer machine. Causal
    structure across domains and machines is the business of
    [Fbufs_span.Span], not of this sink.

    Timestamps are simulated microseconds supplied by the caller (the
    machine's clock); the sink itself never reads wall-clock time and
    never charges simulated time, so enabling tracing cannot perturb any
    measurement.

    Latency sketches ({!Sketch}) keyed by [(kind, path_id)] are
    maintained online as every slice is pushed, so percentile summaries
    survive even when a bounded buffer drops raw events. *)

type arg = Fbufs_sim.Observer.arg = Str of string | Int of int | Float of float

type phase = Instant | Complete of float  (** duration in simulated us *)

type event = {
  ts_us : float;
  machine : string;
  domain : string;  (** "" when the event is machine-level *)
  path_id : int;  (** -1 when the event is not bound to an I/O path *)
  kind : string;
  phase : phase;
  args : (string * arg) list;
}

type t

val create : ?ring:bool -> ?latency:bool -> ?capacity:int -> unit -> t
(** [capacity] bounds the number of buffered events. By default, once
    full, further events are counted in {!dropped} but not stored (the
    latency sketches still see every slice). With [~ring:true] the sink
    becomes a flight-recorder ring instead: when full, each new event
    overwrites the {e oldest} retained one (the overwritten event counts
    in {!dropped}), so the buffer always holds the most recent
    [capacity] events. [~latency:false] skips the per-[(kind, path)] latency
    sketches entirely — the log-bucketing is the most expensive part
    of accepting an event, and an always-armed recorder ring has no
    use for it ({!summary} is empty). Unbounded by default.
    Raises [Invalid_argument] when [capacity] is not positive, or when
    [ring] is set without a [capacity]. *)

type sampler = {
  skip : float array;
      (** Length-1 cell holding the weight budget until the next
          acceptance. The trace decrements it by each event's sampling
          weight (the duration for completes, 1.0 otherwise) inline —
          an unboxed float-array store, no call, no allocation. *)
  accept : event -> float -> float;
      (** Called with the event and its weight when the budget reaches
          zero; returns the next budget. Only now is the event record
          materialized from the ring columns, so a sampler whose
          steady-state accept rate is low (a full weighted reservoir
          skipping in weight units) costs a float subtract and compare
          per event. *)
}

val set_sampler : t -> sampler option -> unit

val last_ts : t -> float
(** Largest timestamp pushed so far (0.0 when none — reset by
    {!clear}). *)

val clear : t -> unit
val event_count : t -> int
val dropped : t -> int

val events : t -> event list
(** Buffered events in emission order (oldest retained first, including
    across ring wraparound). *)

val instant :
  t ->
  ts_us:float ->
  machine:string ->
  ?domain:string ->
  ?path_id:int ->
  ?args:(string * arg) list ->
  string ->
  unit

val complete :
  t ->
  ts_us:float ->
  dur_us:float ->
  machine:string ->
  ?domain:string ->
  ?path_id:int ->
  ?args:(string * arg) list ->
  string ->
  unit
(** A slice of known duration starting at [ts_us]; feeds the latency
    sketch for its [(kind, path_id)]. *)

val summary : t -> ((string * int) * Sketch.t) list
(** Latency sketches keyed by [(kind, path_id)], sorted by kind then
    path id. Populated by every slice, charges included. *)

val probe : t -> Fbufs_sim.Machine.probe
(** Trace machines into this sink: a [Complete] slice per charge that has
    a kind (its component as the ["comp"] argument) and every instant
    and slice they emit, stamped with their simulated clock and name. *)
