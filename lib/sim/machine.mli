(** A simulated host: clock, cost model, physical memory, TLB, statistics.

    Every other subsystem (VM, fbufs, IPC, protocols, drivers) operates on a
    [Machine.t] and accounts simulated time through {!charge} (CPU work) or
    {!elapse} (idle waiting, e.g. for the network), which keeps CPU-load
    accounting honest for the paper's section-4 load measurements.

    Whatever watches a machine — trace, metrics, causal spans, monitors,
    the flight recorder — is one {!Observer.t}, built by each telemetry
    library's {!probe} and installed with {!with_probe}; the simulator
    itself links no telemetry. *)

type busy = { mutable busy_us : float }
(** Single-field all-float record: the busy accumulator lives in flat
    (unboxed) storage so {!charge} does not allocate. *)

type t = {
  name : string;
  clock : Clock.t;
  cost : Cost_model.t;
  pmem : Phys_mem.t;
  tlb : Tlb.t;
  stats : Stats.t;
  rng : Rng.t;
  busy : busy;
  mutable next_asid : int;
  mutable next_id : int;
  mutable obs : Observer.t;  (** set once, by {!create} *)
  mutable comp_ctx : Component.t option;
}

type probe = t -> Observer.t
(** Builds a machine's observer when {!create} makes it; the closures
    may keep per-machine state. *)

val with_probe : probe -> (unit -> 'a) -> 'a
(** [with_probe p f] runs [f] with [p] added to the probes installed by
    the enclosing brackets, observing every machine {!create}d inside
    (which keeps its observers after [f]); the previous set is restored
    on exit, also when [f] raises. *)

val create :
  ?name:string ->
  ?cost:Cost_model.t ->
  ?nframes:int ->
  ?tlb_entries:int ->
  ?seed:int ->
  unit ->
  t
(** Defaults: DecStation 5000/200 cost model, 4096 frames (16 MB), 64 TLB
    entries, seed 42. Observed by the probes installed by the enclosing
    {!with_probe} brackets. *)

val tracing : t -> bool
(** Whether an observer consumes trace events. Instrumentation sites that
    build argument lists must test this first so an unobserved machine
    pays one comparison and no allocation. *)

val spanning : t -> bool
(** Whether a causal span sink observes the machine — the counterpart of
    {!tracing} for the span instrumentation. *)

val seq_point : t -> string -> unit
(** Declare a sequence point — a site (named like ["ipc.reply"],
    ["transfer.secure"], ["pageout.balance"]) where the system's
    invariants are expected to hold. The online monitors check them
    here; unobserved, the cost is one pointer comparison. *)

val with_comp : t -> Component.t -> (unit -> 'a) -> 'a
(** Run [f] with every {!charge} attributed to the given component,
    overriding the call sites' own tags — used where a whole activity
    (e.g. aggregate-object deserialization) belongs to one Table 1 row
    even though it exercises allocator and VM charge sites. Restores the
    previous context on exit, exceptions included. *)

val charge : ?kind:string -> ?comp:Component.t -> t -> float -> unit
(** Consume [us] microseconds of CPU time: advances the clock and the busy
    accumulator. The observers see the charge first, with its [?kind]
    and its component ([?comp], or the surrounding {!with_comp} context):
    the trace emits a [Complete] slice for a charge with a kind — this is
    how every individual cost in the model becomes visible on the
    timeline — the cost ledger and the span sink attribute it ([Other]
    when untagged). Observers never alter the charge itself. *)

val charge_n :
  ?kind:string -> ?comp:Component.t -> t -> int -> float -> unit
(** [charge_n m n us] charges [n] repetitions of a per-item cost. *)

val elapse_to : t -> float -> unit
(** Wait (idle) until an absolute simulated time; no busy time accrues. *)

(** {1 Causal spans}

    Requests to the machine's causal span sink, which stamps them with
    this machine's clock and name. With no sink every call is one
    comparison; begin/enter return 0 and end/exit ignore 0, so call
    sites need no guards. Every {!charge} made while a span is open on
    the machine is attributed to it (innermost wins) under its Table 1
    component. *)

val transfer_begin : t -> ?domain:string -> ?path_id:int -> string -> int
(** Open a transfer (one end-to-end data movement) rooted on this
    machine; returns the transfer id to carry across domains and
    machines (0 when disabled). *)

val transfer_end : t -> int -> unit

val with_transfer : t -> ?domain:string -> ?path_id:int -> string -> (unit -> 'a) -> 'a
(** Bracket [f] in a transfer. The transfer's spans may keep arriving
    after [f] returns (deliveries {!span_adopt} into it); only the root
    span closes here. *)

val span_enter : t -> ?domain:string -> ?path_id:int -> string -> int
(** Child span of the innermost open span; 0 when disabled or when the
    machine has no open transfer context. *)

val span_exit : t -> int -> unit

val span_adopt :
  t -> transfer:int -> ?follows:int -> ?domain:string -> ?path_id:int -> string -> int
(** Continue transfer [transfer] on this machine (the receive side of a
    cross-machine delivery), linked by a follows-from edge (default: the
    transfer's root). Ignores transfer id 0. *)

val span_flight :
  t ->
  transfer:int ->
  follows:int ->
  start_us:float ->
  end_us:float ->
  ?path_id:int ->
  string ->
  int
(** Record a wire-occupancy span (serialization + propagation) on the
    span sink's wire pseudo-machine. *)

val current_transfer : t -> int
(** The machine's current transfer context (0 when none or disabled) —
    what {!Fbufs.Allocator.alloc} stamps into new fbufs. *)

val trace_instant :
  t ->
  ?domain:string ->
  ?path_id:int ->
  ?args:(string * Observer.arg) list ->
  string ->
  unit
(** Emit an instant event stamped with the machine's current simulated
    time. No-op without a trace (guard arg construction with
    {!tracing}). *)

val trace_complete :
  t ->
  since:float ->
  ?domain:string ->
  ?path_id:int ->
  ?args:(string * Observer.arg) list ->
  string ->
  unit
(** Emit a [Complete] slice covering [since] to the machine's current
    simulated time — an interval whose start the caller already holds
    (an IPC call's entry, an fbuf's allocation, a PDU's send). No-op
    without a trace (guard arg construction with {!tracing}). *)

val now : t -> float

val busy_us : t -> float
(** Accumulated CPU (non-idle) simulated time. *)

val fresh_asid : t -> int
val fresh_id : t -> int

val checkpoint : t -> float * float
(** [(now, busy)] snapshot, for differential load measurement with
    {!load_since}. *)

val load_since : t -> float * float -> float
(** CPU load between a {!checkpoint} and now, in [0, 1]. *)

val domain_crossing_tlb_pressure : ?entries:int -> t -> unit
(** Displace [entries] (default [ipc_tlb_footprint]) TLB entries with
    kernel-path translations, modelling the cache/TLB pollution of one IPC
    crossing. Costless in time (the control-transfer latency is charged
    separately by the IPC layer); its effect is the refill work later
    accesses must redo. *)
