(** A simulated host: clock, cost model, physical memory, TLB, statistics.

    Every other subsystem (VM, fbufs, IPC, protocols, drivers) operates on a
    [Machine.t] and accounts simulated time through {!charge} (CPU work) or
    {!elapse} (idle waiting, e.g. for the network), which keeps CPU-load
    accounting honest for the paper's section-4 load measurements. *)

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
  mutable trace : Fbufs_trace.Trace.t option;
  mutable metrics : Fbufs_metrics.Metrics.t option;
  mutable spans : Fbufs_span.Span.t option;
  mutable comp_ctx : Fbufs_metrics.Component.t option;
  mutable seq_hook : (t -> string -> unit) option;
  mutable on_tick : (float -> unit) option;
}

val default_trace : Fbufs_trace.Trace.t option ref
(** Sink installed on machines subsequently built by {!create} when no
    explicit [?trace] is given. Lets a harness observe machines it does
    not construct itself (the experiment drivers build their own
    testbeds); [None] — the default — disables tracing everywhere. *)

val default_metrics : Fbufs_metrics.Metrics.t option ref
(** Same install pattern as {!default_trace}, for the metrics registry
    and cost-attribution ledger. A machine created while it is set is
    metered: {!create} hands the instance a reader of the machine's
    {!Stats} table, which the exposition renders as
    [fbufs_events_total]. [None] (the default) means machines are
    unmetered and the instrumented paths do no registry work at all. *)

val default_spans : Fbufs_span.Span.t option ref
(** Same install pattern, for the causal span sink. [None] (the default)
    disables span recording: every [transfer_begin]/[span_enter] returns
    0 immediately and {!charge} does one pointer comparison. *)

val default_seq_hook : (t -> string -> unit) option ref
(** Same install pattern, for the {!seq_point} callback the online
    invariant monitors hang off. [None] (the default) makes every
    sequence point one pointer comparison. *)

val default_tick : (float -> unit) option ref
(** Same install pattern, for the clock-advance callback (called with
    the new simulated time after every {!charge} and {!elapse_to}) that
    drives periodic snapshot reports on the simulated timeline. *)

val create :
  ?name:string ->
  ?cost:Cost_model.t ->
  ?nframes:int ->
  ?tlb_entries:int ->
  ?seed:int ->
  unit ->
  t
(** Defaults: DecStation 5000/200 cost model, 4096 frames (16 MB), 64 TLB
    entries, seed 42. The sinks are taken from {!default_trace},
    {!default_metrics}, {!default_spans}, {!default_seq_hook} and
    {!default_tick}. *)

val set_trace : t -> Fbufs_trace.Trace.t option -> unit

val tracing : t -> bool
(** Whether a sink is attached. Instrumentation sites that build argument
    lists must test this first so a disabled trace costs one pointer
    comparison and no allocation. *)

val metrics : t -> Fbufs_metrics.Metrics.t option
(** The attached metrics instance, if the machine is metered. Event
    counts go to {!Stats} on every machine; only the registry families
    (per-path allocator counters and gauges, policy, monitors, the PDU
    size sketch) match on this, so an unmetered machine pays one
    pointer comparison there. *)

val set_spans : t -> Fbufs_span.Span.t option -> unit

val spanning : t -> bool
(** Whether a causal span sink is attached — the counterpart of
    {!tracing} for the span instrumentation. *)

val spans : t -> Fbufs_span.Span.t option

val seq_point : t -> string -> unit
(** Declare a sequence point — a site (named like ["ipc.reply"],
    ["transfer.secure"], ["pageout.balance"]) where the system's
    invariants are expected to hold. Dispatches to the installed hook;
    with none installed (the default) the cost is one pointer
    comparison, preserving pay-for-play. *)

val with_comp : t -> Fbufs_metrics.Component.t -> (unit -> 'a) -> 'a
(** Run [f] with every {!charge} attributed to the given component,
    overriding the call sites' own tags — used where a whole activity
    (e.g. aggregate-object deserialization) belongs to one Table 1 row
    even though it exercises allocator and VM charge sites. Restores the
    previous context on exit, exceptions included. *)

val charge : ?kind:string -> ?comp:Fbufs_metrics.Component.t -> t -> float -> unit
(** Consume [us] microseconds of CPU time: advances the clock and the busy
    accumulator. With [?kind] and a trace attached, additionally emits a
    [Complete] slice of that duration — this is how every individual cost
    in the model becomes visible on the timeline. With a metrics instance
    attached, the charge also lands in the cost ledger under [?comp]
    (or the surrounding {!with_comp} context; [Other] if neither).
    Tracing and metering never alter the charge itself. *)

val charge_n :
  ?kind:string -> ?comp:Fbufs_metrics.Component.t -> t -> int -> float -> unit
(** [charge_n m n us] charges [n] repetitions of a per-item cost. *)

val elapse_to : ?kind:string -> t -> float -> unit
(** Wait (idle) until an absolute simulated time; no busy time accrues.
    With [?kind], the idle interval is emitted as a [Complete] slice. *)

(** {1 Causal spans}

    Wrappers over {!Fbufs_span.Span} stamped with this machine's clock
    and name. With no sink attached every call is a pointer comparison;
    begin/enter return 0 and end/exit ignore 0, so call sites need no
    guards. Every {!charge} made while a span is open on the machine is
    attributed to it (innermost wins) under its Table 1 component. *)

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
    {!Fbufs_span.Span.wire} pseudo-machine. *)

val current_transfer : t -> int
(** The machine's current transfer context (0 when none or disabled) —
    what {!Fbufs.Allocator.alloc} stamps into new fbufs. *)

val trace_instant :
  t ->
  ?domain:string ->
  ?path_id:int ->
  ?args:(string * Fbufs_trace.Trace.arg) list ->
  string ->
  unit
(** Emit an instant event stamped with the machine's current simulated
    time. No-op without a sink (guard arg construction with {!tracing}). *)

val trace_complete :
  t ->
  since:float ->
  ?domain:string ->
  ?path_id:int ->
  ?args:(string * Fbufs_trace.Trace.arg) list ->
  string ->
  unit
(** Emit a [Complete] slice covering [since] to the machine's current
    simulated time — an interval whose start the caller already holds
    (an IPC call's entry, an fbuf's allocation, a PDU's send). No-op
    without a sink (guard arg construction with {!tracing}). *)

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
