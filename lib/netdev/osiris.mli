(** Simulated Osiris ATM network adapter on the TurboChannel.

    Models the hardware path of the paper's end-to-end experiments:

    - PDUs are segmented into 53-byte ATM cells (48-byte payload); the
      adapter initiates one DMA transfer per cell, so throughput is capped
      by DMA start-up latency (367 Mb/s) below the 516 Mb/s net link rate,
      and bus contention from concurrent CPU/memory traffic lowers the
      attainable rate further (285 Mb/s) — all three caps emerge from
      {!Fbufs_sim.Cost_model.cell_time}.
    - On receive, the adapter reassembles cells directly into an fbuf
      chosen by VCI: each of up to 16 recently used data paths has a queue
      of preallocated *cached* fbufs; traffic on unknown VCIs lands in
      *uncached* fbufs from the default allocator.
    - DMA moves bytes without charging CPU time; the driver pays interrupt
      and per-PDU processing costs.

    Two adapters joined by {!connect} form the null-modem configuration. *)

type t

val create :
  m:Fbufs_sim.Machine.t ->
  des:Fbufs_sim.Des.t ->
  region:Fbufs.Region.t ->
  kernel:Fbufs_vm.Pd.t ->
  ?hw_demux:bool ->
  unit ->
  t
(** [hw_demux] (default true) models the Osiris capability the paper calls
    out in section 5.2: the adapter interprets the VCI *before* the
    transfer into main memory, so each PDU is reassembled directly into
    the right per-path fbuf. With [hw_demux:false] the adapter behaves
    like a classical Ethernet device: it can only DMA into a fixed driver
    pool, and the driver must copy the PDU into the chosen fbuf after
    demultiplexing in software — "the use of cached fbufs requires a
    demultiplexing capability in the network adapter". *)

val connect : t -> t -> unit
(** Null modem: cross-wire the two adapters (both directions). *)

val machine : t -> Fbufs_sim.Machine.t

val max_cached_paths : int
(** 16, as in the paper's driver: "queues of preallocated cached fbufs for
    the 16 most recently used data paths". *)

val register_path : t -> vci:int -> domains:Fbufs_vm.Pd.t list -> unit
(** Install a queue of cached fbufs for incoming traffic on [vci], bound to
    the I/O data path [domains] (kernel first). When all
    {!max_cached_paths} slots are taken, the least recently used path is
    evicted (its allocator torn down; its future traffic falls back to
    uncached buffers until re-registered). Raises [Invalid_argument] unless
    [domains] starts with the kernel (incoming paths originate there). *)

val evictions : t -> int
(** How many cached paths have been evicted by LRU replacement. *)

val set_rx_handler : t -> (vci:int -> Fbufs_msg.Msg.t -> unit) -> unit
(** Driver upcall invoked (with interrupt and driver costs charged) when a
    PDU has been reassembled into an fbuf. The handler's domain owns the
    fbuf (kernel-originated). *)

val send_pdu : t -> vci:int -> Fbufs_msg.Msg.t -> unit
(** Transmit a PDU: charges driver processing, then schedules cell
    transmission on the shared link; the caller's CPU is not blocked while
    DMA runs. The message's buffers are not freed (the caller owns them).
    The PDU's bytes are captured when the call returns, so the caller may
    reuse, overwrite or free its buffers at once; the adapter holds the
    copy in a staging buffer recycled through its own pool, so a
    steady-state send allocates no host memory per PDU.
    Raises [Invalid_argument] if the adapter is not connected to a peer. *)

val set_loss_rate : t -> float -> unit
(** Probability in [0, 1] that a transmitted PDU is lost on the wire (an
    ATM cell loss destroys the whole AAL5 frame). Deterministic per machine
    seed. Default 0. Raises [Invalid_argument] outside [0, 1]. *)

val pdus_dropped : t -> int

val cells_sent : t -> int
val pdus_received : t -> int

val software_demux_copies : t -> int
(** PDUs that paid the fixed-pool copy (always 0 with hardware demux). *)

val uncached_rx_pdus : t -> int
(** PDUs that arrived on unregistered VCIs (uncached fbufs). *)

val rx_allocator : t -> vci:int -> Fbufs.Allocator.t option
