(** Header construction over immutable buffers.

    A protocol never modifies the message it is handed; it allocates a
    fresh (usually cached) fbuf from its own per-path allocator, writes the
    header there and logically concatenates it — the same buffer editing
    that joins PDUs into ADUs. *)

val prepend :
  alloc:Fbufs.Allocator.t ->
  as_:Fbufs_vm.Pd.t ->
  bytes ->
  Fbufs_msg.Msg.t ->
  Fbufs.Fbuf.t * Fbufs_msg.Msg.t
(** Allocate a one-page fbuf, write the header bytes, and join it in front
    of the message. Returns the header fbuf (so the protocol can release
    its own allocation reference with {!release_header} once the PDU has
    been consumed downstream) alongside the new message. *)

val release_header : dom:Fbufs_vm.Pd.t -> Fbufs.Fbuf.t -> unit
(** Drop [dom]'s reference on a header fbuf if one is still held: after a
    synchronous push returns, the receive side may already have stripped
    and freed a same-domain header (local loopback), so the release is
    reference-count guarded. *)

val peek : Fbufs_msg.Msg.t -> as_:Fbufs_vm.Pd.t -> len:int -> bytes
(** Read the first [len] bytes (the header) without consuming them. Raises
    [Invalid_argument] if the message is shorter. *)

val strip :
  Fbufs_msg.Msg.t ->
  as_:Fbufs_vm.Pd.t ->
  stats:Fbufs_sim.Stats.t ->
  proto:string ->
  size:int ->
  magic:int ->
  len_at:int ->
  (bytes * Fbufs_msg.Msg.t) option
(** Validate a received PDU's [size]-byte header: its first two bytes
    must be [magic], and the payload length, the 32-bit field at byte
    [len_at], must fit in the bytes present. Returns the header bytes and
    the payload (the bytes after the header, cut to that length). A
    malformed PDU is a counted drop, never an exception: [None], with
    ["<proto>.short_pdu"], ["<proto>.bad_header"] or
    ["<proto>.bad_length"] incremented in [stats]. *)

val free_stripped :
  dom:Fbufs_vm.Pd.t -> pdu:Fbufs_msg.Msg.t -> payload:Fbufs_msg.Msg.t -> unit
(** After a protocol clips its header off a PDU, release this domain's
    references on buffers that belonged only to the header (locally
    allocated header fbufs). Buffers shared with the payload — e.g. a
    received PDU whose header and data live in one fbuf — are untouched. *)

(* Big-endian field codecs over a header byte buffer. *)

val get_u16 : bytes -> int -> int
val set_u16 : bytes -> int -> int -> unit
val get_u32 : bytes -> int -> int
val set_u32 : bytes -> int -> int -> unit
