(** Deferred-shootdown barrier.

    The VM layer queues shootdowns of translations that cannot be used
    unsafely in the meantime (see {!Pmap.remove}); this module drains the
    queue at the simulator's existing sequence points — IPC domain
    crossings, {!Fbufs.Transfer.secure}, fault handling, and pageout
    victim selection. *)

val drain : Fbufs_sim.Machine.t -> unit
(** Invalidate every queued entry and charge one batched barrier
    ([tlb_shootdown_batch_base] + n * [tlb_shootdown_batch_entry], in the
    [Tlb_flush] component); charges nothing when the queue is empty.
    Counts one ["tlb.shootdown_batch"] per drain and one
    ["tlb.shootdown_batch_entry"] per invalidated entry in [Stats]. *)
