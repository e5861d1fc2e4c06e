(** Critical-path extraction and reporting over recorded span trees.

    For each transfer the extractor walks backwards from the last-ending
    span, at each step picking the predecessor that explains the current
    span's start time: the follows-from edge when it resolves within the
    transfer, otherwise the latest-ending span that finished before the
    current one started, otherwise the parent. Spans off the resulting
    chain carry slack — how much later each could have finished without
    pushing the next on-path start (or the transfer finish). *)

type summary = {
  tr : Span.transfer;
  start_us : float;
  finish_us : float;  (** max end over the transfer's closed spans *)
  wall_us : float;
  path : Span.span list;  (** critical path, root first *)
  off : (Span.span * float) list;  (** off-path spans with slack (us) *)
  on_ns : int array;  (** per-component charges of on-path spans *)
  off_ns : int array;  (** per-component charges of off-path spans;
                           [on_ns.(i) + off_ns.(i) = cells_ns.(i)] exactly *)
}

val analyze : Span.t -> Span.transfer -> summary

val print_summary : Format.formatter -> Span.t -> summary -> unit
(** One transfer: critical path with per-span timings and dominant
    component, off-path slack, and the component table whose on-path +
    off-path columns sum exactly to the transfer's ledger charge. *)

val print_report : Format.formatter -> ?top:int -> Span.t -> unit
(** Whole sink: per-transfer summaries (first [top] transfers when
    given), an aggregate wall-time quantile line backed by
    {!Fbufs_trace.Sketch}, and any {!Span.check} violations. *)
