(** Span-tree exporters: Chrome trace_event (with flow events for
    follows-from edges) and JSONL with a round-trip parser. *)

val chrome_events :
  Fbufs_trace.Chrome.lanes -> Span.t -> Fbufs_trace.Json.t list
(** Chrome [trace_event] events on the given lanes: spans as ["X"]
    complete events with [cat = "span"] (component charges in [args]),
    follows-from edges as flow-event pairs (["s"]/["f"] with
    [bp = "e"]). *)

val chrome : Span.t -> Fbufs_trace.Json.t
(** {!chrome_events} alone in a {!Fbufs_trace.Chrome.document}.
    Loadable in about:tracing / Perfetto. *)

val jsonl : Span.t -> string
(** One JSON object per line: each transfer line followed by its span
    lines, in creation order. Open spans serialize [end_us] as [null]. *)

val jsonl_of_transfers : Span.transfer list -> string
(** {!jsonl} over an explicit transfer list (e.g. the flight recorder's
    sampled root ring); output round-trips through {!parse_jsonl}. *)

val write_jsonl : string -> Span.t -> unit

exception Parse_error of string

val parse_jsonl : string -> Span.transfer list
(** Inverse of {!jsonl}: rebuilds the transfers with their spans
    attached (recording order restored by {!Span.spans_of}). Raises
    {!Parse_error} on malformed input, unknown record types, or spans
    referencing unknown transfers. *)
