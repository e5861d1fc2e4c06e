(** Exporters: Chrome [trace_event] JSON and line-oriented JSONL.

    The Chrome format loads directly in [chrome://tracing] and Perfetto.
    Simulated microseconds map one-to-one onto the format's native [ts]
    unit, so the timeline reads in real simulated time. Each simulated
    machine becomes a process (pid), each protection domain a thread (tid)
    within it; machine-level events (cost charges, interrupts) land on a
    dedicated tid 1 lane per machine.

    This module is the one owner of that mapping. Other event sources
    (the causal span trees of [Fbufs_span.Span_export]) place their
    events on the same {!lanes}, so one {!document} holds trace events,
    spans and flow arrows on one timeline with one pid per machine. *)

type lanes
(** The pid/tid lane table of one export, with the [process_name] /
    [thread_name] metadata of every lane it has handed out. *)

val lanes : unit -> lanes

val lane : lanes -> machine:string -> domain:string -> int * int
(** [(pid, tid)] for a domain of a machine, assigned on first use:
    machines get pids [1..] in order of first appearance; within a
    machine, [domain = ""] is the machine lane (tid 1) and named domains
    get tids [2..] in order of first appearance. *)

val trace_events : lanes -> Trace.t -> Json.t list
(** The trace's buffered events as ["i"] instants and ["X"] complete
    slices, placed on [lanes]. *)

val document : lanes -> dropped:int -> Json.t list -> Json.t
(** [{"traceEvents": [...], ...}]: the given events followed by one
    [process_name] event per pid and one [thread_name] event per lane
    (tid 1 is named ["machine"]); [dropped] is reported under
    [otherData]. *)

val to_string : Trace.t -> string
(** {!document} of the trace's events alone, serialized. *)

val write : string -> Json.t -> unit
(** [write path doc] writes a document to [path]. Raises [Sys_error]. *)

val write_jsonl : Trace.t -> string -> unit
(** One raw event per line:
    [{"ts":..,"machine":..,"domain":..,"path":..,"kind":..,"ph":..,...}].
    Suited to grep/jq-style processing rather than timeline viewers. *)

val jsonl_event : Trace.event -> Json.t
(** The per-line JSON object used by {!write_jsonl}, for callers that
    dump event subsets of their own (e.g. the flight recorder's sampled
    reservoir) in the same format. *)
