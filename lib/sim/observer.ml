(* What watches a machine — trace, ledger and registry, causal spans,
   monitors, periodic reports, the flight recorder — is one [t], a record
   of callbacks the machine feeds, built per machine by a telemetry
   library's [Machine.probe]. An unobserved machine carries [nop]: one
   pointer comparison per entry point, no allocation. Observers never
   charge, draw randomness or advance a clock, so they cannot change a
   run. (Types and combinators only, so no separate interface.) *)

(* An argument of a trace event (the trace library re-exports it). *)
type arg = Str of string | Int of int | Float of float

(* A causal-span request, answered by the span sink with an id (0 for
   none); see [Machine.transfer_begin] and the functions after it. *)
type span_op =
  | Transfer_begin of
      { domain : string option; path_id : int option; label : string }
  | Transfer_end of int
  | Enter of { domain : string option; path_id : int option; kind : string }
  | Exit of int
  | Adopt of { transfer : int; follows : int option;
                domain : string option; path_id : int option; kind : string }
  | Flight of { transfer : int; follows : int; start_us : float;
                end_us : float; path_id : int option; kind : string }
  | Current

(* How an observer records causal spans: not at all, a sample of them
   (it may drop transfers), or every one. *)
type spans = Unrecorded | Lossy | Complete

(* The concrete telemetry object behind an observer, extended by each
   telemetry library, for the sites that need the object itself (the
   registry families, the exporters) rather than the event stream. *)
type sink = ..

type t = {
  sinks : sink list;  (* concrete objects behind the callbacks *)
  traced : bool;  (* consumes [Machine.trace_instant]/[trace_complete] *)
  spans : spans;
  charge : string option -> Component.t option -> float -> unit;
      (* a [Machine.charge]: its kind, its component (the [with_comp]
         context first) and microseconds, before the clock moves *)
  tick : unit -> unit;  (* after every [charge] and [elapse_to] *)
  instant :
    string option -> int option -> (string * arg) list option -> string -> unit;
      (* domain, path id, args and kind of a [trace_instant] *)
  slice :
    float -> string option -> int option -> (string * arg) list option ->
    string -> unit;
      (* [since] and the rest of a [trace_complete] *)
  seq_point : string -> unit;
  span : int -> span_op -> int;
      (* answers a span request; a non-zero first argument is the id
         another span sink of the machine already issued for it, to be
         recorded under (see [both]) *)
}

let nop =
  {
    sinks = [];
    traced = false;
    spans = Unrecorded;
    charge = (fun _ _ _ -> ());
    tick = ignore;
    instant = (fun _ _ _ _ -> ());
    slice = (fun _ _ _ _ _ -> ());
    seq_point = ignore;
    span = (fun _ _ -> 0);
  }

let rank = function Unrecorded -> 0 | Lossy -> 1 | Complete -> 2

(* Two observers of one machine as one: every event reaches both, [a]
   first. Each callback keeps the side that is not a no-op, so an event
   one side ignores costs it nothing. Span ids are the one thing that
   cannot be broadcast, because the call site keeps a single id: the more
   complete record issues it (the first on a tie) and the other records
   under the same id, so every span sink of a machine agrees on every id
   and a complete record never misses a span a lossy one skipped. *)
let both a b =
  let pick none f g f_and_g =
    if f == none then g else if g == none then f else f_and_g
  in
  let lead, follow = if rank b.spans > rank a.spans then (b, a) else (a, b) in
  if a == nop then b
  else if b == nop then a
  else
    {
      sinks = a.sinks @ b.sinks;
      traced = a.traced || b.traced;
      spans = lead.spans;
      charge =
        pick nop.charge a.charge b.charge (fun k c us ->
            a.charge k c us;
            b.charge k c us);
      tick = pick nop.tick a.tick b.tick (fun () -> a.tick (); b.tick ());
      instant =
        pick nop.instant a.instant b.instant (fun d p args k ->
            a.instant d p args k;
            b.instant d p args k);
      slice =
        pick nop.slice a.slice b.slice (fun since d p args k ->
            a.slice since d p args k;
            b.slice since d p args k);
      seq_point =
        pick nop.seq_point a.seq_point b.seq_point (fun site ->
            a.seq_point site;
            b.seq_point site);
      span =
        (if follow.spans == Unrecorded then lead.span
         else fun issued op ->
           let id = lead.span issued op in
           (match op with
           | Current -> ()
           | Transfer_end _ | Exit _ -> ignore (follow.span issued op)
           | _ -> if id <> 0 then ignore (follow.span id op));
           id);
    }
