type arg = Fbufs_sim.Observer.arg = Str of string | Int of int | Float of float

type phase = Instant | Complete of float

type event = {
  ts_us : float;
  machine : string;
  domain : string;
  path_id : int;
  kind : string;
  phase : phase;
  args : (string * arg) list;
}

(* Ring-mode storage is struct-of-arrays rather than an array of event
   records: an always-armed flight recorder keeps its window live across
   every minor GC, and a window of boxed records turns each collection
   into a promotion of the whole window. Columns of unboxed floats and
   ints hold no minor-heap pointers at all, and the string columns almost
   always point at shared literals (kinds) or interned machine names, so
   the retained window costs the GC nothing. The common single
   [("comp", Str _)] argument is split into its own string column; only
   the rare richer argument lists are retained boxed. *)
type cols = {
  c_ts : float array;
  c_dur : float array; (* Complete duration; 0.0 for instants *)
  c_machine : string array;
  c_domain : string array;
  c_kind : string array;
  c_path : int array;
  c_phase : int array;
  c_comp : string array; (* "" = no comp arg *)
  c_extra : (string * arg) list array; (* args other than a lone comp *)
}

type sampler = {
  skip : float array;
      (* weight budget until the next acceptance; decremented inline
         per event (unboxed float-array cell, so the common case is a
         subtract and a compare with no call and no allocation) *)
  accept : event -> float -> float; (* event -> weight -> next budget *)
}

type t = {
  mutable buf : event array; (* non-ring storage; [||] in ring mode *)
  cols : cols option; (* ring storage; None otherwise *)
  mutable len : int;
  capacity : int option;
  ring : bool;
  latency : bool; (* maintain per-(kind, path) latency sketches *)
  mutable start : int; (* index of the oldest retained event (ring mode) *)
  mutable dropped : int;
  mutable sampler : sampler option;
  last : float array; (* newest timestamp seen; float array so the
                         per-event update is an unboxed store *)
  lat : (string * int, Sketch.t) Hashtbl.t;
}

let phase_code = function Instant -> 0 | Complete _ -> 1

let make_cols c =
  {
    c_ts = Array.make c 0.0;
    c_dur = Array.make c 0.0;
    c_machine = Array.make c "";
    c_domain = Array.make c "";
    c_kind = Array.make c "";
    c_path = Array.make c 0;
    c_phase = Array.make c 0;
    c_comp = Array.make c "";
    c_extra = Array.make c [];
  }

let set_cols c i ev =
  c.c_ts.(i) <- ev.ts_us;
  c.c_dur.(i) <- (match ev.phase with Complete d -> d | _ -> 0.0);
  c.c_machine.(i) <- ev.machine;
  c.c_domain.(i) <- ev.domain;
  c.c_kind.(i) <- ev.kind;
  c.c_path.(i) <- ev.path_id;
  c.c_phase.(i) <- phase_code ev.phase;
  match ev.args with
  | [] ->
      c.c_comp.(i) <- "";
      if c.c_extra.(i) != [] then c.c_extra.(i) <- []
  | [ (k, Str comp) ] when String.equal k "comp" ->
      c.c_comp.(i) <- comp;
      if c.c_extra.(i) != [] then c.c_extra.(i) <- []
  | args ->
      c.c_comp.(i) <- "";
      c.c_extra.(i) <- args

let event_of_cols c i =
  let phase = if c.c_phase.(i) = 0 then Instant else Complete c.c_dur.(i) in
  let args =
    match c.c_extra.(i) with
    | [] -> if c.c_comp.(i) = "" then [] else [ ("comp", Str c.c_comp.(i)) ]
    | l -> l
  in
  {
    ts_us = c.c_ts.(i);
    machine = c.c_machine.(i);
    domain = c.c_domain.(i);
    path_id = c.c_path.(i);
    kind = c.c_kind.(i);
    phase;
    args;
  }

let dummy_event =
  {
    ts_us = 0.0;
    machine = "";
    domain = "";
    path_id = -1;
    kind = "";
    phase = Instant;
    args = [];
  }

let create ?(ring = false) ?(latency = true) ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Trace.create: capacity must be positive"
  | None when ring -> invalid_arg "Trace.create: ring requires a capacity"
  | _ -> ());
  {
    buf = (if ring then [||] else Array.make 1024 dummy_event);
    cols = (match capacity with Some c when ring -> Some (make_cols c) | _ -> None);
    len = 0;
    capacity;
    ring;
    latency;
    start = 0;
    dropped = 0;
    sampler = None;
    last = [| 0.0 |];
    lat = Hashtbl.create 64;
  }

let set_sampler t s = t.sampler <- s
let last_ts t = t.last.(0)

let clear t =
  (match t.cols with
  | Some c ->
      (* Drop retained references so cleared rings hold no old strings. *)
      Array.fill c.c_machine 0 (Array.length c.c_machine) "";
      Array.fill c.c_domain 0 (Array.length c.c_domain) "";
      Array.fill c.c_kind 0 (Array.length c.c_kind) "";
      Array.fill c.c_comp 0 (Array.length c.c_comp) "";
      Array.fill c.c_extra 0 (Array.length c.c_extra) []
  | None -> ());
  t.last.(0) <- 0.0;
  t.len <- 0;
  t.start <- 0;
  t.dropped <- 0;
  Hashtbl.reset t.lat

let event_count t = t.len
let dropped t = t.dropped

let events t =
  match t.cols with
  | None -> Array.to_list (Array.sub t.buf 0 t.len)
  | Some c ->
      let cap = Array.length c.c_ts in
      List.init t.len (fun i -> event_of_cols c ((t.start + i) mod cap))

(* Claim the slot the next ring event lands in, advancing the window.
   [start < cap] and [len <= cap], so a compare-and-subtract replaces
   the integer division a [mod] would cost on every event. *)
let ring_slot t cap =
  if t.len < cap then begin
    let i = t.start + t.len in
    let i = if i >= cap then i - cap else i in
    t.len <- t.len + 1;
    i
  end
  else begin
    (* full: overwrite the oldest event, counting it as dropped *)
    let i = t.start in
    let s = i + 1 in
    t.start <- (if s >= cap then 0 else s);
    t.dropped <- t.dropped + 1;
    i
  end

let push t ev =
  (match t.sampler with
  | Some s ->
      let w = match ev.phase with Complete d -> Float.max d 1e-9 | _ -> 1.0 in
      let sk = s.skip.(0) -. w in
      if sk <= 0.0 then s.skip.(0) <- s.accept ev w else s.skip.(0) <- sk
  | None -> ());
  if ev.ts_us > t.last.(0) then t.last.(0) <- ev.ts_us;
  match t.cols with
  | Some c ->
      let i = ring_slot t (Array.length c.c_ts) in
      set_cols c i ev
  | None -> (
      match t.capacity with
      | Some c when t.len >= c -> t.dropped <- t.dropped + 1
      | _ ->
          if t.len = Array.length t.buf then begin
            let bigger = Array.make (2 * t.len) dummy_event in
            Array.blit t.buf 0 bigger 0 t.len;
            t.buf <- bigger
          end;
          t.buf.(t.len) <- ev;
          t.len <- t.len + 1)

let record_latency_on t ~kind ~path_id dur =
  let key = (kind, path_id) in
  let sk =
    match Hashtbl.find_opt t.lat key with
    | Some sk -> sk
    | None ->
        let sk = Sketch.create () in
        Hashtbl.add t.lat key sk;
        sk
  in
  Sketch.add sk dur

let record_latency t ~kind ~path_id dur =
  if t.latency then record_latency_on t ~kind ~path_id dur

let instant t ~ts_us ~machine ?(domain = "") ?(path_id = -1) ?(args = []) kind
    =
  push t { ts_us; machine; domain; path_id; kind; phase = Instant; args }

let complete t ~ts_us ~dur_us ~machine ?(domain = "") ?(path_id = -1)
    ?(args = []) kind =
  push t
    { ts_us; machine; domain; path_id; kind; phase = Complete dur_us; args };
  record_latency t ~kind ~path_id dur_us

(* The per-charge slice is by far the hottest emission site (tens of
   thousands per run), so it gets a record-free entry point: in ring
   mode the fields go straight into the columns and an event record is
   only materialized when the sampler accepts one. Without a ring this
   is the ordinary [complete] with an identical args list, so dumps are
   byte-identical either way. [comp = ""] means no component tag. *)
let complete_comp t ~ts_us ~dur_us ~machine ~comp kind =
  match t.cols with
  | Some c ->
      if ts_us > t.last.(0) then t.last.(0) <- ts_us;
      let i = ring_slot t (Array.length c.c_ts) in
      c.c_ts.(i) <- ts_us;
      c.c_dur.(i) <- dur_us;
      if c.c_machine.(i) != machine then c.c_machine.(i) <- machine;
      if String.length c.c_domain.(i) <> 0 then c.c_domain.(i) <- "";
      if c.c_kind.(i) != kind then c.c_kind.(i) <- kind;
      c.c_path.(i) <- -1;
      c.c_phase.(i) <- 1 (* Complete *);
      if c.c_comp.(i) != comp then c.c_comp.(i) <- comp;
      if c.c_extra.(i) != [] then c.c_extra.(i) <- [];
      (match t.sampler with
      | Some s ->
          let w = Float.max dur_us 1e-9 in
          let sk = s.skip.(0) -. w in
          if sk <= 0.0 then s.skip.(0) <- s.accept (event_of_cols c i) w
          else s.skip.(0) <- sk
      | None -> ());
      record_latency t ~kind ~path_id:(-1) dur_us
  | None ->
      let args =
        if String.length comp = 0 then [] else [ ("comp", Str comp) ]
      in
      complete t ~ts_us ~dur_us ~machine ~args kind

let summary t =
  Hashtbl.fold (fun k sk acc -> (k, sk) :: acc) t.lat []
  |> List.sort (fun ((ka, pa), _) ((kb, pb), _) ->
         match String.compare ka kb with 0 -> compare pa pb | c -> c)

(* The trace's observer of one machine: a slice per charge with a kind,
   and the instants and slices the instrumentation emits, each stamped
   with the machine's clock. *)
let probe t (m : Fbufs_sim.Machine.t) =
  let module M = Fbufs_sim.Machine in
  let machine = m.M.name in
  {
    Fbufs_sim.Observer.nop with
    traced = true;
    charge =
      (fun kind comp us ->
        match kind with
        | None -> ()
        | Some k ->
            (* [Component.label] returns a literal, so the ring fast path
               stores no young pointer. *)
            let comp = Option.fold ~none:"" ~some:Fbufs_sim.Component.label comp in
            complete_comp t ~ts_us:(M.now m) ~dur_us:us ~machine ~comp k);
    instant =
      (fun domain path_id args kind ->
        instant t ~ts_us:(M.now m) ~machine ?domain ?path_id ?args kind);
    slice =
      (fun since domain path_id args kind ->
        complete t ~ts_us:since ~dur_us:(M.now m -. since) ~machine ?domain
          ?path_id ?args kind);
  }
