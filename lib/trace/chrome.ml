(* One lane table per export. A machine's lanes are created on first
   use, and each new lane queues its metadata event (newest first), so
   the table and its [process_name]/[thread_name] events cannot
   disagree. *)

type proc = { pid : int; domains : (string, int) Hashtbl.t }

type lanes = { procs : (string, proc) Hashtbl.t; mutable meta : Json.t list }

let lanes () = { procs = Hashtbl.create 4; meta = [] }

let metadata what ids name =
  Json.Obj
    ((("name", Json.String what) :: ("ph", Json.String "M") :: ids)
    @ [ ("args", Json.Obj [ ("name", Json.String name) ]) ])

let process_name pid machine =
  metadata "process_name" [ ("pid", Json.Int pid) ] machine

let thread_name pid tid name =
  metadata "thread_name" [ ("pid", Json.Int pid); ("tid", Json.Int tid) ] name

let proc l machine =
  match Hashtbl.find_opt l.procs machine with
  | Some p -> p
  | None ->
      let pid = 1 + Hashtbl.length l.procs in
      let p = { pid; domains = Hashtbl.create 8 } in
      Hashtbl.add l.procs machine p;
      l.meta <-
        thread_name pid 1 "machine" :: process_name pid machine :: l.meta;
      p

let lane l ~machine ~domain =
  let p = proc l machine in
  if domain = "" then (p.pid, 1)
  else
    match Hashtbl.find_opt p.domains domain with
    | Some tid -> (p.pid, tid)
    | None ->
        let tid = 2 + Hashtbl.length p.domains in
        Hashtbl.add p.domains domain tid;
        l.meta <- thread_name p.pid tid domain :: l.meta;
        (p.pid, tid)

let arg_json = function
  | Trace.Str s -> Json.String s
  | Trace.Int i -> Json.Int i
  | Trace.Float f -> Json.Float f

let args_json (ev : Trace.event) =
  let base = List.map (fun (k, v) -> (k, arg_json v)) ev.Trace.args in
  if ev.Trace.path_id >= 0 then ("path", Json.Int ev.Trace.path_id) :: base
  else base

let phase_name = function Trace.Instant -> "i" | Trace.Complete _ -> "X"

let event_json l (ev : Trace.event) =
  let pid, tid = lane l ~machine:ev.Trace.machine ~domain:ev.Trace.domain in
  let shape =
    match ev.Trace.phase with
    | Trace.Instant -> ("s", Json.String "t")
    | Trace.Complete dur -> ("dur", Json.Float dur)
  in
  let fields =
    [
      ("name", Json.String ev.Trace.kind);
      ("ph", Json.String (phase_name ev.Trace.phase));
      ("ts", Json.Float ev.Trace.ts_us);
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      shape;
    ]
  in
  match args_json ev with
  | [] -> Json.Obj fields
  | a -> Json.Obj (fields @ [ ("args", Json.Obj a) ])

let trace_events l t = List.map (event_json l) (Trace.events t)

let document l ~dropped events =
  Json.Obj
    [
      ("traceEvents", Json.List (events @ List.rev l.meta));
      ("displayTimeUnit", Json.String "ms");
      ("otherData", Json.Obj [ ("dropped", Json.Int dropped) ]);
    ]

let to_string t =
  let l = lanes () in
  Json.to_string (document l ~dropped:(Trace.dropped t) (trace_events l t))

let write path doc =
  let buf = Buffer.create 65536 in
  Json.to_buffer buf doc;
  Buffer.add_char buf '\n';
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc buf)

let jsonl_event (ev : Trace.event) =
  let fields =
    [
      ("ts", Json.Float ev.Trace.ts_us);
      ("machine", Json.String ev.Trace.machine);
      ("domain", Json.String ev.Trace.domain);
      ("path", Json.Int ev.Trace.path_id);
      ("kind", Json.String ev.Trace.kind);
      ("ph", Json.String (phase_name ev.Trace.phase));
    ]
  in
  let fields =
    match ev.Trace.phase with
    | Trace.Complete dur -> fields @ [ ("dur", Json.Float dur) ]
    | _ -> fields
  in
  let fields =
    match ev.Trace.args with
    | [] -> fields
    | args ->
        fields
        @ [ ("args", Json.Obj (List.map (fun (k, v) -> (k, arg_json v)) args)) ]
  in
  Json.Obj fields

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun ev ->
          output_string oc (Json.to_string (jsonl_event ev));
          output_char oc '\n')
        (Trace.events t))
