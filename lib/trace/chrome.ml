(* pid/tid assignment: machines get pids 1.. in order of first appearance;
   (machine, domain) pairs get tids within their machine, with tid 1
   reserved for the machine-level lane (domain = ""). *)

type ids = {
  pids : (string, int) Hashtbl.t;
  tids : (string * string, int) Hashtbl.t;
  next_tid : (string, int) Hashtbl.t;
}

let assign ids (ev : Trace.event) =
  let pid =
    match Hashtbl.find_opt ids.pids ev.Trace.machine with
    | Some p -> p
    | None ->
        let p = 1 + Hashtbl.length ids.pids in
        Hashtbl.add ids.pids ev.Trace.machine p;
        Hashtbl.add ids.next_tid ev.Trace.machine 2;
        p
  in
  let tid =
    if ev.Trace.domain = "" then 1
    else
      let key = (ev.Trace.machine, ev.Trace.domain) in
      match Hashtbl.find_opt ids.tids key with
      | Some t -> t
      | None ->
          let t = Hashtbl.find ids.next_tid ev.Trace.machine in
          Hashtbl.replace ids.next_tid ev.Trace.machine (t + 1);
          Hashtbl.add ids.tids key t;
          t
  in
  (pid, tid)

let arg_json = function
  | Trace.Str s -> Json.String s
  | Trace.Int i -> Json.Int i
  | Trace.Float f -> Json.Float f

let args_json (ev : Trace.event) =
  let base = List.map (fun (k, v) -> (k, arg_json v)) ev.Trace.args in
  if ev.Trace.path_id >= 0 then ("path", Json.Int ev.Trace.path_id) :: base
  else base

let phase_name = function Trace.Instant -> "i" | Trace.Complete _ -> "X"

let event_json ids (ev : Trace.event) =
  let pid, tid = assign ids ev in
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

let metadata_events ids =
  let procs =
    Hashtbl.fold
      (fun name pid acc ->
        Json.Obj
          [
            ("name", Json.String "process_name");
            ("ph", Json.String "M");
            ("pid", Json.Int pid);
            ("args", Json.Obj [ ("name", Json.String name) ]);
          ]
        :: acc)
      ids.pids []
  in
  let threads =
    Hashtbl.fold
      (fun (machine, domain) tid acc ->
        match Hashtbl.find_opt ids.pids machine with
        | None -> acc
        | Some pid ->
            Json.Obj
              [
                ("name", Json.String "thread_name");
                ("ph", Json.String "M");
                ("pid", Json.Int pid);
                ("tid", Json.Int tid);
                ("args", Json.Obj [ ("name", Json.String domain) ]);
              ]
            :: acc)
      ids.tids []
  in
  let machine_lanes =
    Hashtbl.fold
      (fun _ pid acc ->
        Json.Obj
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int pid);
            ("tid", Json.Int 1);
            ("args", Json.Obj [ ("name", Json.String "machine") ]);
          ]
        :: acc)
      ids.pids []
  in
  procs @ machine_lanes @ threads

let to_json t =
  let ids =
    {
      pids = Hashtbl.create 4;
      tids = Hashtbl.create 16;
      next_tid = Hashtbl.create 4;
    }
  in
  let evs = List.map (event_json ids) (Trace.events t) in
  Json.Obj
    [
      ("traceEvents", Json.List (evs @ metadata_events ids));
      ("displayTimeUnit", Json.String "ms");
      ("otherData", Json.Obj [ ("dropped", Json.Int (Trace.dropped t)) ]);
    ]

let to_string t = Json.to_string (to_json t)

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

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
