(* Exposition: render a metrics instance (registry cells, machine event
   tables, ledger) as Prometheus text or JSON, and parse the JSON back
   for round-trip testing. The event tables and the ledger are exposed as
   synthetic counter families [fbufs_events_total{machine,event}] and
   [fbufs_cost_us_total{machine,component,kind}], so one scrape carries
   the live counters, every machine event and the cost attribution. *)

module Json = Fbufs_trace.Json
module Sketch = Fbufs_trace.Sketch

(* A sketch family exposes [_count], [_sum] and [{quantile=...}] lines:
   the shape of a Prometheus summary (a histogram would need
   [_bucket{le=...}] lines). *)
let kind_str = function
  | Metrics.Counter -> "counter"
  | Metrics.Gauge -> "gauge"
  | Metrics.Sketch -> "summary"

(* Prometheus label-value escaping: backslash, quote, newline. *)
let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | _ -> Buffer.add_char b ch)
    s;
  Buffer.contents b

let label_str names values =
  if names = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map2 (fun n v -> Printf.sprintf "%s=%S" n (escape v)) names values)
    ^ "}"

let fnum x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.9g" x

type synthetic = {
  s_name : string;
  s_help : string;
  s_labels : string list;
  s_rows : (string list * float * int) list;  (* labels, value, count *)
}

(* Event tables and ledger rows presented as two more counter families,
   after the registry's, empty ones omitted. Stats keeps no update count,
   so an event cell's count is its (integer) value. *)
let synthetic t =
  [
    {
      s_name = "fbufs_events_total";
      s_help = "Machine events, counted once in each machine's Stats table";
      s_labels = [ "machine"; "event" ];
      s_rows =
        List.map
          (fun ((machine, event), v) -> ([ machine; event ], v, int_of_float v))
          (Metrics.events t);
    };
    {
      s_name = "fbufs_cost_us_total";
      s_help = "Simulated microseconds charged, by Table 1 component";
      s_labels = [ "machine"; "component"; "kind" ];
      s_rows =
        List.map
          (fun (r : Ledger.row) ->
            ( [ r.machine; Component.label r.comp;
                (if r.kind = "" then "untyped" else r.kind) ],
              r.us,
              r.count ))
          (Ledger.rows (Metrics.ledger t));
    };
  ]
  |> List.filter (fun f -> f.s_rows <> [])

let to_prometheus t =
  let b = Buffer.create 4096 in
  let emit_header name help kind =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  let samples = Metrics.samples t in
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (s : Metrics.sample) ->
      let d = s.def in
      if not (Hashtbl.mem seen d.id) then begin
        Hashtbl.add seen d.id ();
        emit_header d.name d.help (kind_str d.kind)
      end;
      match s.sketch with
      | Some sk ->
          let ls = label_str d.labels s.labels in
          Buffer.add_string b
            (Printf.sprintf "%s_count%s %d\n" d.name ls (Sketch.count sk));
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %s\n" d.name ls (fnum (Sketch.sum sk)));
          List.iter
            (fun p ->
              let q =
                label_str
                  (d.labels @ [ "quantile" ])
                  (s.labels @ [ Printf.sprintf "%.2f" (p /. 100.0) ])
              in
              Buffer.add_string b
                (Printf.sprintf "%s%s %s\n" d.name q
                   (fnum (Sketch.quantile sk p))))
            [ 50.0; 90.0; 99.0 ]
      | None ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %s\n" d.name
               (label_str d.labels s.labels)
               (fnum s.value)))
    samples;
  List.iter
    (fun f ->
      emit_header f.s_name f.s_help "counter";
      List.iter
        (fun (labels, v, _) ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %s\n" f.s_name
               (label_str f.s_labels labels)
               (fnum v)))
        f.s_rows)
    (synthetic t);
  Buffer.contents b

let sample_json name kind help (labels_n : string list) rows =
  Json.Obj
    [
      ("name", Json.String name);
      ("type", Json.String kind);
      ("help", Json.String help);
      ( "samples",
        Json.List
          (List.map
             (fun (labels_v, value, count) ->
               Json.Obj
                 [
                   ( "labels",
                     Json.Obj
                       (List.map2
                          (fun n v -> (n, Json.String v))
                          labels_n labels_v) );
                   ("value", Json.Float value);
                   ("count", Json.Int count);
                 ])
             rows) );
    ]

let to_json t =
  let samples = Metrics.samples t in
  let ids =
    List.sort_uniq compare
      (List.map (fun (s : Metrics.sample) -> s.def.Metrics.id) samples)
  in
  let families =
    List.filter_map
      (fun id ->
        match
          List.find_opt (fun (s : Metrics.sample) -> s.def.Metrics.id = id)
            samples
        with
        | None -> None
        | Some first ->
            let d = first.def in
            let rows =
              List.filter_map
                (fun (s : Metrics.sample) ->
                  if s.def.Metrics.id = id then Some (s.labels, s.value, s.count)
                  else None)
                samples
            in
            Some (sample_json d.name (kind_str d.kind) d.help d.labels rows))
      ids
  in
  let families =
    families
    @ List.map
        (fun f -> sample_json f.s_name "counter" f.s_help f.s_labels f.s_rows)
        (synthetic t)
  in
  Json.Obj [ ("metrics", Json.List families) ]

let to_json_string t = Json.to_string (to_json t)

type flat = { name : string; labels : (string * string) list; value : float }

exception Bad_exposition of string

let jstr = function
  | Json.String s -> s
  | _ -> raise (Bad_exposition "expected string")

let jnum = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> raise (Bad_exposition "expected number")

let of_json j =
  match Json.member "metrics" j with
  | Some (Json.List families) ->
      List.concat_map
        (fun fam ->
          let name =
            match Json.member "name" fam with
            | Some v -> jstr v
            | None -> raise (Bad_exposition "family without name")
          in
          match Json.member "samples" fam with
          | Some (Json.List rows) ->
              List.map
                (fun row ->
                  let labels =
                    match Json.member "labels" row with
                    | Some (Json.Obj kvs) ->
                        List.map (fun (k, v) -> (k, jstr v)) kvs
                    | _ -> []
                  in
                  let value =
                    match Json.member "value" row with
                    | Some v -> jnum v
                    | None -> raise (Bad_exposition "sample without value")
                  in
                  { name; labels; value })
                rows
          | _ -> raise (Bad_exposition "family without samples"))
        families
  | _ -> raise (Bad_exposition "missing metrics list")

let of_json_string s = of_json (Json.parse s)
