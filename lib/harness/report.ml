let mbps ~bytes ~us =
  if us <= 0.0 then infinity else float_of_int bytes *. 8.0 /. us

let print_title s =
  Printf.printf "\n== %s ==\n" s

let cell ~width s =
  if String.length s >= width then s
  else String.make (width - String.length s) ' ' ^ s

let print_columns cols =
  let line = String.concat "  " (List.map (cell ~width:14) cols) in
  print_endline line;
  print_endline (String.make (String.length line) '-')

let fmt_size n =
  if n >= 1 lsl 20 && n mod (1 lsl 20) = 0 then
    Printf.sprintf "%dM" (n lsr 20)
  else if n >= 1024 && n mod 1024 = 0 then Printf.sprintf "%dK" (n lsr 10)
  else string_of_int n

let fmt_opt = function
  | None -> "-"
  | Some v ->
      if v >= 100.0 then Printf.sprintf "%.0f" v else Printf.sprintf "%.1f" v

type series = { name : string; points : (int * float) list }

let lcell ~width s =
  if String.length s >= width then s
  else s ^ String.make (width - String.length s) ' '

let fmt_us v =
  if v >= 1000.0 then Printf.sprintf "%.0f" v
  else if v >= 10.0 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.2f" v

let print_trace_summary trace =
  let rows = Fbufs_trace.Trace.summary trace in
  if rows <> [] then begin
    print_title "Trace summary: latency by event kind and path (us)";
    let header =
      lcell ~width:24 "kind"
      :: List.map (cell ~width:9)
           [ "path"; "count"; "p50"; "p90"; "p99"; "max"; "total" ]
    in
    let line = String.concat "  " header in
    print_endline line;
    print_endline (String.make (String.length line) '-');
    List.iter
      (fun ((kind, path_id), sk) ->
        let open Fbufs_trace.Sketch in
        let cells =
          lcell ~width:24 kind
          :: List.map (cell ~width:9)
               [
                 (if path_id < 0 then "-" else string_of_int path_id);
                 string_of_int (count sk);
                 fmt_us (quantile sk 50.0);
                 fmt_us (quantile sk 90.0);
                 fmt_us (quantile sk 99.0);
                 fmt_us (max_value sk);
                 fmt_us (sum sk);
               ]
        in
        print_endline (String.concat "  " cells))
      rows
  end

let print_series_table ~x_label series =
  print_columns (x_label :: List.map (fun s -> s.name) series);
  let xs =
    List.sort_uniq compare
      (List.concat_map (fun s -> List.map fst s.points) series)
  in
  List.iter
    (fun x ->
      let cells =
        List.map
          (fun s ->
            match List.assoc_opt x s.points with
            | Some y -> Printf.sprintf "%.1f" y
            | None -> "-")
          series
      in
      print_endline
        (String.concat "  "
           (List.map (cell ~width:14) (fmt_size x :: cells))))
    xs
