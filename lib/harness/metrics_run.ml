open Fbufs_sim
module Mx = Fbufs_metrics.Metrics
module Ledger = Fbufs_metrics.Ledger
module Component = Fbufs_metrics.Component
module Expo = Fbufs_metrics.Expo

(* Per-component breakdown of everything the run charged. The total row
   is [Ledger.total_us], which is by construction the sum of the printed
   component rows — a reader adding the column reproduces it exactly. *)
let print_breakdown mx =
  let ledger = Mx.ledger mx in
  let total = Ledger.total_us ledger in
  if Ledger.charge_count ledger = 0 then
    print_endline "metrics: no simulated time was charged"
  else begin
    Report.print_title "Cost attribution (simulated microseconds)";
    Report.print_columns [ "component"; "us"; "%"; "table1" ];
    let row cols =
      print_endline
        (String.concat "  " (List.map (Report.cell ~width:14) cols))
    in
    List.iter
      (fun (comp, us) ->
        if us <> 0.0 then
          row
            [
              Component.label comp;
              Printf.sprintf "%.2f" us;
              (if total > 0.0 then Printf.sprintf "%.1f" (100.0 *. us /. total)
               else "-");
              (if Component.in_table1 comp then "yes" else "-");
            ])
      (Ledger.by_component ledger);
    row [ "total"; Printf.sprintf "%.2f" total; "100.0"; "" ]
  end

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let export what path contents =
  match write_file path contents with
  | () -> Printf.printf "metrics: %s -> %s\n" what path
  | exception Sys_error msg ->
      Printf.eprintf "metrics: cannot write %s: %s\n" path msg

let with_metrics ?file ?folded ?(summary = false) f =
  match (file, folded, summary) with
  | None, None, false -> f ()
  | _ ->
      let mx = Mx.create () in
      let spans = ref None in
      let result =
        Machine.with_probe
          (fun m -> Spans_run.noting_sink spans m (Mx.probe mx m))
          f
      in
      (* When a causal span sink observed the same machines (nested
         either way), its transfer walls join the exposition. *)
      Option.iter (Spans_run.roll_transfer_walls mx) !spans;
      Option.iter
        (fun path ->
          export "exposition" path
            (if Filename.check_suffix path ".json" then Expo.to_json_string mx
             else Expo.to_prometheus mx))
        file;
      Option.iter
        (fun path ->
          export "collapsed stacks" path (Ledger.collapsed (Mx.ledger mx)))
        folded;
      if summary then print_breakdown mx;
      result
