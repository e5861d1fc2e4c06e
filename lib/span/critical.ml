module Comp = Fbufs_sim.Component
module Sketch = Fbufs_trace.Sketch

(* Critical-path extraction over one transfer's span set.

   The chain is built backwards from the last-ending span. Each step
   picks the predecessor that explains why the current span started when
   it did: an explicit follows-from edge when one resolves inside the
   transfer (wire flights, adopted continuations), otherwise the
   latest-ending span that finished before this one started (sequential
   siblings), otherwise the parent (the span that was on CPU around it).
   Off-path spans report slack: how much later they could have finished
   before colliding with the next on-path start — the usual PERT notion,
   evaluated against the extracted chain. *)

type summary = {
  tr : Span.transfer;
  start_us : float;
  finish_us : float;  (* max end over the transfer's spans *)
  wall_us : float;
  path : Span.span list;  (* root-first *)
  off : (Span.span * float) list;  (* off-path spans with slack, id order *)
  on_ns : int array;  (* per-component charges of on-path spans *)
  off_ns : int array;
}

let later (a : Span.span) (b : Span.span) =
  a.Span.end_us > b.Span.end_us
  || (a.Span.end_us = b.Span.end_us && a.Span.id > b.Span.id)

let analyze t (tr : Span.transfer) =
  let spans = List.filter Span.is_closed (Span.spans_of tr) in
  match spans with
  | [] ->
      {
        tr;
        start_us = tr.Span.t_start_us;
        finish_us = tr.Span.t_start_us;
        wall_us = 0.0;
        path = [];
        off = [];
        on_ns = Array.make Span.ncomp 0;
        off_ns = Array.make Span.ncomp 0;
      }
  | first :: rest ->
      let last = List.fold_left (fun a b -> if later b a then b else a) first rest in
      let visited = Hashtbl.create 16 in
      let in_transfer id =
        match Span.find_span t id with
        | Some sp when sp.Span.transfer = tr.Span.tid -> Some sp
        | Some _ | None -> None
      in
      let pred (cur : Span.span) =
        let fresh sp = not (Hashtbl.mem visited sp.Span.id) in
        let via_follows =
          if cur.Span.follows = 0 then None
          else
            match in_transfer cur.Span.follows with
            | Some sp when fresh sp -> Some sp
            | Some _ | None -> None
        in
        match via_follows with
        | Some _ as r -> r
        | None -> (
            let before =
              List.filter
                (fun (sp : Span.span) ->
                  fresh sp && sp.Span.id <> cur.Span.id
                  && sp.Span.end_us <= cur.Span.start_us)
                spans
            in
            match before with
            | sp0 :: more ->
                Some
                  (List.fold_left (fun a b -> if later b a then b else a) sp0 more)
            | [] -> (
                if cur.Span.parent = 0 then None
                else
                  match in_transfer cur.Span.parent with
                  | Some sp when fresh sp -> Some sp
                  | Some _ | None -> None))
      in
      let rec walk acc cur =
        Hashtbl.replace visited cur.Span.id ();
        match pred cur with
        | Some p -> walk (cur :: acc) p
        | None -> cur :: acc
      in
      let path = walk [] last in
      let on_path id = List.exists (fun (sp : Span.span) -> sp.Span.id = id) path in
      let finish_us = last.Span.end_us in
      let off =
        List.filter_map
          (fun (sp : Span.span) ->
            if on_path sp.Span.id then None
            else
              let next =
                List.fold_left
                  (fun acc (p : Span.span) ->
                    if p.Span.start_us >= sp.Span.end_us then
                      match acc with
                      | Some s when s <= p.Span.start_us -> acc
                      | Some _ | None -> Some p.Span.start_us
                    else acc)
                  None path
              in
              let horizon = match next with Some s -> s | None -> finish_us in
              Some (sp, Float.max 0.0 (horizon -. sp.Span.end_us)))
          spans
      in
      let on_ns = Array.make Span.ncomp 0 in
      let off_ns = Array.make Span.ncomp 0 in
      List.iter
        (fun (sp : Span.span) ->
          let dst = if on_path sp.Span.id then on_ns else off_ns in
          Array.iteri (fun i ns -> dst.(i) <- dst.(i) + ns) sp.Span.charges_ns)
        spans;
      {
        tr;
        start_us = tr.Span.t_start_us;
        finish_us;
        wall_us = finish_us -. tr.Span.t_start_us;
        path;
        off;
        on_ns;
        off_ns;
      }

(* -- report ------------------------------------------------------------ *)

let dominant (sp : Span.span) =
  let best = ref (-1) and best_ns = ref 0 in
  Array.iteri
    (fun i ns ->
      if ns > !best_ns then begin
        best := i;
        best_ns := ns
      end)
    sp.Span.charges_ns;
  if !best < 0 then ""
  else Comp.label (List.nth Comp.all !best)

let pp_us ppf ns = Format.fprintf ppf "%.3f" (Span.us_of_ns ns)

let print_summary ppf _t (s : summary) =
  let tr = s.tr in
  Format.fprintf ppf "transfer #%d %S: wall %.3f us, charged %a us@."
    tr.Span.tid tr.Span.label s.wall_us pp_us (Span.total_ns tr);
  Format.fprintf ppf "  critical path (%d of %d spans):@." (List.length s.path)
    (List.length (Span.spans_of tr));
  List.iter
    (fun (sp : Span.span) ->
      let where =
        if sp.Span.domain = "" then sp.Span.machine
        else sp.Span.machine ^ "/" ^ sp.Span.domain
      in
      let dom = dominant sp in
      Format.fprintf ppf "    %8.3f %9.3f  %-14s %-12s %a us%s@."
        sp.Span.start_us
        (sp.Span.end_us -. sp.Span.start_us)
        sp.Span.kind where pp_us (Span.span_total_ns sp)
        (if dom = "" then "" else "  [" ^ dom ^ "]"))
    s.path;
  (match s.off with
  | [] -> ()
  | off ->
      Format.fprintf ppf "  off-path:@.";
      List.iter
        (fun ((sp : Span.span), slack) ->
          Format.fprintf ppf "    %-14s %-8s %a us charged, slack %.3f us@."
            sp.Span.kind sp.Span.machine pp_us (Span.span_total_ns sp) slack)
        off);
  Format.fprintf ppf "  components (us, on-path / off-path / total):@.";
  List.iteri
    (fun i comp ->
      let total = tr.Span.cells_ns.(i) in
      if total <> 0 || s.on_ns.(i) <> 0 || s.off_ns.(i) <> 0 then
        Format.fprintf ppf "    %-10s %a / %a / %a@." (Comp.label comp) pp_us
          s.on_ns.(i) pp_us s.off_ns.(i) pp_us total)
    Comp.all;
  let on = Array.fold_left ( + ) 0 s.on_ns in
  let off = Array.fold_left ( + ) 0 s.off_ns in
  (* The total column is the transfer's ledger charge; the printed rows
     sum to it exactly (integer cells, one rounding per charge). *)
  assert (on + off = Span.total_ns tr);
  Format.fprintf ppf "    %-10s %a / %a / %a@." "total" pp_us on pp_us off
    pp_us (on + off)

let print_report ppf ?top t =
  let all = Span.transfers t in
  let n = List.length all in
  let shown = match top with Some k -> min k n | None -> n in
  Format.fprintf ppf "== Causal spans: critical path per transfer ==@.";
  List.iteri (fun i s -> if i < shown then print_summary ppf t (analyze t s)) all;
  if shown < n then
    Format.fprintf ppf "(%d more transfer%s not shown)@." (n - shown)
      (if n - shown = 1 then "" else "s");
  if n > 0 then begin
    let sk = Sketch.create () in
    let charged = ref 0 in
    List.iter
      (fun tr ->
        let s = analyze t tr in
        Sketch.add sk s.wall_us;
        charged := !charged + Span.total_ns tr)
      all;
    Format.fprintf ppf
      "aggregate: %d transfers, charged %a us, wall us p50 %.1f p90 %.1f \
       p99 %.1f max %.1f (sketch alpha %.2f)@."
      n pp_us !charged
      (Sketch.quantile sk 50.0)
      (Sketch.quantile sk 90.0)
      (Sketch.quantile sk 99.0)
      (Sketch.max_value sk)
      (Sketch.alpha sk)
  end;
  (match Span.check t with
  | [] -> ()
  | bad ->
      Format.fprintf ppf "WELL-FORMEDNESS VIOLATIONS:@.";
      List.iter (fun v -> Format.fprintf ppf "  %s@." v) bad)
