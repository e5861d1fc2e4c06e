open Parsetree
module F = Finding
module SS = Set.Make (String)
module SM = Map.Make (String)

(* Layer C findings are reported only for the transfer facility's
   *clients*; the machinery itself (lib/core, lib/ipc, ...) implements
   the disciplines and would drown the report in policy-by-design
   exceptions. Summaries are still computed over every unit, so a client
   calling through machinery helpers is analyzed with their effects. *)
let client_dirs = [ "examples/"; "lib/harness/"; "lib/demo/"; "bin/"; "bench/" ]

let client_file file =
  let norm = String.map (fun c -> if c = '\\' then '/' else c) file in
  List.exists (fun p -> String.starts_with ~prefix:p norm) client_dirs

(* ------------------------------------------------------------------ *)
(* Abstract values and per-handle typestate                            *)

type value =
  | Hdl of int
  | Alloc_v of bool  (** an allocator; [true] = hands out volatile fbufs *)
  | Var_v of bool  (** an [Fbuf.variant]; [true] = volatile *)
  | Unk

(* The lattice {Fresh, Held, Sent, Secured, Freed, T}. Fresh/Held only
   differ in provenance (local allocation vs borrowed parameter); the
   rules treat them alike. *)
type phase = P_fresh | P_held | P_sent | P_secured | P_freed | P_top

type origin =
  | O_local  (** allocated in this scope (directly or via a helper) *)
  | O_borrowed of int option
      (** parameter [i]; [None] for lambda parameters *)

type hstate = {
  origin : origin;
  volatile : bool;
  oline : int;
  ocol : int;  (** allocation site (C2 anchors here) *)
  mutable phase : phase;
  mutable refs : int option;  (** outstanding references; [None] unknown *)
  mutable exact : bool;
      (** [refs] was counted from primitives only: a callee summary says
          whether a helper sends or frees, not how many times *)
  mutable freed_doms : SS.t;  (** syntactic [~dom] strings already freed *)
  mutable src_dom : string option;  (** syntactic [~src] of the send *)
  mutable escaped : bool;
  mutable consumed : bool;
}

type ctx = {
  file : string;
  unit_name : string;
  cg : Callgraph.t;
  lookup : Callgraph.def -> Summary.fsum;
  emit : bool;
  findings : F.t list ref;
  handles : (int, hstate) Hashtbl.t;
  next : int ref;
  psums : Summary.param_sum array;
}

let hstate ctx id = Hashtbl.find ctx.handles id

let new_handle ctx ~origin ~volatile ~loc =
  let id = !(ctx.next) in
  incr ctx.next;
  let line, col = Rules.line_col loc in
  Hashtbl.replace ctx.handles id
    {
      origin;
      volatile;
      oline = line;
      ocol = col;
      phase = (match origin with O_local -> P_fresh | O_borrowed _ -> P_held);
      refs = (match origin with O_local -> Some 1 | O_borrowed _ -> None);
      exact = true;
      freed_doms = SS.empty;
      src_dom = None;
      escaped = false;
      consumed = false;
    };
  Hdl id

let report ctx ~rule ~loc msg =
  if ctx.emit then begin
    let line, col = Rules.line_col loc in
    ctx.findings := F.v ~rule ~file:ctx.file ~line ~col msg :: !(ctx.findings)
  end

(* Any fbuf API reaching a dead handle is C1. *)
let use ctx ~loc h =
  if h.phase = P_freed then
    report ctx ~rule:"C1" ~loc
      "use of a dead fbuf handle (use after free): every reference was \
       relinquished"

(* Propagate an effect bit to the enclosing function's summary when the
   handle is one of its parameters. *)
let record ctx h f =
  match h.origin with
  | O_borrowed (Some i) when i < Array.length ctx.psums ->
      ctx.psums.(i) <- f ctx.psums.(i)
  | _ -> ()

(* A handle stored into a data structure, captured by a closure or passed
   to an unknown callee leaves the analysis: no further findings, no C2. *)
let escape ctx v =
  match v with
  | Hdl id ->
      let h = hstate ctx id in
      h.escaped <- true;
      h.phase <- P_top;
      h.refs <- None
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Branch-state snapshot / join                                        *)

type snap = (int * phase * int option * SS.t * string option) list

let snapshot ctx : snap =
  Hashtbl.fold
    (fun id h acc -> (id, h.phase, h.refs, h.freed_doms, h.src_dom) :: acc)
    ctx.handles []

let restore ctx (s : snap) =
  List.iter
    (fun (id, p, r, fd, sd) ->
      match Hashtbl.find_opt ctx.handles id with
      | Some h ->
          h.phase <- p;
          h.refs <- r;
          h.freed_doms <- fd;
          h.src_dom <- sd
      | None -> ())
    s

(* Pointwise join of branch end-states: equal components survive,
   disagreements go to the conservative top. [freed_doms] joins by
   intersection so "already freed" only holds when every path freed. *)
let join_outs ctx (outs : snap list) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (id, p, r, fd, sd) ->
         match Hashtbl.find_opt tbl id with
         | None -> Hashtbl.replace tbl id (p, r, fd, sd)
         | Some (p0, r0, fd0, sd0) ->
             Hashtbl.replace tbl id
               ( (if p0 = p then p0 else P_top),
                 (if r0 = r then r0 else None),
                 SS.inter fd0 fd,
                 if sd0 = sd then sd0 else None )))
    outs;
  Hashtbl.iter
    (fun id (p, r, fd, sd) ->
      match Hashtbl.find_opt ctx.handles id with
      | Some h ->
          h.phase <- p;
          h.refs <- r;
          h.freed_doms <- fd;
          h.src_dom <- sd
      | None -> ())
    tbl

(* ------------------------------------------------------------------ *)
(* Primitive fbuf API classification                                   *)

type prim =
  | Pr_alloc
  | Pr_alloc_default
  | Pr_alloc_create
  | Pr_send
  | Pr_secure
  | Pr_free
  | Pr_read
  | Pr_write
  | Pr_use_only  (** blind touch / metadata: a use, no phase meaning *)
  | Pr_escape  (** wraps the handle into a message / IPC payload *)

let prim_of_path rp =
  match rp with
  | "alloc" :: "Allocator" :: _ -> Some Pr_alloc
  | "default" :: "Allocator" :: _ -> Some Pr_alloc_default
  | "create" :: "Allocator" :: _ | "allocator" :: "Testbed" :: _ ->
      Some Pr_alloc_create
  | "send" :: "Transfer" :: _ -> Some Pr_send
  | "secure" :: "Transfer" :: _ -> Some Pr_secure
  | "free" :: "Transfer" :: _ -> Some Pr_free
  | ("read" | "read_string" | "word_at" | "checksum") :: "Fbuf_api" :: _ ->
      Some Pr_read
  | ("write" | "write_bytes" | "set_word" | "touch_write") :: "Fbuf_api" :: _
    ->
      Some Pr_write
  | "of_fbuf" :: "Msg" :: _
  | "call" :: "Ipc" :: _
  | "make_message" :: "Testproto" :: _ ->
      Some Pr_escape
  | _ :: "Fbuf_api" :: _ | _ :: "Fbuf" :: _ | _ :: "Transfer" :: _ ->
      Some Pr_use_only
  | _ -> None

let variant_of_ident e =
  match Rules.rev_path e with
  | Some (("cached_volatile" | "volatile_only") :: "Fbuf" :: _) ->
      Some (Var_v true)
  | Some (("cached_only" | "plain") :: "Fbuf" :: _) -> Some (Var_v false)
  | _ -> None

let dom_string = function
  | Some e -> (
      match Rules.ident_path e with
      | Some p -> Some (String.concat "." p)
      | None -> None)
  | None -> None

(* The paper forbids the *originator* mutating in flight; a receiver's
   write is refused dynamically by protection. When either side of the
   comparison is unknown we stay conservative and flag. *)
let writer_is_src h as_ =
  match (h.src_dom, as_) with
  | None, _ | _, None -> true
  | Some s, Some a -> s = a

(* Resolve an actual argument to its formal parameter index. *)
let formal_index params lbl upos =
  match lbl with
  | Asttypes.Nolabel ->
      let rec go i k = function
        | [] -> None
        | (Asttypes.Nolabel, _) :: rest ->
            if k = upos then Some i else go (i + 1) (k + 1) rest
        | _ :: rest -> go (i + 1) k rest
      in
      go 0 0 params
  | Asttypes.Labelled l | Asttypes.Optional l ->
      let rec go i = function
        | [] -> None
        | (Asttypes.Labelled l', _) :: rest | (Asttypes.Optional l', _) :: rest
          ->
            if l' = l then Some i else go (i + 1) rest
        | (Asttypes.Nolabel, _) :: rest -> go (i + 1) rest
      in
      go 0 params

let pattern_vars pat =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  it.pat it pat;
  !acc

let collect_idents e =
  let acc = ref SS.empty in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Longident.Lident x; _ } -> acc := SS.add x !acc
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !acc

(* ------------------------------------------------------------------ *)
(* The abstract interpreter                                            *)

let rec eval ctx env e : value =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } when SM.mem x env ->
      SM.find x env
  | Pexp_ident _ -> (
      match variant_of_ident e with Some v -> v | None -> Unk)
  | Pexp_constant _ -> Unk
  | Pexp_let (_, vbs, body) ->
      let env' =
        List.fold_left
          (fun acc vb ->
            let v = eval ctx env vb.pvb_expr in
            bind_pattern ctx acc vb.pvb_pat v)
          env vbs
      in
      eval ctx env' body
  | Pexp_sequence (a, b) ->
      ignore (eval ctx env a : value);
      eval ctx env b
  | Pexp_apply (f, args) -> eval_apply ctx env e f args
  | Pexp_ifthenelse (c, t, fo) ->
      ignore (eval ctx env c : value);
      let thunks =
        match fo with
        | Some f -> [ (fun () -> eval ctx env t); (fun () -> eval ctx env f) ]
        | None -> [ (fun () -> eval ctx env t); (fun () -> Unk) ]
      in
      branch_values ctx thunks
  | Pexp_match (scr, cases) ->
      let sv = eval ctx env scr in
      branch_cases ctx env sv cases
  | Pexp_try (b, cases) ->
      (* The body always runs (possibly partially); handlers are joined
         in from the pre-state, approximating "from any point inside". *)
      branch_values ctx
        ((fun () -> eval ctx env b)
        :: List.map (fun c () -> case_value ctx env Unk c) cases)
  | Pexp_fun _ | Pexp_function _ ->
      handle_lambda ctx env e;
      Unk
  | Pexp_lazy b ->
      handle_lambda ctx env b;
      Unk
  | Pexp_while (c, body) ->
      ignore (eval ctx env c : value);
      loop_body ctx env body;
      Unk
  | Pexp_for (pat, a, b, _, body) ->
      ignore (eval ctx env a : value);
      ignore (eval ctx env b : value);
      let env' =
        List.fold_left
          (fun acc x -> SM.add x Unk acc)
          env (pattern_vars pat)
      in
      loop_body ctx env' body;
      Unk
  | Pexp_tuple l | Pexp_array l ->
      List.iter (fun x -> escape ctx (eval ctx env x)) l;
      Unk
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) ->
      escape ctx (eval ctx env a);
      Unk
  | Pexp_construct (_, None) | Pexp_variant (_, None) -> Unk
  | Pexp_record (fields, base) ->
      List.iter (fun (_, x) -> escape ctx (eval ctx env x)) fields;
      (match base with
      | Some b -> ignore (eval ctx env b : value)
      | None -> ());
      Unk
  | Pexp_setfield (a, _, b) ->
      ignore (eval ctx env a : value);
      escape ctx (eval ctx env b);
      Unk
  | Pexp_field (a, _) ->
      ignore (eval ctx env a : value);
      Unk
  | Pexp_constraint (x, _)
  | Pexp_coerce (x, _, _)
  | Pexp_open (_, x)
  | Pexp_letmodule (_, _, x)
  | Pexp_letexception (_, x)
  | Pexp_newtype (_, x) ->
      eval ctx env x
  | Pexp_assert x ->
      ignore (eval ctx env x : value);
      Unk
  | _ -> Unk

and bind_pattern ctx env pat v =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> SM.add txt v env
  | Ppat_constraint (p, _) -> bind_pattern ctx env p v
  | Ppat_alias (p, { txt; _ }) -> bind_pattern ctx (SM.add txt v env) p v
  | Ppat_any -> env
  | _ ->
      (* Destructuring loses handle identity. *)
      escape ctx v;
      List.fold_left (fun acc x -> SM.add x Unk acc) env (pattern_vars pat)

and case_value ctx env sv c =
  let env' = bind_pattern ctx env c.pc_lhs sv in
  (match c.pc_guard with
  | Some g -> ignore (eval ctx env' g : value)
  | None -> ());
  eval ctx env' c.pc_rhs

and branch_cases ctx env sv cases =
  branch_values ctx (List.map (fun c () -> case_value ctx env sv c) cases)

and branch_values ctx thunks : value =
  match thunks with
  | [] -> Unk
  | [ one ] -> one ()
  | _ ->
      let base = snapshot ctx in
      let outs =
        List.map
          (fun th ->
            restore ctx base;
            let v = th () in
            (v, snapshot ctx))
          thunks
      in
      join_outs ctx (List.map snd outs);
      (match outs with
      | (v0, _) :: rest when List.for_all (fun (v, _) -> v = v0) rest -> v0
      | _ ->
          (* A handle reaching here only on some paths has no single
             identity; drop it from the analysis rather than guess. *)
          List.iter
            (fun (v, _) -> match v with Hdl _ -> escape ctx v | _ -> ())
            outs;
          Unk)

and loop_body ctx env body =
  (* One unrolling joined with the zero-iteration path. *)
  ignore
    (branch_values ctx
       [
         (fun () ->
           ignore (eval ctx env body : value);
           Unk);
         (fun () -> Unk);
       ]
      : value)

(* A lambda value: every handle it captures escapes (the closure may run
   any number of times, later), and its body is analyzed as its own
   scope with borrowed parameters. *)
and handle_lambda ctx env e =
  let ids = collect_idents e in
  SM.iter
    (fun x v ->
      match v with Hdl _ when SS.mem x ids -> escape ctx v | _ -> ())
    env;
  let env' = SM.map (fun v -> match v with Hdl _ -> Unk | v -> v) env in
  analyze_lambda ctx env' e

and analyze_lambda ctx env e =
  match e.pexp_desc with
  | Pexp_fun (_, _, pat, body) ->
      let env' =
        match pat.ppat_desc with
        | Ppat_var { txt; _ } ->
            SM.add txt
              (new_handle ctx ~origin:(O_borrowed None) ~volatile:false
                 ~loc:pat.ppat_loc)
              env
        | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) ->
            SM.add txt
              (new_handle ctx ~origin:(O_borrowed None) ~volatile:false
                 ~loc:pat.ppat_loc)
              env
        | _ ->
            List.fold_left
              (fun acc x -> SM.add x Unk acc)
              env (pattern_vars pat)
      in
      analyze_lambda ctx env' body
  | Pexp_function cases ->
      List.iter
        (fun c ->
          let v =
            new_handle ctx ~origin:(O_borrowed None) ~volatile:false
              ~loc:c.pc_lhs.ppat_loc
          in
          ignore (case_value ctx env v c : value))
        cases
  | Pexp_newtype (_, body) -> analyze_lambda ctx env body
  | _ ->
      (* The body proper: its result is handed to whoever calls the
         closure. *)
      escape ctx (eval ctx env e)

and eval_apply ctx env e f args =
  let argvals = List.map (fun (lbl, a) -> (lbl, a, eval ctx env a)) args in
  match Rules.rev_path f with
  | Some rp when prim_of_path rp <> None ->
      apply_prim ctx e (Option.get (prim_of_path rp)) args argvals
  | _ -> (
      match Rules.ident_path f with
      | Some path -> (
          match Callgraph.resolve ctx.cg ~unit_name:ctx.unit_name path with
          | Some d -> apply_summary ctx e d argvals
          | None -> apply_unknown ctx path argvals)
      | None ->
          List.iter (fun (_, _, v) -> escape ctx v) argvals;
          Unk)

and apply_prim ctx e prim args argvals =
  let loc = e.pexp_loc in
  let first_unlabelled () =
    List.find_map
      (fun (lbl, a, v) ->
        if lbl = Asttypes.Nolabel then Some (a, v) else None)
      argvals
  in
  let hdl () =
    match first_unlabelled () with
    | Some (_, Hdl id) -> Some (hstate ctx id)
    | _ -> None
  in
  match prim with
  | Pr_alloc_default -> Alloc_v true
  | Pr_alloc_create ->
      Alloc_v (List.exists (fun (_, _, v) -> v = Var_v true) argvals)
  | Pr_alloc ->
      let vol =
        match first_unlabelled () with
        | Some (_, Alloc_v v) -> v
        | _ -> false
      in
      new_handle ctx ~origin:O_local ~volatile:vol ~loc
  | Pr_send ->
      (match hdl () with
      | Some h ->
          use ctx ~loc h;
          record ctx h (fun p -> { p with Summary.sends = true });
          h.refs <- Option.map (fun n -> n + 1) h.refs;
          h.src_dom <- dom_string (Rules.labelled "src" args);
          (match h.phase with
          | P_fresh | P_held -> h.phase <- P_sent
          | _ -> ())
      | None -> ());
      Unk
  | Pr_secure ->
      (match hdl () with
      | Some h ->
          use ctx ~loc h;
          record ctx h (fun p -> { p with Summary.secures = true });
          (match h.phase with
          | P_fresh | P_held | P_sent -> h.phase <- P_secured
          | _ -> ())
      | None -> ());
      Unk
  | Pr_free ->
      (match hdl () with
      | Some h ->
          let dom = dom_string (Rules.labelled "dom" args) in
          (if h.phase = P_freed then
             report ctx ~rule:"C1" ~loc
               "double free: every reference to this fbuf was already \
                relinquished"
           else
             match dom with
             | Some d when SS.mem d h.freed_doms ->
                 report ctx ~rule:"C1" ~loc
                   (Printf.sprintf
                      "double free: the reference held by %s was already \
                       relinquished"
                      d)
             | _ -> ());
          record ctx h (fun p -> { p with Summary.consumes = true });
          h.consumed <- true;
          (match dom with
          | Some d -> h.freed_doms <- SS.add d h.freed_doms
          | None -> ());
          (match h.refs with
          | Some n ->
              let n' = n - 1 in
              h.refs <- Some (max n' 0);
              if n' <= 0 then h.phase <- P_freed
          | None -> ())
      | None -> ());
      Unk
  | Pr_write ->
      (match hdl () with
      | Some h ->
          use ctx ~loc h;
          record ctx h (fun p -> { p with Summary.writes = true });
          let as_ = dom_string (Rules.labelled "as_" args) in
          (match h.phase with
          | P_secured ->
              report ctx ~rule:"C3" ~loc
                "write to a secured fbuf: write permission was revoked at \
                 secure"
          | P_sent when writer_is_src h as_ ->
              report ctx ~rule:"C3" ~loc
                "originator write to a sent fbuf: in-flight payloads are \
                 immutable (paper section 3.1)"
          | _ -> ())
      | None -> ());
      Unk
  | Pr_read ->
      (match hdl () with
      | Some h ->
          use ctx ~loc h;
          record ctx h (fun p -> { p with Summary.reads = true });
          if h.phase = P_sent && h.volatile then
            report ctx ~rule:"C4" ~loc
              "read from a volatile fbuf before secure: the originator can \
               still change the bytes under the reader (paper section 3.2)"
      | None -> ());
      Unk
  | Pr_use_only ->
      (match hdl () with Some h -> use ctx ~loc h | None -> ());
      Unk
  | Pr_escape ->
      List.iter
        (fun (_, a, v) ->
          match v with
          | Hdl id ->
              use ctx ~loc:a.pexp_loc (hstate ctx id);
              escape ctx v
          | _ -> ())
        argvals;
      Unk

and apply_summary ctx e d argvals =
  let s = ctx.lookup d in
  let nformals = List.length d.Callgraph.params in
  let actual_for = Array.make (max nformals 1) Unk in
  let upos = ref 0 in
  List.iter
    (fun (lbl, a, v) ->
      let fi = formal_index d.Callgraph.params lbl !upos in
      if lbl = Asttypes.Nolabel then incr upos;
      match v with
      | Hdl id -> (
          let h = hstate ctx id in
          match fi with
          | Some i when i < nformals ->
              actual_for.(i) <- v;
              let ps =
                if i < Array.length s.Summary.params then s.Summary.params.(i)
                else Summary.bot_param
              in
              use ctx ~loc:a.pexp_loc h;
              if ps.Summary.sends || ps.Summary.consumes then h.exact <- false;
              if ps.Summary.reads then begin
                record ctx h (fun p -> { p with Summary.reads = true });
                if h.phase = P_sent && h.volatile then
                  report ctx ~rule:"C4" ~loc:e.pexp_loc
                    (Printf.sprintf
                       "read from a volatile fbuf before secure (via %s): \
                        the originator can still change the bytes under the \
                        reader (paper section 3.2)"
                       d.Callgraph.qname)
              end;
              if ps.Summary.writes then begin
                record ctx h (fun p -> { p with Summary.writes = true });
                (match h.phase with
                | P_secured ->
                    report ctx ~rule:"C3" ~loc:e.pexp_loc
                      (Printf.sprintf
                         "write to a secured fbuf (via %s): write \
                          permission was revoked at secure"
                         d.Callgraph.qname)
                | P_sent ->
                    report ctx ~rule:"C3" ~loc:e.pexp_loc
                      (Printf.sprintf
                         "originator write to a sent fbuf (via %s): \
                          in-flight payloads are immutable (paper section \
                          3.1)"
                         d.Callgraph.qname)
                | _ -> ())
              end;
              if ps.Summary.sends then begin
                record ctx h (fun p -> { p with Summary.sends = true });
                h.refs <- Option.map (fun n -> n + 1) h.refs;
                match h.phase with
                | P_fresh | P_held -> h.phase <- P_sent
                | _ -> ()
              end;
              if ps.Summary.secures then begin
                record ctx h (fun p -> { p with Summary.secures = true });
                match h.phase with
                | P_fresh | P_held | P_sent -> h.phase <- P_secured
                | _ -> ()
              end;
              if ps.Summary.consumes then begin
                record ctx h (fun p -> { p with Summary.consumes = true });
                h.consumed <- true;
                match h.refs with
                | Some n ->
                    let n' = n - 1 in
                    h.refs <- Some (max n' 0);
                    if n' <= 0 then h.phase <- P_freed
                | None -> ()
              end
          | _ -> escape ctx v)
      | _ -> ())
    argvals;
  match s.Summary.ret with
  | Summary.R_fresh { volatile } ->
      new_handle ctx ~origin:O_local ~volatile ~loc:e.pexp_loc
  | Summary.R_param i when i < Array.length actual_for -> actual_for.(i)
  | _ -> Unk

and apply_unknown ctx path argvals =
  let last = match List.rev path with l :: _ -> l | [] -> "" in
  if List.mem last Rules.release_names then begin
    (* An unresolved call with a release-family name: assume it consumes
       its handle arguments (no C2), learn nothing else. *)
    List.iter
      (fun (_, a, v) ->
        match v with
        | Hdl id ->
            let h = hstate ctx id in
            use ctx ~loc:a.pexp_loc h;
            record ctx h (fun p -> { p with Summary.consumes = true });
            h.consumed <- true;
            h.refs <- None;
            h.phase <- P_top
        | _ -> ())
      argvals;
    Unk
  end
  else begin
    List.iter (fun (_, _, v) -> escape ctx v) argvals;
    Unk
  end

(* ------------------------------------------------------------------ *)
(* Per-definition analysis                                             *)

let analyze_def ~cg ~lookup ~emit ~findings (d : Callgraph.def) =
  let nparams = List.length d.Callgraph.params in
  let ctx =
    {
      file = d.Callgraph.file;
      unit_name = d.Callgraph.unit_name;
      cg;
      lookup;
      emit;
      findings;
      handles = Hashtbl.create 16;
      next = ref 0;
      psums = Array.make nparams Summary.bot_param;
    }
  in
  let env, _ =
    List.fold_left
      (fun (env, i) (_, name) ->
        let env =
          match name with
          | Some x ->
              SM.add x
                (new_handle ctx ~origin:(O_borrowed (Some i)) ~volatile:false
                   ~loc:Location.none)
                env
          | None -> env
        in
        (env, i + 1))
      (SM.empty, 0) d.Callgraph.params
  in
  let ret_v = eval ctx env d.Callgraph.body in
  let ret =
    match ret_v with
    | Hdl id -> (
        let h = hstate ctx id in
        match h.origin with
        | O_borrowed (Some i) -> Summary.R_param i
        | O_local -> Summary.R_fresh { volatile = h.volatile }
        | O_borrowed None -> Summary.R_none)
    | _ -> Summary.R_none
  in
  (* Returning a handle is an ownership hand-off. *)
  (match ret_v with
  | Hdl id -> (hstate ctx id).escaped <- true
  | _ -> ());
  if emit then
    Hashtbl.iter
      (fun _ h ->
        let leak msg =
          findings :=
            F.v ~rule:"C2" ~file:ctx.file ~line:h.oline ~col:h.ocol msg
            :: !findings
        in
        if h.origin = O_local && not h.escaped then
          if not h.consumed then
            leak
              "fbuf allocated here is relinquished on no path and never \
               handed off: the reference is leaked on every exit"
          else
            match h.refs with
            | Some n when n > 0 && h.exact ->
                leak
                  (Printf.sprintf
                     "fbuf allocated here still holds %d reference(s) on \
                      every exit: a domain it was sent to never \
                      relinquishes its reference"
                     n)
            | _ -> ())
      ctx.handles;
  { Summary.params = Array.copy ctx.psums; ret }

(* ------------------------------------------------------------------ *)
(* [@lint.allow "C3"] suppression spans                                *)

let allow_spans str =
  let acc = ref [] in
  let payload (a : attribute) =
    match a.attr_payload with
    | PStr
        [
          {
            pstr_desc =
              Pstr_eval
                ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
            _;
          };
        ] ->
        Some s
    | _ -> None
  in
  let add attrs (loc : Location.t) =
    List.iter
      (fun (a : attribute) ->
        if a.attr_name.txt = "lint.allow" then
          match payload a with
          | Some s ->
              let rules =
                String.map (fun c -> if c = ',' then ' ' else c) s
                |> String.split_on_char ' '
                |> List.filter (fun x -> x <> "")
              in
              acc :=
                (rules, loc.loc_start.pos_lnum, loc.loc_end.pos_lnum) :: !acc
          | None -> ())
      attrs
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          add e.pexp_attributes e.pexp_loc;
          Ast_iterator.default_iterator.expr self e);
      value_binding =
        (fun self vb ->
          add vb.pvb_attributes vb.pvb_loc;
          Ast_iterator.default_iterator.value_binding self vb);
    }
  in
  it.structure it str;
  !acc

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let compute_summaries cg =
  Summary.compute cg ~analyze:(fun d ~lookup ->
      analyze_def ~cg ~lookup ~emit:false ~findings:(ref []) d)

let lint_units units =
  let cg = Callgraph.build units in
  let table, _rounds = compute_summaries cg in
  let findings = ref [] in
  List.iter
    (fun d ->
      if client_file d.Callgraph.file then
        ignore
          (analyze_def ~cg ~lookup:(Summary.find table) ~emit:true ~findings d
            : Summary.fsum))
    (Callgraph.defs cg);
  let spans =
    List.concat_map
      (fun (file, str) -> List.map (fun sp -> (file, sp)) (allow_spans str))
      units
  in
  let keep (f : F.t) =
    not
      (List.exists
         (fun (file, (rules, l1, l2)) ->
           file = f.F.file && List.mem f.F.rule rules && f.F.line >= l1
           && f.F.line <= l2)
         spans)
  in
  List.sort_uniq F.compare (List.filter keep !findings)

let lint_unit ~file ~impl =
  match Rules.parse ~file ~kind:`Impl impl with
  | Rules.Ok_impl str -> lint_units [ (file, str) ]
  | _ -> []

let summaries units =
  let cg = Callgraph.build units in
  let table, rounds = compute_summaries cg in
  ( List.map
      (fun d -> (d.Callgraph.qname, Summary.find table d))
      (Callgraph.defs cg),
    rounds )
