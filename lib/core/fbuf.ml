open Fbufs_vm

type variant = { cached : bool; volatile : bool }

let cached_volatile = { cached = true; volatile = true }
let volatile_only = { cached = false; volatile = true }
let cached_only = { cached = true; volatile = false }
let plain = { cached = false; volatile = false }

let variant_name v =
  match (v.cached, v.volatile) with
  | true, true -> "cached/volatile"
  | false, true -> "volatile"
  | true, false -> "cached"
  | false, false -> "plain"

type state = Active | Cached_free | Dead

type t = {
  id : int;
  base_vpn : int;
  npages : int;
  variant : variant;
  path : Path.t;
  m : Fbufs_sim.Machine.t;
  mutable state : state;
  mutable secured : bool;
  refs : (int, int) Hashtbl.t;
  mutable mapped_in : Pd.t list;
  mutable on_all_freed : (t -> unit) option;
  mutable last_alloc_us : float;
  mutable xfer : int;  (* causal transfer carrying this fbuf; 0 = none *)
  mutable accounted : bool;
      (* pages charged to the path's held-page account (buffer-sharing);
         set at allocation, cleared when the buffer parks without frames,
         is paged out, or dies — see Allocator *)
}

let make ~m ~id ~base_vpn ~npages ~variant ~path =
  {
    id;
    base_vpn;
    npages;
    variant;
    path;
    m;
    state = Active;
    secured = false;
    refs = Hashtbl.create 4;
    mapped_in = [];
    on_all_freed = None;
    last_alloc_us = 0.0;
    xfer = 0;
    accounted = false;
  }

let originator t = Path.originator t.path
let vaddr t = t.base_vpn * t.m.Fbufs_sim.Machine.cost.Fbufs_sim.Cost_model.page_size
let size t = t.npages * t.m.Fbufs_sim.Machine.cost.Fbufs_sim.Cost_model.page_size

let ref_count t (d : Pd.t) =
  match Hashtbl.find_opt t.refs d.Pd.id with Some n -> n | None -> 0

let total_refs t = Hashtbl.fold (fun _ n acc -> acc + n) t.refs 0

let add_ref t (d : Pd.t) =
  Hashtbl.replace t.refs d.Pd.id (ref_count t d + 1)

let drop_ref t (d : Pd.t) =
  let n = ref_count t d in
  if n <= 0 then
    invalid_arg
      (Printf.sprintf "Fbuf.drop_ref: %s holds no reference to fbuf#%d"
         d.Pd.name t.id);
  if n = 1 then Hashtbl.remove t.refs d.Pd.id
  else Hashtbl.replace t.refs d.Pd.id (n - 1)

let is_mapped_in t (d : Pd.t) =
  Pd.equal d (originator t) || List.exists (Pd.equal d) t.mapped_in

let pp ppf t =
  Format.fprintf ppf "fbuf#%d[%s,%dp@%#x,%s]" t.id
    (variant_name t.variant) t.npages (vaddr t)
    (match t.state with
    | Active -> "active"
    | Cached_free -> "cached-free"
    | Dead -> "dead")
