open Fbufs_sim
module Msg = Fbufs_msg.Msg

let header_size = 20
let magic = 0x4950

type reasm = {
  mutable got : (int * Msg.t) list; (* (offset, payload) *)
  mutable bytes : int;
  mutable total : int option; (* known once the last fragment arrives *)
}

type t = {
  dom : Fbufs_vm.Pd.t;
  below : Fbufs_xkernel.Protocol.t;
  header_alloc : Fbufs.Allocator.t;
  pdu_size : int;
  proto : Fbufs_xkernel.Protocol.t;
  mutable up : Fbufs_xkernel.Protocol.t option;
  mutable next_id : int;
  table : (int, reasm) Hashtbl.t;
  mutable fragments_sent : int;
  mutable reassemblies : int;
}

let proto t = t.proto
let set_up t p = t.up <- Some p
let fragments_sent t = t.fragments_sent
let reassemblies_completed t = t.reassemblies

let make_header ~total ~id ~off ~len ~more =
  let b = Bytes.create header_size in
  Header.set_u16 b 0 magic;
  Header.set_u32 b 2 total;
  Header.set_u32 b 6 id;
  Header.set_u32 b 10 off;
  Header.set_u32 b 14 len;
  Bytes.set b 18 (if more then '\001' else '\000');
  Bytes.set b 19 '\000';
  b

let charge_frag t =
  let m = Fbufs_xkernel.Protocol.machine t.proto in
  Machine.charge ~comp:Fbufs_metrics.Component.Proto m
    m.Machine.cost.Cost_model.frag_op;
  Stats.incr m.Machine.stats "ip.frag_op"

let push t msg =
  let m = Fbufs_xkernel.Protocol.machine t.proto in
  let csp = Machine.span_enter m ~domain:t.dom.Fbufs_vm.Pd.name "ip.push" in
  Fbufs_xkernel.Protocol.charge_op t.proto;
  let total = Msg.length msg in
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let rec send off rest =
    let len = min t.pdu_size (Msg.length rest) in
    let frag, rest = Msg.split rest len in
    let more = not (Msg.is_empty rest) in
    if more || off > 0 then charge_frag t;
    let hdr = make_header ~total ~id ~off ~len ~more in
    let hdr_fb, pdu =
      Header.prepend ~alloc:t.header_alloc ~as_:t.dom hdr frag
    in
    t.fragments_sent <- t.fragments_sent + 1;
    t.below.Fbufs_xkernel.Protocol.push pdu;
    (* The push is synchronous: downstream consumers (driver DMA or the
       receive side of a loopback) are done with this PDU's header. *)
    Header.release_header ~dom:t.dom hdr_fb;
    if more then send (off + len) rest
  in
  send 0 msg;
  Machine.span_exit m csp

let deliver_up t msg =
  match t.up with
  | Some up -> up.Fbufs_xkernel.Protocol.pop msg
  | None -> failwith "Ip: no upper protocol wired"

let pop t pdu =
  let m = Fbufs_xkernel.Protocol.machine t.proto in
  let csp = Machine.span_enter m ~domain:t.dom.Fbufs_vm.Pd.name "ip.pop" in
  Fbufs_xkernel.Protocol.charge_op t.proto;
  (match
     Header.strip pdu ~as_:t.dom ~stats:m.Machine.stats ~proto:"ip"
       ~size:header_size ~magic ~len_at:14
   with
  | None -> ()
  | Some (hdr, payload) ->
      let total = Header.get_u32 hdr 2 in
      let id = Header.get_u32 hdr 6 in
      let off = Header.get_u32 hdr 10 in
      let len = Header.get_u32 hdr 14 in
      let more = Bytes.get hdr 18 = '\001' in
      Header.free_stripped ~dom:t.dom ~pdu ~payload;
      if (not more) && off = 0 then deliver_up t payload
      else begin
        charge_frag t;
        let r =
          match Hashtbl.find_opt t.table id with
          | Some r -> r
          | None ->
              let r = { got = []; bytes = 0; total = None } in
              Hashtbl.add t.table id r;
              r
        in
        r.got <- (off, payload) :: r.got;
        r.bytes <- r.bytes + len;
        if not more then r.total <- Some total;
        match r.total with
        | Some want when r.bytes >= want ->
            Hashtbl.remove t.table id;
            let parts =
              List.sort (fun (a, _) (b, _) -> compare a b) r.got
            in
            let whole =
              List.fold_left (fun acc (_, p) -> Msg.join acc p) Msg.empty parts
            in
            t.reassemblies <- t.reassemblies + 1;
            deliver_up t whole
        | Some _ | None -> ()
      end);
  Machine.span_exit m csp

let create ~dom ~below ~header_alloc ?(pdu_size = 4096) () =
  if pdu_size <= 0 then invalid_arg "Ip.create: pdu_size must be positive";
  let proto = Fbufs_xkernel.Protocol.create ~name:"ip" ~dom () in
  let t =
    {
      dom;
      below;
      header_alloc;
      pdu_size;
      proto;
      up = None;
      next_id = 1;
      table = Hashtbl.create 16;
      fragments_sent = 0;
      reassemblies = 0;
    }
  in
  proto.Fbufs_xkernel.Protocol.push <- push t;
  proto.Fbufs_xkernel.Protocol.pop <- pop t;
  t
