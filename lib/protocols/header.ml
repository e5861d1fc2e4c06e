open Fbufs
module Msg = Fbufs_msg.Msg

let prepend ~alloc ~as_ hdr msg =
  let fb = Allocator.alloc alloc ~npages:1 in
  Fbuf_api.write_bytes fb ~as_ ~off:0 hdr;
  (fb, Msg.join (Msg.of_fbuf fb ~off:0 ~len:(Bytes.length hdr)) msg)

let release_header ~dom fb =
  if Fbuf.ref_count fb dom > 0 then Transfer.free fb ~dom

let peek msg ~as_ ~len =
  if Msg.length msg < len then
    invalid_arg
      (Printf.sprintf "Header.peek: message of %d bytes, header needs %d"
         (Msg.length msg) len);
  Msg.sub_bytes msg ~as_ ~off:0 ~len

let free_stripped ~dom ~pdu ~payload =
  let kept = Msg.fbufs payload in
  List.iter
    (fun (fb : Fbuf.t) ->
      let shared =
        List.exists (fun (k : Fbuf.t) -> k.Fbuf.id = fb.Fbuf.id) kept
      in
      if (not shared) && Fbuf.ref_count fb dom > 0 then
        Transfer.free fb ~dom)
    (Msg.fbufs pdu)

let get_u16 b i = (Char.code (Bytes.get b i) lsl 8) lor Char.code (Bytes.get b (i + 1))

let set_u16 b i v =
  Bytes.set b i (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (i + 1) (Char.chr (v land 0xFF))

let get_u32 b i =
  (Char.code (Bytes.get b i) lsl 24)
  lor (Char.code (Bytes.get b (i + 1)) lsl 16)
  lor (Char.code (Bytes.get b (i + 2)) lsl 8)
  lor Char.code (Bytes.get b (i + 3))

let set_u32 b i v =
  Bytes.set b i (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set b (i + 1) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b (i + 2) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (i + 3) (Char.chr (v land 0xFF))

let strip pdu ~as_ ~stats ~proto ~size ~magic ~len_at =
  let drop why =
    Fbufs_sim.Stats.incr stats (proto ^ why);
    None
  in
  if Msg.length pdu < size then drop ".short_pdu"
  else
    let hdr = peek pdu ~as_ ~len:size in
    if get_u16 hdr 0 <> magic then drop ".bad_header"
    else
      let len = get_u32 hdr len_at in
      if len > Msg.length pdu - size then drop ".bad_length"
      else Some (hdr, Msg.truncate (Msg.clip pdu size) len)
