type addr = int

type proto = ..

type proto += Raw

(* Every field is mutable so pooled packets can be re-initialised in
   place; code outside this module treats uid/src/dst/... as
   immutable.  The per-hop status bits (ECN CE, trimmed) live packed
   in one immediate [flags] word rather than as separate bool fields:
   the record stays one word smaller, a pool recycle resets both with
   a single store, and the batched datapath copies hot metadata with
   fewer loads. *)
type t = {
  mutable uid : int;
  mutable src : addr;
  mutable dst : addr;
  mutable size : int;
  mutable flags : int;
  mutable entity : int;
  mutable prio : int;
  mutable flow_hash : int;
  mutable created_at : Engine.Time.t;
  mutable payload : proto;
}

let flag_ecn_ce = 1

let flag_trimmed = 2

let ecn_ce p = p.flags land flag_ecn_ce <> 0

let trimmed p = p.flags land flag_trimmed <> 0

let set_ecn_ce p = p.flags <- p.flags lor flag_ecn_ce

let set_trimmed p = p.flags <- p.flags lor flag_trimmed

let none =
  (* simlint: allow P101 — write-free sentinel: [release] refuses it and every other use is a physical-equality test or a pool-slot filler, so nothing mutates it after module init *)
  { uid = -1; src = -1; dst = -1; size = 0; flags = 0;
    entity = 0; prio = 0; flow_hash = 0; created_at = 0; payload = Raw }

let make ~entity ~prio ~flow_hash ~payload sim ~src ~dst ~size =
  if size <= 0 then invalid_arg "Packet.make: size must be positive";
  { uid = Engine.Sim.fresh_uid sim; src; dst; size; flags = 0;
    entity; prio; flow_hash;
    created_at = Engine.Sim.now sim; payload }

(* Free-list pool: [release] parks a packet, [recycle] re-initialises
   a parked one (or falls back to a fresh record).  Steady-state
   forwarding through a pool allocates nothing. *)

type pool = {
  pool_sim : Engine.Sim.t;
  mutable free : t array;
  mutable free_len : int;
  mutable fresh : int;
  mutable reused : int;
  mutable released : int;
}

let pool sim =
  { pool_sim = sim;
    free = Array.make 64 none;
    free_len = 0;
    fresh = 0;
    reused = 0;
    released = 0 }

let release p pkt =
  if pkt != none then begin
    p.released <- p.released + 1;
    (* Drop the payload so a parked packet retains no protocol state. *)
    pkt.payload <- Raw;
    if p.free_len = Array.length p.free then begin
      let free = Array.make (2 * p.free_len) none in
      Array.blit p.free 0 free 0 p.free_len;
      p.free <- free
    end;
    p.free.(p.free_len) <- pkt;
    p.free_len <- p.free_len + 1
  end

let recycle ?(flow_hash = 0) ?(payload = Raw) p ~src ~dst ~size () =
  if size <= 0 then invalid_arg "Packet.make: size must be positive";
  if p.free_len = 0 then begin
    p.fresh <- p.fresh + 1;
    make ~entity:0 ~prio:0 ~flow_hash ~payload p.pool_sim ~src ~dst ~size
  end
  else begin
    let n = p.free_len - 1 in
    p.free_len <- n;
    let pkt = p.free.(n) in
    p.free.(n) <- none;
    p.reused <- p.reused + 1;
    pkt.uid <- Engine.Sim.fresh_uid p.pool_sim;
    pkt.src <- src;
    pkt.dst <- dst;
    pkt.size <- size;
    pkt.flags <- 0;
    pkt.entity <- 0;
    pkt.prio <- 0;
    pkt.flow_hash <- flow_hash;
    pkt.created_at <- Engine.Sim.now p.pool_sim;
    pkt.payload <- payload;
    pkt
  end

let pool_free p = p.free_len

let pool_stats p = (p.fresh, p.reused)

(* Checked out through the pool and not yet released.  Packets made
   with [make] directly (bypassing [recycle]) are invisible here. *)
let pool_live p = p.fresh + p.reused - p.released

(* FNV-1a over the four tuple components: stable across runs, well
   spread in the low bits used for ECMP modulo. *)
let flow_hash_of ~src ~dst ~src_port ~dst_port =
  let fnv h x =
    let h = h lxor (x land 0xffff) in
    h * 0x01000193 land max_int
  in
  let h = 0x811c9dc5 in
  let h = fnv h src in
  let h = fnv h dst in
  let h = fnv h src_port in
  fnv h dst_port
