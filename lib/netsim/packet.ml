type addr = int

type proto = ..

type proto += Raw

(* Every field is mutable so pooled packets can be re-initialised in
   place; code outside this module treats uid/src/dst/... as
   immutable.  The per-hop status bits (ECN CE, trimmed) live packed
   in one immediate [flags] word rather than as separate bool fields:
   the record stays one word smaller, a pool recycle resets both with
   a single store. *)
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

(* Free-list pool: [release] parks a packet, [take] re-initialises
   a parked one (or falls back to a fresh record).  Steady-state
   forwarding through a pool allocates nothing.  A parked packet keeps
   its payload for the next sender to refill.  The cap: a host that
   receives more than it sends would otherwise park the surplus for
   the rest of the run. *)
let max_parked = 4096

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

(* A parked packet's [uid] is -1, which no live packet carries (uids
   count up from 1), so a second release of the same packet is caught
   here instead of handing one record to two owners later. *)
let release p pkt =
  if pkt != none then begin
    if pkt.uid < 0 then invalid_arg "Packet.release: packet already released";
    pkt.uid <- -1;
    p.released <- p.released + 1;
    let n = p.free_len in
    if n < max_parked then begin
      if n = Array.length p.free then begin
        let free = Array.make (Int.min max_parked (2 * n)) none in
        Array.blit p.free 0 free 0 n;
        p.free <- free
      end;
      p.free.(n) <- pkt;
      p.free_len <- n + 1
    end
  end

let parked_payload p =
  if p.free_len = 0 then Raw else p.free.(p.free_len - 1).payload

(* The one constructor, with every label required: an optional
   argument would box each value given. *)
let take p ~entity ~prio ~flow_hash ~payload ~src ~dst ~size =
  if size <= 0 then invalid_arg "Packet.take: size must be positive";
  if p.free_len = 0 then begin
    p.fresh <- p.fresh + 1;
    { uid = Engine.Sim.fresh_uid p.pool_sim; src; dst; size; flags = 0;
      entity; prio; flow_hash;
      created_at = Engine.Sim.now p.pool_sim; payload }
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
    pkt.entity <- entity;
    pkt.prio <- prio;
    pkt.flow_hash <- flow_hash;
    pkt.created_at <- Engine.Sim.now p.pool_sim;
    pkt.payload <- payload;
    pkt
  end

let recycle ?(flow_hash = 0) p ~src ~dst ~size () =
  take p ~entity:0 ~prio:0 ~flow_hash ~payload:Raw ~src ~dst ~size

let pool_sim p = p.pool_sim

let pool_free p = p.free_len

let pool_stats p = (p.fresh, p.reused)

(* Checked out through the pool and not yet released. *)
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
