(* Domain partitioning for conservative parallel simulation.

   A partitioned world is N ordinary single-threaded worlds — each
   with its own [Sim] — sharing one [Topology] whose builders place
   every device in a partition.  Links whose ends share a partition are
   plain links; the rest are *conduits*: unidirectional cross-partition
   edges made here.  A conduit's link lives entirely in the source
   partition with zero propagation delay (the qdisc and serialization
   stay where the transmitting device is); the propagation across the
   cut is modelled by the conduit itself, which stamps each delivered
   packet with [arrival = now + delay] and pushes it onto the
   conduit's source-side ring (the outbox).  At every epoch barrier
   ([exchange], called by [Runner.Epoch.run] on the main domain only)
   each outbox moves into the conduit's destination-side ring (the
   inbox), which one re-armable timer in the destination sim drains.

   Lookahead: the epoch window length is the minimum conduit delay,
   so a packet emitted inside a window always arrives at or after the
   window's end — its destination partition cannot need it while the
   window is still running.  ([Sim.run_before] keeps windows
   half-open, so an arrival landing exactly on a boundary is
   scheduled before the window that executes it.)

   Packet ownership crosses the cut with the packet: the source
   partition drops every reference when the conduit fires (a packet
   its conduit link drops parks in the source partition's pool, and
   the outbox is drained at the barrier), and the destination only
   sees the packet after the barrier's happens-before edge.  Payloads
   travel with the same ownership: a header belongs to one packet
   (one header, one packet — rewriters copy, and the host that claims
   a packet parks it, header and all, for a later send of its own), so
   every write a payload sees (the stamp of an MTP header's feedback
   list, [Mtp_switch.stamp], and that refill) is made by whoever holds
   that packet, and no two domains ever race on one.

   Canonical order without a sort.  The exchange walks the conduits in
   creation order and reserves the destination sim's next seq
   ([Sim.reserve_seq]) for each flit as it moves it, so:
   - a barrier's flits take one contiguous seq block in each
     destination sim, and one seq per flit, so every later event keeps
     the seq it would have had with an eager [Sim.schedule] per flit;
   - within the block, equal-time flits are ordered by (conduit
     creation index, emission order); flits at different times are
     ordered by time anyway — the order a stable sort by arrival time
     of the per-destination gathering would give.
   Only the inbox head is armed ([Sim.arm_reserved] at its stored
   (arrival, seq)).  When it fires it pops itself and arms the next
   head before delivering; within a conduit arrivals and seqs both
   grow in FIFO order, so the next head's key is larger than the key
   that just fired and smaller than every flit behind it.  Dispatch
   order and [Sim.next_time] are therefore exactly those of scheduling
   every flit eagerly — a pure function of simulation state, never of
   domain scheduling — while the exchange costs O(1) per flit and
   allocates nothing beyond amortised ring growth.  See DESIGN.md
   "Conservative parallel DES". *)

(* A FIFO of flits over parallel arrays: arrival time, reserved seq
   (inbox only) and packet.  Rings own no storage until their first
   push, since most conduits of a large fabric never carry a packet in
   a short run; vacated slots are overwritten with [Packet.none]. *)
type ring = {
  mutable r_at : Engine.Time.t array;
  mutable r_seq : int array;
  mutable r_pkt : Packet.t array;
  mutable r_head : int;
  mutable r_len : int;
}

let ring () = { r_at = [||]; r_seq = [||]; r_pkt = [||]; r_head = 0; r_len = 0 }

let grow r =
  let cap = Array.length r.r_pkt in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let at = Array.make ncap 0 in
  let seq = Array.make ncap 0 in
  let pkt = Array.make ncap Packet.none in
  for i = 0 to r.r_len - 1 do
    let j = (r.r_head + i) mod cap in
    at.(i) <- r.r_at.(j);
    seq.(i) <- r.r_seq.(j);
    pkt.(i) <- r.r_pkt.(j)
  done;
  r.r_at <- at;
  r.r_seq <- seq;
  r.r_pkt <- pkt;
  r.r_head <- 0

let push r ~at ~seq p =
  if r.r_len = Array.length r.r_pkt then grow r;
  let i = r.r_head + r.r_len in
  let cap = Array.length r.r_pkt in
  let i = if i >= cap then i - cap else i in
  r.r_at.(i) <- at;
  r.r_seq.(i) <- seq;
  r.r_pkt.(i) <- p;
  r.r_len <- r.r_len + 1

(* Remove the head flit; read its time and seq first. *)
let pop r =
  let h = r.r_head in
  let p = r.r_pkt.(h) in
  r.r_pkt.(h) <- Packet.none;
  r.r_head <- (if h + 1 = Array.length r.r_pkt then 0 else h + 1);
  r.r_len <- r.r_len - 1;
  p

type conduit = {
  c_delay : Engine.Time.t;
  c_dst : Engine.Sim.t;
  c_out : ring;  (* source side: filled while a window runs *)
  c_in : ring;  (* destination side: drained by [c_timer] *)
  c_deliver : Packet.t -> unit;
  mutable c_timer : Engine.Sim.timer;  (* armed iff [c_in] is non-empty *)
}

(* The inbox timer: deliver the head, after arming the next one at its
   reserved key. *)
let fire c =
  let inbox = c.c_in in
  let p = pop inbox in
  if inbox.r_len > 0 then
    Engine.Sim.arm_reserved c.c_timer ~at:inbox.r_at.(inbox.r_head)
      ~seq:inbox.r_seq.(inbox.r_head);
  c.c_deliver p

(* Conduits in creation order.  They are made only while a topology is
   built, so [order] is rebuilt from [rev] only when one was added. *)
type registry = {
  mutable rev : conduit list;
  mutable count : int;
  mutable order : conduit array;
}

type t = {
  p_sims : Engine.Sim.t array;
  p_conduits : registry;
  p_topo : Topology.t;
}

let create ?(seed = 42) ~nparts () =
  if nparts < 1 then invalid_arg "Partition.create: nparts must be >= 1";
  let base = Engine.Rng.create seed in
  let sims =
    Array.init nparts (fun p ->
        Engine.Sim.create
          (* simlint: allow H103 — once per partition, at creation *)
          ~seed:(Engine.Rng.as_seed (Engine.Rng.derive base p))
          ())
  in
  let reg = { rev = []; count = 0; order = [||] } in
  let unarmed = Engine.Sim.timer sims.(0) ignore in
  let conduit pool ~dst ~name ~rate ~delay ?qdisc ~deliver () =
    if delay <= 0 then
      invalid_arg "Partition: cross-partition delay must be > 0";
    let src_sim = Packet.pool_sim pool and dst_sim = sims.(dst) in
    let link = Link.create pool ~name ~rate ~delay:Engine.Time.zero ?qdisc () in
    let c =
      { c_delay = delay; c_dst = dst_sim; c_out = ring (); c_in = ring ();
        c_deliver = deliver; c_timer = unarmed }
    in
    c.c_timer <- Engine.Sim.timer dst_sim (fun () -> fire c);
    Link.set_dst link (fun pkt ->
        push c.c_out ~at:(Engine.Sim.now src_sim + c.c_delay) ~seq:0 pkt);
    reg.rev <- c :: reg.rev;
    reg.count <- reg.count + 1;
    link
  in
  { p_sims = sims; p_conduits = reg;
    p_topo = Topology.partitioned sims ~conduit }

let sim t p = t.p_sims.(p)

let topology t = t.p_topo

let lookahead t =
  match t.p_conduits.rev with
  | [] -> invalid_arg "Partition.lookahead: world has no conduit"
  | c :: rest ->
    List.fold_left (fun acc c -> Int.min acc c.c_delay) c.c_delay rest

(* Move one conduit's outbox into its inbox, reserving a destination
   seq per flit, and arm the inbox timer if it was idle. *)
let move c =
  let outbox = c.c_out and inbox = c.c_in in
  if outbox.r_len > 0 then begin
    let idle = inbox.r_len = 0 in
    while outbox.r_len > 0 do
      let at = outbox.r_at.(outbox.r_head) in
      let p = pop outbox in
      push inbox ~at ~seq:(Engine.Sim.reserve_seq c.c_dst) p
    done;
    if idle then
      Engine.Sim.arm_reserved c.c_timer ~at:inbox.r_at.(inbox.r_head)
        ~seq:inbox.r_seq.(inbox.r_head)
  end

(* Runs on the main domain between epochs: move every conduit's outbox
   into its destination-side inbox, reserving one destination seq per
   flit in conduit creation order, so deliveries dispatch in canonical
   order (arrival time, then conduit creation order, then emission
   order).  O(1) per flit, no sort, and no allocation beyond amortised
   ring growth. *)
let exchange t =
  let reg = t.p_conduits in
  if Array.length reg.order <> reg.count then
    reg.order <- Array.of_list (List.rev reg.rev);
  Array.iter move reg.order

let run ?(jobs = 1) ~until t =
  let lookahead = lookahead t in
  let staged = Array.map (fun _ -> Telemetry.Ctx.stage ()) t.p_sims in
  let absorb () =
    if Telemetry.Ctx.on () then Array.iter Telemetry.Ctx.absorb staged
  in
  let parts =
    Array.mapi
      (fun i s ->
        let under = Telemetry.Ctx.within staged.(i) in
        { Runner.Epoch.advance =
            under (fun limit -> Engine.Sim.run_before s ~limit);
          (* simlint: allow H103 — once per run, after the last window *)
          finish = under (fun u -> Engine.Sim.run ~until:u s);
          next_time = (fun () -> Engine.Sim.next_time s) })
      t.p_sims
  in
  (* simlint: allow H103 — once per run *)
  Runner.Epoch.run ~jobs ~lookahead ~until
    ~exchange:(fun () ->
      absorb ();
      exchange t)
    parts;
  absorb ()

(* The leaf-per-partition cut of [Topology.leaf_spine]; its links are
   the topology's, in creation order. *)

type leaf_spine = {
  pls_world : t;
  pls_hosts : Node.t array array;
  pls_leaves : Switch.t array;
  pls_spines : Switch.t array;
  pls_links : Link.t array;
  pls_link_part : int array;
}

let leaf_spine ?seed ~leaves ~spines ~hosts_per_leaf ~host_rate ~fabric_rate
    ~delay ?uplink_qdisc () =
  if leaves < 2 then invalid_arg "Partition.leaf_spine: need >= 2 leaves";
  let t = create ?seed ~nparts:leaves () in
  let ls =
    Topology.leaf_spine t.p_topo ~leaves ~spines ~hosts_per_leaf ~host_rate
      ~fabric_rate ~delay ?uplink_qdisc ()
  in
  let links = Topology.links t.p_topo in
  { pls_world = t;
    pls_hosts = ls.Topology.ls_hosts;
    pls_leaves = ls.Topology.ls_leaves;
    pls_spines = ls.Topology.ls_spines;
    pls_links = links;
    pls_link_part =
      Array.map (fun l -> Topology.part t.p_topo (Link.sim l)) links }
