(* Domain partitioning for conservative parallel simulation.

   A partitioned world is N ordinary single-threaded worlds — each
   with its own [Sim] — sharing one [Topology] whose builders place
   every device in a partition.  Links whose ends share a partition are
   plain links; the rest are *conduits*: unidirectional cross-partition
   edges made here.  A conduit's link lives entirely in the source
   partition with zero propagation delay (the qdisc and serialization
   stay where the transmitting device is); the propagation across the
   cut is modelled by the conduit itself, which timestamps each
   delivered packet with [arrival = now + delay] and parks it in a
   per-conduit FIFO.  At every epoch barrier ([exchange], called by
   [Runner.Epoch.run] on the main domain only) the parked packets are
   scheduled into their destination sims as ordinary events.

   Lookahead: the epoch window length is the minimum conduit delay,
   so a packet emitted inside a window always arrives at or after the
   window's end — its destination partition cannot need it while the
   window is still running.  ([Sim.run_before] keeps windows
   half-open, so an arrival landing exactly on a boundary is
   scheduled before the window that executes it.)

   Packet ownership crosses the cut with the packet: the source
   partition drops every reference when the conduit fires (conduit
   links carry no pool, and the flit queue is drained at the
   barrier), and the destination only sees the packet after the
   barrier's happens-before edge.  Payloads are safe to hand over
   because the codebase never mutates a payload in place — headers
   are replaced with freshly built values ([Wire.add_feedback],
   [Mtp_switch.stamp]) — so no two domains ever race on one.

   Canonical exchange order makes the merge deterministic: flits are
   gathered per destination in conduit creation order (FIFO within a
   conduit) and stable-sorted by arrival time, so equal-time arrivals
   tie-break by (conduit creation index, emission order) — a pure
   function of simulation state, never of domain scheduling.  See
   DESIGN.md "Conservative parallel DES". *)

type flit = {
  f_at : Engine.Time.t;
  f_pkt : Packet.t;
  f_deliver : Packet.t -> unit;
}

type conduit = {
  c_dst : int;
  c_delay : Engine.Time.t;
  mutable c_q : flit list; (* reversed emission order *)
}

type t = {
  p_sims : Engine.Sim.t array;
  p_conduits : conduit list ref; (* reversed creation order *)
  p_topo : Topology.t;
}

let create ?(seed = 42) ~nparts () =
  if nparts < 1 then invalid_arg "Partition.create: nparts must be >= 1";
  let base = Engine.Rng.create seed in
  let sims =
    Array.init nparts (fun p ->
        Engine.Sim.create
          ~seed:(Engine.Rng.as_seed (Engine.Rng.derive base p))
          ())
  in
  let conduits = ref [] in
  let conduit ~src ~dst ~name ~rate ~delay ?qdisc ~deliver () =
    if delay <= 0 then
      invalid_arg "Partition: cross-partition delay must be > 0";
    let src_sim = sims.(src) in
    let link =
      Link.create src_sim ~name ~rate ~delay:Engine.Time.zero ?qdisc ()
    in
    let c = { c_dst = dst; c_delay = delay; c_q = [] } in
    Link.set_dst link (fun pkt ->
        c.c_q <-
          { f_at = Engine.Sim.now src_sim + c.c_delay;
            f_pkt = pkt;
            f_deliver = deliver }
          :: c.c_q);
    conduits := c :: !conduits;
    link
  in
  { p_sims = sims; p_conduits = conduits;
    p_topo = Topology.partitioned sims ~conduit }

let nparts t = Array.length t.p_sims

let sim t p = t.p_sims.(p)

let topology t = t.p_topo

let lookahead t =
  match !(t.p_conduits) with
  | [] -> invalid_arg "Partition.lookahead: world has no conduit"
  | c :: rest -> List.fold_left (fun acc c -> min acc c.c_delay) c.c_delay rest

(* Drain every conduit into its destination sim.  Runs on the main
   domain between epochs. *)
let exchange t =
  let conduits = List.rev !(t.p_conduits) in
  let n = nparts t in
  for dst = 0 to n - 1 do
    let flits =
      List.concat_map
        (fun c ->
          if c.c_dst = dst && c.c_q <> [] then begin
            let q = List.rev c.c_q in
            c.c_q <- [];
            q
          end
          else [])
        conduits
    in
    match flits with
    | [] -> ()
    | flits ->
      let flits =
        List.stable_sort (fun a b -> compare (a.f_at : int) b.f_at) flits
      in
      let dsim = t.p_sims.(dst) in
      List.iter
        (fun f ->
          ignore
            (Engine.Sim.schedule dsim ~at:f.f_at (fun () ->
                 f.f_deliver f.f_pkt)))
        flits
  done

let run ?(jobs = 1) ~until t =
  let lookahead = lookahead t in
  let parts =
    Array.map
      (fun s ->
        { Runner.Epoch.advance = (fun limit -> Engine.Sim.run_before s ~limit);
          finish = (fun u -> Engine.Sim.run ~until:u s);
          next_time = (fun () -> Engine.Sim.next_time s) })
      t.p_sims
  in
  Runner.Epoch.run ~jobs ~lookahead ~until ~exchange:(fun () -> exchange t)
    parts

(* The leaf-per-partition cut of [Topology.leaf_spine], with its links
   listed in one canonical order for digests and fault targeting. *)

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
  let per_leaf n f = List.concat (List.init leaves (fun l -> List.init n (f l))) in
  let links =
    Array.concat
      (per_leaf hosts_per_leaf (fun l i ->
           [| Node.uplink ls.Topology.ls_hosts.(l).(i);
              Switch.port ls.Topology.ls_leaves.(l) i |])
      @ per_leaf spines (fun l s ->
            [| ls.Topology.ls_uplinks.(l).(s);
               Switch.port ls.Topology.ls_spines.(s) l |]))
  in
  { pls_world = t;
    pls_hosts = ls.Topology.ls_hosts;
    pls_leaves = ls.Topology.ls_leaves;
    pls_spines = ls.Topology.ls_spines;
    pls_links = links;
    pls_link_part = Array.map (fun l -> Topology.part t.p_topo (Link.sim l)) links }
