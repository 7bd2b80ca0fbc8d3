(* Build and drive one fuzz scenario from a Spec.

   Everything observable is funneled into a single rendered string
   ([digest]): an event trace (message deliveries and completions,
   periodic queue samples) plus a footer of final per-device and
   per-stack counters.  The differential runner re-renders the same
   spec under a paired configuration and compares digests
   byte-for-byte — anything a user could see must appear here, and
   nothing nondeterministic (wall clock, event counts that batching
   legitimately changes) may.

   One build serves the single-sim world and the partitioned one (one
   partition per leaf or pod, two for the smaller shapes): the
   topology places and lists every device (hosts in address order),
   and all workload state is kept per partition — each trace buffer,
   monotone oracle and fault plan belongs to one partition, and a
   flow's completion slot is written only by its source host's
   partition.  The ledger and MTP endpoints are read on main after
   the run.  A partitioned digest concatenates the per-partition
   traces in partition order, a canonical merge: the single-sim
   interleave depends on one global heap's tie-breaking, which a
   partitioned world deliberately does not reproduce, so partitioned
   digests are compared with each other across [jobs] values, never
   with the single-sim one.

   The ledger watches every link and switch, and in a single-sim build
   the topology's one pool; a partitioned build leaves the pool out,
   since packets cross pools there and conduit rings are not links. *)

open Netsim

type fault_mode = As_spec | Noop

type t = {
  topo : Topology.t;
  run_world : jobs:int -> until:Engine.Time.t -> unit;
  links : Link.t array;
  switches : Switch.t array;
  host_wraps : Host.t array;
  stacks : Transport_intf.packed array;
  endpoints : Mtp.Endpoint.t list; (* non-empty only for T_mtp *)
  plans : Fault.t option array; (* per partition *)
  ledger : Ledger.t;
  monotone : Oracle.monotone array; (* per partition *)
  completions : int array;
  traces : Buffer.t array; (* per partition *)
  duration : Engine.Time.t;
}

(* Distinct RED instances need distinct-but-deterministic streams; a
   per-build counter keyed into the spec seed keeps creation-order
   determinism across paired runs. *)
let make_qdisc spec counter () =
  incr counter;
  match spec.Spec.qdisc with
  | Spec.Q_fifo cap -> Qdisc.fifo ~cap_pkts:cap ()
  | Spec.Q_ecn { cap; thresh } ->
    Qdisc.ecn ~cap_pkts:cap ~mark_threshold:thresh ()
  | Spec.Q_red { cap; min_th; max_th } ->
    let rng = Engine.Rng.create (0x4ED lxor spec.Spec.seed lxor !counter) in
    (* Generated thresholds can overshoot the capacity; clamp them
       into the range [Qdisc.red] accepts. *)
    let max_th = min cap (max max_th (min_th + 1)) in
    Qdisc.red ~rng ~cap_pkts:cap ~min_th ~max_th ()
  | Spec.Q_trim cap -> Qdisc.trimming ~cap_pkts:cap ()

(* Hosts eligible as flow sources/destinations, in a deterministic
   order; flow indices are reduced mod these arrays so any spec maps
   onto any topology. *)
type endpoints_shape = { srcs : Node.t array; dsts : Node.t array }

let build_topology spec topo =
  let rate = Engine.Time.mbps spec.Spec.rate_mbps in
  let delay = Engine.Time.us spec.Spec.delay_us in
  let counter = ref 0 in
  let q = make_qdisc spec counter in
  let every_host () =
    let all = Topology.hosts topo in
    { srcs = all; dsts = all }
  in
  match spec.Spec.topo with
  | Spec.Pair ->
    let a = Topology.host topo "a"
    and b = Topology.host ~part:(Topology.place topo ~groups:2 1) topo "b" in
    ignore
      (Topology.wire_host_pair topo a b ~rate ~delay ~ab_qdisc:(q ())
         ~ba_qdisc:(q ()) ());
    every_host ()
  | Spec.Star n ->
    ignore (Topology.star topo ~n ~rate ~delay ~server_qdisc:(q ()) ());
    every_host ()
  | Spec.Dumbbell n ->
    let db =
      Topology.dumbbell topo ~n ~edge_rate:rate ~bottleneck_rate:rate ~delay
        ~bottleneck_qdisc:(q ()) ()
    in
    { srcs = db.Topology.db_senders; dsts = db.Topology.db_receivers }
  | Spec.Two_path ->
    let tp =
      Topology.two_path topo ~rate_a:rate ~rate_b:rate ~delay_a:delay
        ~delay_b:(2 * delay) ~edge_rate:(2 * rate) ~qdisc_a:(q ())
        ~qdisc_b:(q ()) ()
    in
    { srcs = [| tp.Topology.tp_src |]; dsts = [| tp.Topology.tp_dst |] }
  | Spec.Leaf_spine { leaves; spines; hosts } ->
    ignore
      (Topology.leaf_spine topo ~leaves ~spines ~hosts_per_leaf:hosts
         ~host_rate:rate ~fabric_rate:rate ~delay ~uplink_qdisc:q ());
    every_host ()
  | Spec.Fat_tree { k } ->
    ignore
      (Topology.fat_tree topo ~k ~host_rate:rate ~fabric_rate:rate ~delay
         ~uplink_qdisc:q ());
    every_host ()

let attach_stack transport host =
  match transport with
  | Spec.T_tcp ->
    ( Transport_intf.pack
        (module Transport.Tcp.Messaging)
        (Transport.Tcp.attach ~snd_buf:1_000_000 host),
      None )
  | Spec.T_dctcp ->
    ( Transport_intf.pack
        (module Transport.Dctcp.Messaging)
        (Transport.Dctcp.attach ~snd_buf:1_000_000 host),
      None )
  | Spec.T_udp ->
    (Transport_intf.pack (module Transport.Udp.Messaging)
       (Transport.Udp.attach host),
     None)
  | Spec.T_mtp ->
    let ep = Mtp.Endpoint.attach host in
    (Transport_intf.pack (module Mtp.Endpoint.Messaging) ep, Some ep)

let msg_port = 5001

(* Partitions of the partitioned build: one per leaf or pod, two for
   the smaller shapes. *)
let partitions (spec : Spec.t) =
  match spec.Spec.topo with
  | Spec.Leaf_spine { leaves; _ } -> leaves
  | Spec.Fat_tree { k } -> k
  | Spec.Pair | Spec.Star _ | Spec.Dumbbell _ | Spec.Two_path -> 2

let partitionable (spec : Spec.t) =
  spec.Spec.delay_us > 0 && partitions spec >= 2

let build ?(fault : fault_mode = As_spec) ?(partitioned = false)
    (spec : Spec.t) =
  let topo, run_world =
    if partitioned then begin
      if not (partitionable spec) then
        invalid_arg "Scenario.build: spec is not partitionable";
      let world =
        Partition.create ~seed:spec.Spec.seed ~nparts:(partitions spec) ()
      in
      ( Partition.topology world,
        fun ~jobs ~until -> Partition.run ~jobs ~until world )
    end
    else
      let sim = Engine.Sim.create ~seed:spec.Spec.seed () in
      (Topology.create sim, fun ~jobs:_ ~until -> Engine.Sim.run ~until sim)
  in
  let nparts = Topology.nparts topo in
  let part_of = Topology.part topo in
  let shape = build_topology spec topo in
  let hosts = Topology.hosts topo and switches = Topology.switches topo in
  (* The links the digest and fault targets index: host uplinks, then
     every switch's egress ports. *)
  let ports sw = Array.init (Switch.port_count sw) (Switch.port sw) in
  let links =
    Array.concat
      (Array.map Node.uplink hosts :: List.map ports (Array.to_list switches))
  in
  let link_part = Array.map (fun l -> part_of (Link.sim l)) links in
  let traces = Array.init nparts (fun _ -> Buffer.create 4096) in
  let tr p fmt =
    Printf.ksprintf (fun s -> Buffer.add_string traces.(p) (s ^ "\n")) fmt
  in
  (* Stacks + listeners on every host, creation order = address
     order. *)
  let host_wraps = Array.map (fun n -> Host.create n) hosts in
  let endpoints = ref [] in
  let stacks =
    Array.map
      (fun h ->
        let packed, ep = attach_stack spec.Spec.transport h in
        (match ep with Some e -> endpoints := e :: !endpoints | None -> ());
        packed)
      host_wraps
  in
  Array.iteri
    (fun i stack ->
      let here = Host.addr host_wraps.(i) in
      let sim = Node.sim hosts.(i) in
      let p = part_of sim in
      Transport_intf.listen stack ~port:msg_port
        ~on_message:(fun d ->
          tr p "rx t=%d at=%d from=%d:%d size=%d lat=%d"
            (Engine.Sim.now sim) here d.Transport_intf.msg_src
            d.Transport_intf.msg_src_port d.Transport_intf.msg_size
            d.Transport_intf.msg_latency)
        ())
    stacks;
  (* Workload: one message per flow, host indices reduced into the
     topology's valid endpoints. *)
  let flows = Array.of_list spec.Spec.flows in
  let completions = Array.make (Array.length flows) 0 in
  Array.iteri
    (fun i f ->
      let src = f.Spec.f_src mod Array.length shape.srcs in
      let dst = ref (f.Spec.f_dst mod Array.length shape.dsts) in
      (* A host never messages itself; bump the destination. *)
      if shape.dsts.(!dst) == shape.srcs.(src) then
        dst := (!dst + 1) mod Array.length shape.dsts;
      let dst_node = shape.dsts.(!dst) in
      if dst_node != shape.srcs.(src) then begin
        let dst_addr = Node.addr dst_node in
        let src_stack = stacks.(Node.addr shape.srcs.(src)) in
        let sim = Node.sim shape.srcs.(src) in
        let p = part_of sim in
        Engine.Sim.schedule sim ~at:(Engine.Time.us f.Spec.f_start_us)
          (fun () ->
            Transport_intf.send_message src_stack ~dst:dst_addr
              ~dst_port:msg_port
              ~on_complete:(fun fct ->
                completions.(i) <- completions.(i) + 1;
                tr p "done flow=%d t=%d fct=%d" i (Engine.Sim.now sim) fct)
              ~size:f.Spec.f_size ())
      end)
    flows;
  (* Fault plan: the spec's faults, or — for the differential pair —
     a plan that exists but never fires inside the run.  One plan per
     partition that needs one, seeded by (spec seed, partition) so
     fault randomness is partition-local and jobs-independent. *)
  let duration = Engine.Time.us spec.Spec.duration_us in
  let nlinks = Array.length links in
  let plans = Array.make nparts None in
  let plan_for li =
    let p = link_part.(li) in
    match plans.(p) with
    | Some plan -> plan
    | None ->
      let plan =
        Fault.plan
          ~seed:(spec.Spec.seed lxor 0xFA171 lxor p)
          (Topology.sim ~part:p topo)
      in
      plans.(p) <- Some plan;
      plan
  in
  (match fault with
  | As_spec ->
    List.iter
      (fun f ->
        match f with
        | Spec.F_down_up { link; down_us; up_us } ->
          let li = link mod nlinks in
          let plan = plan_for li in
          Fault.link_down plan ~at:(Engine.Time.us down_us) links.(li);
          Fault.link_up plan ~at:(Engine.Time.us up_us) links.(li)
        | Spec.F_corrupt { link; rate_pct } ->
          let li = link mod nlinks in
          let rate = float_of_int (rate_pct mod 100) /. 100.0 in
          Fault.corrupt (plan_for li) ~rate links.(li)
        | Spec.F_gilbert { link } ->
          let li = link mod nlinks in
          Fault.gilbert_elliott (plan_for li) links.(li))
      spec.Spec.faults
  | Noop ->
    (* Present but inert: a link_down scheduled past the horizon and
       a zero-loss Gilbert-Elliott wrapper.  A conforming simulator
       produces byte-identical output with or without it. *)
    let plan = plan_for 0 in
    Fault.link_down plan ~at:(duration + Engine.Time.ms 1) links.(0);
    Fault.gilbert_elliott plan ~p_gb:0.0 ~loss_good:0.0 ~loss_bad:0.0
      links.(0));
  (* Oracles attach last, after all qdisc wrapping. *)
  let ledger = Ledger.create () in
  Array.iter (Ledger.watch_link ledger) links;
  Array.iter (Ledger.watch_switch ledger) switches;
  if not partitioned then Ledger.watch_pool ledger (Node.pool hosts.(0));
  let monotone = Array.init nparts (fun _ -> Oracle.monotone ()) in
  Array.iteri
    (fun i l -> Link.add_tap l (Oracle.tap monotone.(link_part.(i))))
    links;
  Array.iter
    (fun sw ->
      Switch.add_tap sw (Oracle.tap monotone.(part_of (Switch.sim sw))))
    switches;
  (* Periodic queue sampler: a dense deterministic probe of queue
     state for the differential comparison, one per partition over
     its own links, keyed by global link index. *)
  let interval =
    max (Engine.Time.us 40) (duration / 16)
  in
  for p = 0 to nparts - 1 do
    let sim = Topology.sim ~part:p topo in
    Engine.Sim.periodic sim ~interval (fun () ->
        Array.iteri
          (fun i l ->
            if link_part.(i) = p then
              tr p "q t=%d link=%d q=%d f=%d b=%d" (Engine.Sim.now sim) i
                (Link.queued_pkts l) (Link.in_flight_pkts l)
                (Link.bytes_sent l))
          links;
        Engine.Sim.now sim < duration)
  done;
  { topo; run_world; links; switches; host_wraps; stacks;
    endpoints = List.rev !endpoints; plans; ledger; monotone; completions;
    traces; duration }

let run ?(jobs = 1) t = t.run_world ~jobs ~until:t.duration

(* Internal surface for the mutation test's bug injector. *)
let links t = t.links
let sim t = Topology.sim t.topo

let digest t =
  let buf = Buffer.create 4096 in
  Array.iter (Buffer.add_buffer buf) t.traces;
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  line "== links ==";
  Array.iteri
    (fun i l ->
      let q = Link.qdisc l in
      line
        "link %d %s sends=%d delivered=%d drops=%d marks=%d trims=%d \
         fault=%d queued=%d inflight=%d bytes=%d"
        i (Link.name l) (Link.sends l) (Link.delivered_pkts l)
        (q.Qdisc.drops ()) (q.Qdisc.marks ()) (q.Qdisc.trims ())
        (Link.fault_drops l) (Link.queued_pkts l) (Link.in_flight_pkts l)
        (Link.bytes_sent l))
    t.links;
  line "== switches ==";
  Array.iter
    (fun sw ->
      line "switch %s rx=%d inj=%d fwd=%d drop=%d cons=%d" (Switch.name sw)
        (Switch.received sw) (Switch.injected sw) (Switch.forwarded sw)
        (Switch.dropped sw) (Switch.consumed sw))
    t.switches;
  line "== stacks ==";
  Array.iteri
    (fun i stack ->
      let s = Transport_intf.stats stack in
      line "stack host=%d id=%s tx=%d rx=%d rx_bytes=%d retx=%d"
        (Host.addr t.host_wraps.(i))
        (Transport_intf.id stack) s.Transport_intf.tx_messages
        s.Transport_intf.rx_messages s.Transport_intf.rx_bytes
        s.Transport_intf.retransmits)
    t.stacks;
  line "== hosts ==";
  Array.iter
    (fun h -> line "host %d unclaimed=%d" (Host.addr h) (Host.unclaimed h))
    t.host_wraps;
  (* Rendered whether or not a plan exists: a plan that never fired
     must be indistinguishable from no plan at all. *)
  line "== faults ==";
  let sum f =
    Array.fold_left
      (fun acc plan -> match plan with Some p -> acc + f p | None -> acc)
      0 t.plans
  in
  line "fault loss=%d blackholed=%d events=%d" (sum Fault.loss_drops)
    (sum Fault.blackholed)
    (sum (fun p -> List.length (Fault.events p)));
  line "completions %s"
    (String.concat ","
       (Array.to_list (Array.map string_of_int t.completions)));
  line "end t=%s"
    (String.concat ","
       (List.init (Topology.nparts t.topo) (fun p ->
            string_of_int (Engine.Sim.now (Topology.sim ~part:p t.topo)))));
  Buffer.contents buf

(* Unclaimed and absorbed packets stay out of the pool. *)
let oracle_failures t =
  let errors = List.filter_map (function Ok () -> None | Error m -> Some m) in
  let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a in
  let held = sum Host.unclaimed t.host_wraps + sum Switch.consumed t.switches in
  Ledger.failures ~held t.ledger
  @ errors (Array.to_list (Array.map Oracle.monotone_result t.monotone))
  @ errors [ Oracle.completions_once t.completions ]
  @ errors (List.map Oracle.endpoint_ok t.endpoints)

let outcome ?inject ?fault ?partitioned ?jobs spec =
  let t = build ?fault ?partitioned spec in
  Option.iter (fun f -> f t) inject;
  run ?jobs t;
  match oracle_failures t with
  | [] -> Ok (digest t)
  | fs -> Error (String.concat "; " fs)
