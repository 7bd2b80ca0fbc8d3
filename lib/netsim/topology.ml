(* One builder for both worlds.  A topology owns one simulator per
   partition: [create] makes the single-sim case, [partitioned] the
   world [Partition.create] hands out.  Prebuilt networks put every
   device somewhere with [place] (always partition 0 when there is only
   one) and make every link through [connect]: a plain link when both
   ends share a partition, the world's conduit when they do not.  Names,
   addresses, routes and salts therefore never depend on the cut.
   Either way the link hands each packet to the receiving device's one
   entry point, [Switch.receive] or [Node.receive].  Every host, switch
   and link is made at one of three sites ([host], [switch], [connect]),
   which list it in [t], newest first. *)

type conduit =
  Packet.pool ->
  dst:int ->
  name:string ->
  rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?qdisc:Qdisc.t ->
  deliver:(Packet.t -> unit) ->
  unit ->
  Link.t

type t = {
  pools : Packet.pool array; (* one per simulator, shared by its devices *)
  conduit : conduit;
  mutable next_addr : int;
  mutable hosts : Node.t list;
  mutable switches : Switch.t list;
  mutable links : Link.t list;
}

let partitioned sims ~conduit =
  { pools = Array.map Packet.pool sims; conduit; next_addr = 0;
    hosts = []; switches = []; links = [] }

let create sim =
  let no_conduit : conduit =
   fun _ ~dst:_ ~name:_ ~rate:_ ~delay:_ ?qdisc:_ ~deliver:_ () ->
    invalid_arg "Topology: a single-sim topology has no conduits"
  in
  partitioned [| sim |] ~conduit:no_conduit

let nparts t = Array.length t.pools

let sim ?(part = 0) t = Packet.pool_sim t.pools.(part)

let part t sim =
  let rec find p =
    if p = Array.length t.pools then
      invalid_arg "Topology.part: simulator not in this topology"
    else if Packet.pool_sim t.pools.(p) == sim then p
    else find (p + 1)
  in
  find 0

let place t ~groups g = (g mod groups) * nparts t / groups

let host ?(part = 0) t name =
  let node = Node.create t.pools.(part) ~name ~addr:t.next_addr in
  t.next_addr <- t.next_addr + 1;
  t.hosts <- node :: t.hosts;
  node

let switch ?(part = 0) t name =
  let sw = Switch.create t.pools.(part) ~name in
  t.switches <- sw :: t.switches;
  sw

(* Creation order.  [Array.of_list] would force a minor collection (a
   large array made from a young value), promoting the world mid-build
   in a heap layout that slows the partitioned runs after it. *)
let listed devices = Array.concat (List.rev_map (fun d -> [| d |]) devices)
let hosts t = listed t.hosts
let switches t = listed t.switches
let links t = listed t.links

(* Where a link delivers: the receiving device's simulator and its
   entry point. *)
let into_switch sw = (Switch.sim sw, Switch.receive sw)

let into_node node = (Node.sim node, Node.receive node)

(* Link names read "from->into". *)
let arrow from into =
  (* simlint: allow H102 — link naming, once per link at setup *)
  from ^ "->" ^ into

(* [from] is the sending device's pool, [into] the receiver's sim. *)
let connect t ~from ~name ~rate ~delay ?qdisc (into, deliver) =
  let link =
    if Packet.pool_sim from == into then begin
      let link = Link.create from ~name ~rate ~delay ?qdisc () in
      Link.set_dst link deliver;
      link
    end
    else
      t.conduit from ~dst:(part t into) ~name ~rate ~delay ?qdisc ~deliver ()
  in
  t.links <- link :: t.links;
  link

let wire_host_to_switch t node sw ~rate ~delay ?down_qdisc () =
  let up =
    connect t ~from:(Node.pool node)
      ~name:(arrow (Node.name node) (Switch.name sw))
      ~rate ~delay (into_switch sw)
  in
  Node.attach node up;
  let down =
    connect t ~from:(Switch.pool sw)
      ~name:(arrow (Switch.name sw) (Node.name node))
      ~rate ~delay ?qdisc:down_qdisc (into_node node)
  in
  Switch.add_port sw down

let wire_switch_pair t a b ~rate ~delay ?ab_qdisc () =
  let ab =
    connect t ~from:(Switch.pool a)
      ~name:(arrow (Switch.name a) (Switch.name b))
      ~rate ~delay ?qdisc:ab_qdisc (into_switch b)
  in
  let ba =
    connect t ~from:(Switch.pool b)
      ~name:(arrow (Switch.name b) (Switch.name a))
      ~rate ~delay (into_switch a)
  in
  let port_a = Switch.add_port a ab in
  let port_b = Switch.add_port b ba in
  (port_a, port_b, ab, ba)

let wire_host_pair t a b ~rate ~delay ?ab_qdisc ?ba_qdisc () =
  let ab =
    connect t ~from:(Node.pool a)
      ~name:(arrow (Node.name a) (Node.name b))
      ~rate ~delay ?qdisc:ab_qdisc (into_node b)
  in
  let ba =
    connect t ~from:(Node.pool b)
      ~name:(arrow (Node.name b) (Node.name a))
      ~rate ~delay ?qdisc:ba_qdisc (into_node a)
  in
  Node.add_route a (Node.addr b) ab;
  Node.add_route b (Node.addr a) ba;
  (* Also make them each other's default uplink when unattached, so
     simple two-host setups need no further wiring. *)
  (try ignore (Node.uplink a) with Failure _ -> Node.attach a ab);
  (try ignore (Node.uplink b) with Failure _ -> Node.attach b ba);
  (ab, ba)

type dumbbell = {
  db_senders : Node.t array;
  db_receivers : Node.t array;
  db_left : Switch.t;
  db_right : Switch.t;
  db_bottleneck : Link.t;
}

let dumbbell t ~n ~edge_rate ~bottleneck_rate ~delay ?bottleneck_qdisc () =
  let side = place t ~groups:2 in
  let left = switch ~part:(side 0) t "left"
  and right = switch ~part:(side 1) t "right" in
  let senders =
    Array.init n (fun i -> host ~part:(side 0) t (Printf.sprintf "snd%d" i))
  in
  let receivers =
    Array.init n (fun i -> host ~part:(side 1) t (Printf.sprintf "rcv%d" i))
  in
  let left_routes = Routing.create () and right_routes = Routing.create () in
  Array.iter
    (fun s ->
      let port =
        wire_host_to_switch t s left ~rate:edge_rate ~delay ()
      in
      Routing.add left_routes (Node.addr s) port)
    senders;
  Array.iter
    (fun r ->
      let port =
        wire_host_to_switch t r right ~rate:edge_rate ~delay ()
      in
      Routing.add right_routes (Node.addr r) port)
    receivers;
  let lr_port, rl_port, bottleneck, _ =
    wire_switch_pair t left right ~rate:bottleneck_rate ~delay
      ?ab_qdisc:bottleneck_qdisc ()
  in
  Array.iter
    (fun r -> Routing.add left_routes (Node.addr r) lr_port)
    receivers;
  Array.iter
    (fun s -> Routing.add right_routes (Node.addr s) rl_port)
    senders;
  Switch.set_forward left (Routing.static left_routes);
  Switch.set_forward right (Routing.static right_routes);
  { db_senders = senders; db_receivers = receivers; db_left = left;
    db_right = right; db_bottleneck = bottleneck }

type two_path = {
  tp_src : Node.t;
  tp_dst : Node.t;
  tp_ingress : Switch.t;
  tp_egress : Switch.t;
  tp_link_a : Link.t;
  tp_link_b : Link.t;
  tp_port_a : int;
  tp_port_b : int;
  tp_routes : Routing.t;
}

let two_path t ~rate_a ~rate_b ~delay_a ~delay_b ~edge_rate ?qdisc_a ?qdisc_b
    () =
  let side = place t ~groups:2 in
  let src = host ~part:(side 0) t "src" and dst = host ~part:(side 1) t "dst" in
  let ingress = switch ~part:(side 0) t "ingress"
  and egress = switch ~part:(side 1) t "egress" in
  let src_port = wire_host_to_switch t src ingress ~rate:edge_rate
      ~delay:(Engine.Time.ns 500) () in
  let dst_port = wire_host_to_switch t dst egress ~rate:edge_rate
      ~delay:(Engine.Time.ns 500) () in
  let path ~name ~rate ~delay ?qdisc () =
    connect t ~from:(Switch.pool ingress) ~name ~rate ~delay ?qdisc
      (into_switch egress)
  in
  let link_a = path ~name:"pathA" ~rate:rate_a ~delay:delay_a ?qdisc:qdisc_a () in
  let link_b = path ~name:"pathB" ~rate:rate_b ~delay:delay_b ?qdisc:qdisc_b () in
  let port_a = Switch.add_port ingress link_a in
  let port_b = Switch.add_port ingress link_b in
  (* Dedicated reverse link so ACKs never queue behind data. *)
  let reverse =
    connect t ~from:(Switch.pool egress) ~name:"reverse"
      ~rate:(Engine.Time.gbps 400) ~delay:delay_a (into_switch ingress)
  in
  let reverse_port = Switch.add_port egress reverse in
  let routes = Routing.create () in
  Routing.add routes (Node.addr dst) port_a;
  Routing.add routes (Node.addr dst) port_b;
  Routing.add routes (Node.addr src) src_port;
  Switch.set_forward ingress (Routing.static routes);
  let egress_routes = Routing.create () in
  Routing.add egress_routes (Node.addr dst) dst_port;
  Routing.add egress_routes (Node.addr src) reverse_port;
  Switch.set_forward egress (Routing.static egress_routes);
  { tp_src = src; tp_dst = dst; tp_ingress = ingress; tp_egress = egress;
    tp_link_a = link_a; tp_link_b = link_b; tp_port_a = port_a;
    tp_port_b = port_b; tp_routes = routes }

type chain = {
  ch_client : Node.t;
  ch_proxy : Node.t;
  ch_server : Node.t;
}

let proxy_chain t ~front_rate ~back_rate ~delay ?back_qdisc () =
  let hop = place t ~groups:3 in
  let client = host ~part:(hop 0) t "client" in
  let proxy = host ~part:(hop 1) t "proxy" in
  let server = host ~part:(hop 2) t "server" in
  ignore (wire_host_pair t client proxy ~rate:front_rate ~delay ());
  ignore
    (wire_host_pair t proxy server ~rate:back_rate ~delay ?ab_qdisc:back_qdisc
       ());
  { ch_client = client; ch_proxy = proxy; ch_server = server }

type star = {
  st_clients : Node.t array;
  st_server : Node.t;
  st_switch : Switch.t;
  st_server_port : int;
}

let mk_qdisc = function Some f -> Some (f ()) | None -> None

(* One switch-to-switch fabric edge: the upward direction gets a fresh
   [uplink_qdisc], the downward one the default queue.  Returns the
   upward port at [lower], the downward port at [upper] and the upward
   link. *)
let mesh t lower upper ~rate ~delay uplink_qdisc =
  let up_port, down_port, up, _ =
    wire_switch_pair t lower upper ~rate ~delay
      ?ab_qdisc:(mk_qdisc uplink_qdisc) ()
  in
  (up_port, down_port, up)

(* One interval-routed fabric edge of a fabric whose hosts hold the
   addresses [base, top]: [upper] routes the block [lo, hi] below
   [lower] down the new edge, and [lower] routes the rest of
   [base, top] (one interval on each side of its block) up it. *)
let mesh_block t ~base ~top ~lo ~hi lower lower_routes upper upper_routes
    ~rate ~delay uplink_qdisc =
  let up_port, down_port, _ = mesh t lower upper ~rate ~delay uplink_qdisc in
  Routing.add_range upper_routes ~lo ~hi down_port;
  if lo > base then
    Routing.add_range lower_routes ~lo:base ~hi:(lo - 1) up_port;
  if hi < top then
    Routing.add_range lower_routes ~lo:(hi + 1) ~hi:top up_port

type leaf_spine = {
  ls_hosts : Node.t array array;
  ls_leaves : Switch.t array;
  ls_spines : Switch.t array;
  ls_uplinks : Link.t array array;
  ls_leaf_routes : Routing.t array;
}

let leaf_spine t ~leaves ~spines ~hosts_per_leaf ~host_rate ~fabric_rate
    ~delay ?uplink_qdisc () =
  if leaves < 1 || spines < 1 || hosts_per_leaf < 1 then
    invalid_arg "Topology.leaf_spine: every tier must be positive";
  (* A leaf lives with its hosts; spine [s] with leaf [s mod leaves]. *)
  let at_leaf l = place t ~groups:leaves l in
  let leaf_sw =
    Array.init leaves (fun i ->
        (* simlint: allow H102 — device naming at setup *)
        switch ~part:(at_leaf i) t (Printf.sprintf "leaf%d" i))
  in
  let spine_sw =
    Array.init spines (fun i ->
        (* simlint: allow H102 — device naming at setup *)
        switch ~part:(at_leaf i) t (Printf.sprintf "spine%d" i))
  in
  let hosts =
    Array.init leaves (fun l ->
        Array.init hosts_per_leaf (fun i ->
            (* simlint: allow H102 — device naming at setup *)
            host ~part:(at_leaf l) t (Printf.sprintf "h%d_%d" l i)))
  in
  let leaf_routes = Array.init leaves (fun _ -> Routing.create ()) in
  let spine_routes = Array.init spines (fun _ -> Routing.create ()) in
  (* Hosts onto their leaf. *)
  Array.iteri
    (fun l per_leaf ->
      Array.iter
        (fun h ->
          let port =
            wire_host_to_switch t h leaf_sw.(l) ~rate:host_rate ~delay ()
          in
          Routing.add leaf_routes.(l) (Node.addr h) port)
        per_leaf)
    hosts;
  (* Full leaf <-> spine mesh. *)
  let uplinks =
    Array.init leaves (fun l ->
        Array.init spines (fun s ->
            let up_port, down_port, up =
              mesh t leaf_sw.(l) spine_sw.(s) ~rate:fabric_rate ~delay
                uplink_qdisc
            in
            (* Remote hosts: one route entry per spine so ECMP spreads;
               spines route statically to the owning leaf. *)
            Array.iteri
              (fun l' per_leaf ->
                Array.iter
                  (fun h ->
                    if l' <> l then
                      Routing.add leaf_routes.(l) (Node.addr h) up_port;
                    if l' = l then
                      Routing.add spine_routes.(s) (Node.addr h) down_port)
                  per_leaf)
              hosts;
            up))
  in
  Array.iteri
    (fun l sw -> Switch.set_forward sw (Routing.ecmp leaf_routes.(l)))
    leaf_sw;
  Array.iteri
    (fun s sw -> Switch.set_forward sw (Routing.static spine_routes.(s)))
    spine_sw;
  { ls_hosts = hosts; ls_leaves = leaf_sw; ls_spines = spine_sw;
    ls_uplinks = uplinks; ls_leaf_routes = leaf_routes }

(* Deterministic nonzero ECMP salts for fabric switches: tier builders
   hand switch ordinal [i] here so every table in a fabric hashes
   flow_hash differently (see Routing.create).  Ordinals never depend
   on placement, so a partitioned build forwards exactly like a
   single-sim one. *)
let fabric_salt i = 0x5DEECE66D + i

type fat_tree = {
  ft_base : Packet.addr;
  ft_hosts : Node.t array;
  ft_edges : Switch.t array;
  ft_aggs : Switch.t array;
  ft_cores : Switch.t array;
  ft_edge_routes : Routing.t array;
  ft_agg_routes : Routing.t array;
  ft_core_routes : Routing.t array;
}

let clos t ~pods ~leaves ~spines ~supers ~hosts_per_leaf ~host_rate
    ~fabric_rate ~delay ?uplink_qdisc ?host_qdisc () =
  if pods < 1 || leaves < 1 || spines < 1 || hosts_per_leaf < 1 then
    invalid_arg "Topology.clos: every tier must be positive";
  if pods > 1 && (supers < 1 || supers mod spines <> 0) then
    invalid_arg "Topology.clos: supers must be a positive multiple of spines";
  let ncores = if pods > 1 then supers else 0 in
  let m = ncores / spines in
  let nedges = pods * leaves and naggs = pods * spines in
  let hosts_per_pod = leaves * hosts_per_leaf in
  let nhosts = pods * hosts_per_pod in
  let base = t.next_addr in
  let top = base + nhosts - 1 in
  (* A pod's hosts, edges and aggs share a partition; core [c] lives
     with pod [c mod pods]. *)
  let at_pod p = place t ~groups:pods p in
  let edges =
    Array.init nedges (fun i ->
        switch ~part:(at_pod (i / leaves)) t
          (Printf.sprintf "edge%d_%d" (i / leaves) (i mod leaves)))
  in
  let aggs =
    Array.init naggs (fun i ->
        switch ~part:(at_pod (i / spines)) t
          (Printf.sprintf "agg%d_%d" (i / spines) (i mod spines)))
  in
  let cores =
    Array.init ncores (fun i ->
        switch ~part:(at_pod i) t (Printf.sprintf "core%d" i))
  in
  let edge_routes =
    Array.init nedges (fun i -> Routing.create ~salt:(fabric_salt i) ())
  in
  let agg_routes =
    Array.init naggs (fun i ->
        Routing.create ~salt:(fabric_salt (nedges + i)) ())
  in
  let core_routes =
    Array.init ncores (fun i ->
        Routing.create ~salt:(fabric_salt (nedges + naggs + i)) ())
  in
  (* Hosts in address order: pod-major, edge-major. *)
  let hosts =
    Array.init nhosts (fun i ->
        let pod = i / hosts_per_pod in
        let rem = i mod hosts_per_pod in
        host ~part:(at_pod pod) t
          (Printf.sprintf "h%d_%d_%d" pod (rem / hosts_per_leaf)
             (rem mod hosts_per_leaf)))
  in
  Array.iteri
    (fun i h ->
      let e = i / hosts_per_leaf in
      let down_qdisc = mk_qdisc host_qdisc in
      let port =
        wire_host_to_switch t h edges.(e) ~rate:host_rate ~delay ?down_qdisc
          ()
      in
      Routing.add edge_routes.(e) (Node.addr h) port)
    hosts;
  (* Edge <-> agg mesh within each pod.  Remote destinations at an edge
     are two intervals (below / above its own hosts) sharing its
     [spines] uplink ports; each agg statically owns its edges' host
     blocks. *)
  for ei = 0 to nedges - 1 do
    let pod = ei / leaves in
    let my_lo = base + (ei * hosts_per_leaf) in
    let my_hi = my_lo + hosts_per_leaf - 1 in
    for a = 0 to spines - 1 do
      let ai = (pod * spines) + a in
      mesh_block t ~base ~top ~lo:my_lo ~hi:my_hi edges.(ei) edge_routes.(ei)
        aggs.(ai) agg_routes.(ai) ~rate:fabric_rate ~delay uplink_qdisc
    done
  done;
  (* Agg <-> core, one plane per agg position: agg [a] of every pod
     meshes with cores [a*m .. a*m + m - 1]; cores statically own whole
     pods. *)
  for ai = 0 to naggs - 1 do
    let pod = ai / spines and a = ai mod spines in
    let pod_lo = base + (pod * hosts_per_pod) in
    let pod_hi = pod_lo + hosts_per_pod - 1 in
    for j = 0 to m - 1 do
      let ci = (a * m) + j in
      mesh_block t ~base ~top ~lo:pod_lo ~hi:pod_hi aggs.(ai) agg_routes.(ai)
        cores.(ci) core_routes.(ci) ~rate:fabric_rate ~delay uplink_qdisc
    done
  done;
  Array.iteri
    (fun i sw -> Switch.set_forward sw (Routing.ecmp edge_routes.(i)))
    edges;
  Array.iteri
    (fun i sw -> Switch.set_forward sw (Routing.ecmp agg_routes.(i)))
    aggs;
  Array.iteri
    (fun i sw -> Switch.set_forward sw (Routing.ecmp core_routes.(i)))
    cores;
  { ft_base = base; ft_hosts = hosts; ft_edges = edges; ft_aggs = aggs;
    ft_cores = cores; ft_edge_routes = edge_routes; ft_agg_routes = agg_routes;
    ft_core_routes = core_routes }

let fat_tree t ~k ~host_rate ~fabric_rate ~delay ?uplink_qdisc ?host_qdisc ()
    =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg "Topology.fat_tree: k must be even and >= 2";
  let half = k / 2 in
  clos t ~pods:k ~leaves:half ~spines:half ~supers:(half * half)
    ~hosts_per_leaf:half ~host_rate ~fabric_rate ~delay ?uplink_qdisc
    ?host_qdisc ()

let star t ~n ~rate ~delay ?server_qdisc () =
  (* The switch stays in partition 0; hosts are dealt out in blocks. *)
  let at i = place t ~groups:(n + 1) i in
  let sw = switch t "star" in
  let clients =
    Array.init n (fun i -> host ~part:(at i) t (Printf.sprintf "cli%d" i))
  in
  let server = host ~part:(at n) t "server" in
  let routes = Routing.create () in
  Array.iter
    (fun c ->
      let port = wire_host_to_switch t c sw ~rate ~delay () in
      Routing.add routes (Node.addr c) port)
    clients;
  let server_port =
    wire_host_to_switch t server sw ~rate ~delay ?down_qdisc:server_qdisc ()
  in
  Routing.add routes (Node.addr server) server_port;
  Switch.set_forward sw (Routing.static routes);
  { st_clients = clients; st_server = server; st_switch = sw;
    st_server_port = server_port }
