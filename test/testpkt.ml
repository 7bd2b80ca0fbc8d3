(* Raw packets for the tests.  Every packet comes from a pool, and the
   tests take theirs through this one helper: each call takes from a
   fresh pool of [sim], so the packet belongs to no pool under test
   and gets the stamps a transport's first send would. *)
let raw ?(entity = 0) ?(prio = 0) ?(flow_hash = 0) ?(src = 0) ?(dst = 1)
    ?(size = 1500) sim =
  Netsim.Packet.take (Netsim.Packet.pool sim) ~entity ~prio ~flow_hash
    ~payload:Netsim.Packet.Raw ~src ~dst ~size
