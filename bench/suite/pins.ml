(* Digests of each workload's modelled end state at the pinned seed
   (see [Workloads.digest]).  A change that alters the simulation
   moves these; a change that only makes it faster must not.  When a
   change alters the model on purpose, the benchmark's failure message
   prints the new digest to paste here. *)

let seed = 42

let full =
  [ ("fabric-raw", "3d7fd44148925e3e24f1688f7e443b99");
    ("leafspine-dctcp", "94bb5678c328449e9000e7caf8b07dcc");
    ("leafspine-mtp", "0cc638513a14c87ab4d39eadf816e63c");
    ("leafspine-par", "c97ed39d32418d91931d578ef0f661f7");
    ("failover-mtp", "99c11b9db211bdbbc88cb825a18af3bf") ]

let smoke =
  [ ("fabric-raw", "11b48f73eb4ec66da78f81f64ecb375d");
    ("leafspine-dctcp", "5c9fb37891f6e1dfa4ec4f031a4bd262");
    ("leafspine-mtp", "a3beb3d03591aae0f82527683e470d1e");
    ("leafspine-par", "eca60dcc29eb52249d530ae99a5b21fa");
    ("failover-mtp", "3770401fefdf3b7b63653e745f19eddd") ]
