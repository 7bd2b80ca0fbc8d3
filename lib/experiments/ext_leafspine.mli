(** Extension: message transport at fabric scale.

    A 4-leaf / 2-spine Clos with 4 hosts per leaf runs a permutation
    workload (every host streams messages to a host on another leaf).
    With TCP, ECMP pins each long-lived flow to one spine: hash
    collisions leave some uplinks overloaded while others idle.  With
    MTP, every message is its own flow-hash unit, so the same ECMP
    fabric spreads load at message granularity — and per-pathlet
    windows keep congestion state per spine.

    Reported: aggregate goodput, uplink utilization imbalance, and p99
    message completion time. *)

val result : unit -> Exp_common.result
