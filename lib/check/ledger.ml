(* Packet-conservation ledger.

   Generalizes the hand-rolled accounting in test/test_oracle.ml:
   instead of relying on the packet pool (which only covers recycled
   packets — transports allocate with [Packet.make] and never touch a
   pool), the ledger works from the per-device counters every link and
   switch maintains:

   - link:    sends = delivered + qdisc drops + fault drops
                      + queued + in-flight
   - switch:  received + injected = forwarded + dropped + consumed

   Baselines are snapshotted at [watch_*] time, so the ledger checks
   deltas and can be installed on a warm topology.  Watch devices
   after all qdisc wrapping (fault injection wraps qdiscs in place);
   the wrapped drop counter includes the inner one, so late wrapping
   only ever grows the delta on both sides consistently. *)

open Netsim

type link_base = {
  lb_link : Link.t;
  lb_sends : int;
  lb_delivered : int;
  lb_drops : int;
  lb_fault : int;
  lb_queued : int;
  lb_inflight : int;
}

type switch_base = {
  sb_sw : Switch.t;
  sb_received : int;
  sb_injected : int;
  sb_forwarded : int;
  sb_dropped : int;
  sb_consumed : int;
}

type t = {
  mutable links : link_base list; (* reverse watch order *)
  mutable switches : switch_base list;
  mutable pools : Packet.pool list;
}

let create () = { links = []; switches = []; pools = [] }

let link_drops l = (Link.qdisc l).Qdisc.drops ()

let watch_link t l =
  t.links <-
    { lb_link = l;
      lb_sends = Link.sends l;
      lb_delivered = Link.delivered_pkts l;
      lb_drops = link_drops l;
      lb_fault = Link.fault_drops l;
      lb_queued = Link.queued_pkts l;
      lb_inflight = Link.in_flight_pkts l }
    :: t.links

let watch_switch t sw =
  t.switches <-
    { sb_sw = sw;
      sb_received = Switch.received sw;
      sb_injected = Switch.injected sw;
      sb_forwarded = Switch.forwarded sw;
      sb_dropped = Switch.dropped sw;
      sb_consumed = Switch.consumed sw }
    :: t.switches

let watch_pool t pool = t.pools <- pool :: t.pools

let check_link b =
  let l = b.lb_link in
  let sends = Link.sends l - b.lb_sends in
  let delivered = Link.delivered_pkts l - b.lb_delivered in
  let drops = link_drops l - b.lb_drops in
  let fault = Link.fault_drops l - b.lb_fault in
  let queued = Link.queued_pkts l - b.lb_queued in
  let inflight = Link.in_flight_pkts l - b.lb_inflight in
  if sends = delivered + drops + fault + queued + inflight then None
  else
    Some
      (Printf.sprintf
         "link %s: conservation violated: sends=%d <> delivered=%d + \
          drops=%d + fault_drops=%d + queued=%d + in_flight=%d (leak of %d)"
         (Link.name l) sends delivered drops fault queued inflight
         (sends - (delivered + drops + fault + queued + inflight)))

let check_switch b =
  let sw = b.sb_sw in
  let received = Switch.received sw - b.sb_received in
  let injected = Switch.injected sw - b.sb_injected in
  let forwarded = Switch.forwarded sw - b.sb_forwarded in
  let dropped = Switch.dropped sw - b.sb_dropped in
  let consumed = Switch.consumed sw - b.sb_consumed in
  if received + injected = forwarded + dropped + consumed then None
  else
    Some
      (Printf.sprintf
         "switch %s: conservation violated: received=%d + injected=%d <> \
          forwarded=%d + dropped=%d + consumed=%d"
         (Switch.name sw) received injected forwarded dropped consumed)

(* Pool invariant: every packet checked out of a watched pool must be
   queued or flying on some watched link (plus whatever the caller
   holds).  Valid only when the watched links are exactly the pool's
   users. *)
let check_pool t ~held pool =
  let live = Packet.pool_live pool in
  let accounted =
    List.fold_left
      (fun acc b ->
        acc + Link.queued_pkts b.lb_link + Link.in_flight_pkts b.lb_link)
      held t.links
  in
  if live = accounted then None
  else
    Some
      (Printf.sprintf
         "pool: conservation violated: pool_live=%d <> queued+in_flight+held=%d"
         live accounted)

let failures ?(held = 0) t =
  let links = List.filter_map check_link (List.rev t.links) in
  let switches = List.filter_map check_switch (List.rev t.switches) in
  let pools =
    List.filter_map (check_pool t ~held) (List.rev t.pools)
  in
  links @ switches @ pools

let check t =
  match failures t with
  | [] -> Ok ()
  | fs -> Error (String.concat "; " fs)
