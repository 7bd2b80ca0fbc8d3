(* Dense, address-indexed next-hop tables.

   Host addresses are dense ints allocated by Topology, so the table
   is an int array mapping address -> entry id (-1 = unknown) and the
   per-packet lookup is a bounds-checked array index: no hashing, no
   option allocation.  An entry holds the registered egress ports in
   registration order plus a lazily refreshed live-port array.

   Contiguous address *ranges* (a remote pod's thousands of hosts)
   share one entry, so interval-routed fabrics cost O(ports) state per
   switch instead of O(hosts).

   Fault control plane: remove_port/restore_port flip a per-port bool
   and bump a global epoch; an entry's live array is refiltered on the
   first lookup after an epoch change (lazy rebuild), so removals are
   O(1).  The selectors return the shared verdicts of
   [Switch.forward], so steady-state forwarding allocates nothing. *)

type entry = {
  mutable ports : int array; (* registration order; capacity >= nports *)
  mutable nports : int;
  mutable live : int array; (* ports minus removed, exact length *)
  mutable live_epoch : int; (* t.epoch when [live] was filtered; -1 dirty *)
  mutable spray : int; (* preallocated round-robin counter *)
  shared : bool; (* entry backs an address range *)
}

type t = {
  mutable index : int array; (* addr -> entry id, -1 unknown *)
  mutable entries : entry array;
  mutable nentries : int;
  mutable removed : bool array; (* port -> withdrawn *)
  mutable nremoved : int;
  mutable epoch : int; (* bumped by remove/restore *)
  mutable ranges : (int * int * int) list; (* (lo, hi, entry id) *)
  salt : int; (* 0 = raw flow_hash ECMP; else per-table mixing *)
}

let empty_ports : int array = [||]

(* Placeholder for entry-array slots beyond [nentries].  Allocated
   fresh per call so no mutable record is shared across tables (or
   across worker domains building tables concurrently); slots holding
   it are never read. *)
let dummy_entry () =
  { ports = empty_ports; nports = 0; live = empty_ports; live_epoch = 0;
    spray = 0; shared = false }

let create ?(salt = 0) () =
  { index = Array.make 16 (-1);
    entries = Array.make 8 (dummy_entry ());
    nentries = 0;
    removed = Array.make 16 false;
    nremoved = 0;
    epoch = 0;
    ranges = [];
    salt }

(* ------------------------- growth helpers ------------------------- *)

let grow_to cap n =
  let c = ref (Int.max 16 cap) in
  while !c < n do
    c := !c * 2
  done;
  !c

let ensure_index t addr =
  let len = Array.length t.index in
  if addr >= len then begin
    let b = Array.make (grow_to len (addr + 1)) (-1) in
    Array.blit t.index 0 b 0 len;
    t.index <- b
  end

let ensure_port t port =
  let len = Array.length t.removed in
  if port >= len then begin
    let b = Array.make (grow_to len (port + 1)) false in
    Array.blit t.removed 0 b 0 len;
    t.removed <- b
  end

let new_entry t ~shared =
  let len = Array.length t.entries in
  if t.nentries = len then begin
    let b = Array.make (grow_to len (len + 1)) (dummy_entry ()) in
    Array.blit t.entries 0 b 0 len;
    t.entries <- b
  end;
  let e = t.nentries in
  t.entries.(e) <-
    { ports = Array.make 2 0; nports = 0; live = empty_ports;
      live_epoch = -1; spray = 0; shared };
  t.nentries <- e + 1;
  e

(* Amortized-doubling append: a k-port registration costs O(k)
   overall, so a 4096-host fabric builds in linear time (the old
   representation re-allocated the whole array per add). *)
let push_port en port =
  let cap = Array.length en.ports in
  if en.nports = cap then begin
    let b = Array.make (grow_to cap (cap + 1)) 0 in
    Array.blit en.ports 0 b 0 cap;
    en.ports <- b
  end;
  en.ports.(en.nports) <- port;
  en.nports <- en.nports + 1;
  en.live_epoch <- -1

(* ------------------------- control plane -------------------------- *)

let add t dst port =
  if dst < 0 then invalid_arg "Routing.add: negative address";
  if port < 0 then invalid_arg "Routing.add: negative port";
  ensure_index t dst;
  ensure_port t port;
  let e =
    match t.index.(dst) with
    | -1 ->
      let e = new_entry t ~shared:false in
      t.index.(dst) <- e;
      e
    | e ->
      if t.entries.(e).shared then
        invalid_arg "Routing.add: address covered by an add_range interval";
      e
  in
  push_port t.entries.(e) port

let add_range t ~lo ~hi port =
  if lo < 0 || hi < lo then invalid_arg "Routing.add_range: bad interval";
  if port < 0 then invalid_arg "Routing.add_range: negative port";
  ensure_index t hi;
  ensure_port t port;
  let rec find = function
    | [] -> -1
    | (l, h, e) :: rest -> if l = lo && h = hi then e else find rest
  in
  let e =
    match find t.ranges with
    | -1 ->
      for a = lo to hi do
        if t.index.(a) <> -1 then
          invalid_arg "Routing.add_range: interval overlaps existing route"
      done;
      let e = new_entry t ~shared:true in
      for a = lo to hi do
        t.index.(a) <- e
      done;
      t.ranges <- (lo, hi, e) :: t.ranges;
      e
    | e -> e
  in
  push_port t.entries.(e) port

let remove_port t port =
  if port >= 0 then begin
    ensure_port t port;
    if not t.removed.(port) then begin
      t.removed.(port) <- true;
      t.nremoved <- t.nremoved + 1;
      t.epoch <- t.epoch + 1
    end
  end

let restore_port t port =
  if port >= 0 && port < Array.length t.removed && t.removed.(port) then begin
    t.removed.(port) <- false;
    t.nremoved <- t.nremoved - 1;
    t.epoch <- t.epoch + 1
  end

let port_removed t port =
  port >= 0 && port < Array.length t.removed && t.removed.(port)

(* --------------------------- data plane --------------------------- *)

(* Refilter [live] against the removed set.  Runs only on the first
   lookup after a registration or a remove/restore epoch bump; the
   steady-state path below never reaches it. *)
let refresh t en =
  let removed = t.removed in
  let n = ref 0 in
  for i = 0 to en.nports - 1 do
    if not (Array.unsafe_get removed (Array.unsafe_get en.ports i)) then
      incr n
  done;
  let out = if !n = 0 then empty_ports else Array.make !n 0 in
  let j = ref 0 in
  for i = 0 to en.nports - 1 do
    let p = Array.unsafe_get en.ports i in
    if not (Array.unsafe_get removed p) then begin
      out.(!j) <- p;
      incr j
    end
  done;
  en.live <- out;
  en.live_epoch <- t.epoch

let ports_for t dst =
  if dst < 0 || dst >= Array.length t.index then empty_ports
  else
    let e = Array.unsafe_get t.index dst in
    if e < 0 then empty_ports
    else begin
      let en = Array.unsafe_get t.entries e in
      if en.live_epoch <> t.epoch then refresh t en;
      en.live
    end

let registered_ports_for t dst =
  if dst < 0 || dst >= Array.length t.index then empty_ports
  else
    let e = Array.unsafe_get t.index dst in
    if e < 0 then empty_ports
    else
      let en = t.entries.(e) in
      Array.sub en.ports 0 en.nports

(* SplitMix-style finalizer over (flow_hash, table salt): fabrics give
   each switch tier a distinct salt so consecutive ECMP hops pick
   uncorrelated ports for the same flow (otherwise `hash mod n` at
   every hop of a fat-tree collapses (k/2)^2 paths to k/2).  Constant
   fits in 63-bit ints; [land max_int] keeps the result nonnegative. *)
let mix salt h =
  let h = h lxor salt in
  let h = h lxor (h lsr 29) in
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land max_int

let static t p =
  let ports = ports_for t p.Packet.dst in
  if Array.length ports = 0 then Switch.Drop else Switch.forward ports.(0)

let ecmp_port t p =
  let ports = ports_for t p.Packet.dst in
  let n = Array.length ports in
  if n = 0 then -1
  else
    let h = p.Packet.flow_hash in
    let h = if t.salt = 0 then h else mix t.salt h in
    Array.unsafe_get ports (h mod n)

let ecmp t p =
  let port = ecmp_port t p in
  if port < 0 then Switch.Drop else Switch.forward port

let spray t p =
  let ports = ports_for t p.Packet.dst in
  let n = Array.length ports in
  if n = 0 then Switch.Drop
  else begin
    let dst = p.Packet.dst in
    let en = t.entries.(t.index.(dst)) in
    let choice = en.spray mod n in
    en.spray <- en.spray + 1;
    Switch.forward ports.(choice)
  end
