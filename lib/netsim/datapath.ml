(* Global datapath configuration: whether links coalesce per-packet
   transmit/deliver events into per-burst events.

   The flag is sampled once per link at [Link.create] (and pinned in
   the link), so toggling it mid-run never changes the behaviour of an
   existing simulation — the differential oracle flips it between two
   complete runs.  An [Atomic.t] so worker domains constructing
   topologies read a well-defined value. *)

(* Initial value comes from the environment so whole-binary runs can
   be compared both ways without a rebuild (MTP_BATCHING=0 disables);
   read once at startup, never on a hot path. *)
let batching =
  Atomic.make
    (match Sys.getenv_opt "MTP_BATCHING" with
    | Some ("0" | "false" | "off") -> false
    | Some _ | None -> true)

let enabled () = Atomic.get batching

let with_batching v f =
  let prev = Atomic.get batching in
  Atomic.set batching v;
  Fun.protect ~finally:(fun () -> Atomic.set batching prev) f

(* Upper bound on packets committed to the wire by one burst plan: the
   size of the per-link completion-time arrays.  64 packets ≈ one
   breath in snabb terms — long enough to amortise event cost, short
   enough that the arrays stay in cache.  MTP_MAX_BURST clamps it down
   (never up — the arrays are sized for 64), for debugging and for
   bisecting batching effects. *)
let max_burst = 64

(* Like [batching], an [Atomic.t] sampled per burst activation, so the
   differential oracle can pin the walk to one packet per activation
   ([with_burst_limit 1] degrades batched links to the classic event
   shape) without an env var and a re-exec. *)
let burst_limit_v =
  Atomic.make
    (match Sys.getenv_opt "MTP_MAX_BURST" with
    | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> min n max_burst
      | Some _ | None -> max_burst)
    | None -> max_burst)

let burst_limit () = Atomic.get burst_limit_v

let with_burst_limit n f =
  if n < 1 then invalid_arg "Datapath.with_burst_limit: limit must be >= 1";
  let n = min n max_burst in
  let prev = Atomic.get burst_limit_v in
  Atomic.set burst_limit_v n;
  Fun.protect ~finally:(fun () -> Atomic.set burst_limit_v prev) f
