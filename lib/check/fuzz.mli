(** Seeded fuzzing harness with differential pairings, greedy
    shrinking, and a replayable on-disk corpus.

    Each case runs once as specified with the full oracle set
    ({!Ledger}, {!Oracle}) attached, then again under paired
    configurations — classic datapath, burst limit 1, a never-firing
    fault plan, worker-domain execution via [Runner.Pool] — asserting
    byte-identical digests ({!Diff}). *)

type verdict = Pass | Fail of string

val run_case : ?inject:(Scenario.t -> unit) -> Spec.t -> verdict
(** Run one spec through oracles + differentials.  [inject] installs
    extra machinery into every built scenario before it runs — the
    mutation test uses it to plant a deliberate conservation bug. *)

val shrink : ?inject:(Scenario.t -> unit) -> Spec.t -> Spec.t
(** Greedily minimize a failing spec (drop faults/flows, shrink the
    topology, halve sizes, cut the horizon), keeping any candidate
    that still fails, for at most 64 accepted steps; returns a local
    minimum (the input itself if nothing smaller fails). *)

val save : dir:string -> name:string -> Spec.t -> string
(** Write a spec to [dir/name]; returns the path. *)

val replay : string -> verdict
(** Load a spec file and {!run_case} it. *)

val pinned_digests : Spec.t -> (string * string) list
(** The outcomes a corpus golden pins, as [(mode, md5 hex)] pairs:
    ["single"], plus ["partitioned-j1"] (jobs 1) when
    {!Scenario.partitionable} holds.  An oracle failure reads
    ["oracle-failure"] instead of a digest. *)

val corpus_files : string -> string list
(** Sorted [*.case] paths under a directory ([] if unreadable). *)

type campaign = {
  cases_run : int;
  failures : (Spec.t * Spec.t * string) list;
      (** (original, shrunk, first failure message), newest first. *)
}

val campaign :
  ?should_stop:(unit -> bool) ->
  ?log:(string -> unit) ->
  cases:int ->
  seed:int ->
  unit ->
  campaign
(** Generate and run [cases] specs derived from [seed]
    ([Rng.derive]-indexed, so case [i] is reproducible in isolation).
    [should_stop] is polled between cases (wall-clock caps live in the
    caller); failing cases are shrunk as they appear and the campaign
    stops early after 5 failures. *)
