(** Shared output plumbing for the experiment harnesses.

    Each [FigN.run] returns a {!result} carrying the same series/rows
    the paper's figure or table plots; {!print} renders summaries and,
    optionally, the raw series rows for external plotting. *)

type series = { label : string; data : Stats.Timeseries.t }

type result = {
  title : string;
  series : series list;
  table : Stats.Table.t option;
  notes : string list;  (** One-line findings ("MTP/DCTCP = 1.4x"). *)
}

val make :
  title:string ->
  ?series:series list ->
  ?table:Stats.Table.t ->
  ?notes:string list ->
  unit ->
  result

val print : ?dump_series:bool -> Format.formatter -> result -> unit
(** Summaries per series (count/mean/max), the table, the notes; with
    [dump_series], every [time value] row follows.  When telemetry is
    enabled, also marks a registry run snapshot labeled by the result
    title ({!Telemetry.Ctx.mark_run}). *)

val mean_between :
  Stats.Timeseries.t -> lo:Engine.Time.t -> hi:Engine.Time.t -> float
(** Mean series value within a window (steady-state extraction). *)

(** {1 Job grids}

    A flat list of heterogeneous closed jobs for one {!run_jobs}
    submission, and the one way exhibits run: a single exhibit is a
    one-job grid, and multi-point exhibits (sweeps, the failover
    schemes) put every point/replication/scheme in its own job, so
    [jobs = points x replications] and no worker idles behind one
    long exhibit.  Grids concatenate, which is how multi-exhibit
    commands share one pool. *)

type job
(** One closed unit of work paired with a commit continuation. *)

val job : (unit -> 'a) -> commit:('a -> unit) -> job
(** [job work ~commit]: [work] runs on a worker domain and must be
    closed (own [Sim], own seed, no shared mutable state); [commit]
    runs on the main domain and may mutate shared state (fill a row
    slot, print). *)

val barrier : (unit -> unit) -> job
(** A job with no work: its commit runs after the commits of every
    job submitted before it.  Use it to assemble and emit a result
    from row slots the preceding jobs' commits filled. *)

val run_jobs : ?jobs:int -> job list -> unit
(** Execute all works on the pool ([?jobs] as {!Runner.Pool.map}),
    then run every commit on the calling domain in submission order.
    Commits see every work completed; output is byte-identical for
    any [jobs]. *)

val collect : ?jobs:int -> (('a -> unit) -> job list) -> 'a
(** [collect ~jobs grid] runs [grid emit] with {!run_jobs} and returns
    the last value it passed to [emit].  Raises [Invalid_argument] if
    nothing was emitted. *)

val grid :
  ?reps:int ->
  points:'p list ->
  cell:(int -> int -> 'p -> 'o) ->
  reduce:('p -> 'o list -> 'r) ->
  emit:('r list -> unit) ->
  unit ->
  job list
(** [grid ~reps ~points ~cell ~reduce ~emit ()] is [points x reps]
    cell jobs — [cell i r p] for point [p] at index [i], replication
    [r] — plus one assembly barrier that reduces each point's
    replications (in replication order) with [reduce] and passes the
    reduced values, in point order, to [emit].  [reps] defaults to 1.
    Raises [Invalid_argument] when [reps < 1]. *)

val write_csv : dir:string -> result -> string list
(** Write each series of the result to [dir/<slug>.csv] as
    [time_us,value] rows (creating [dir] if needed) and the table, if
    any, to [dir/<slug>-table.csv].  Returns the paths written. *)
