(** JSONL and CSV exporters for the event trace and metrics registry.

    Output is deterministic: events in simulation order, metric rows
    sorted by name, run marks oldest first.  Two same-seed simulations
    export byte-identical files. *)

val write_trace : ?format:[ `Jsonl | `Csv ] -> string -> unit
(** Export {!Ctx.events} to a file (default JSONL; [.csv] callers pass
    [`Csv]).  JSONL holds one object per event with [t_us], [kind],
    [point], then [uid]/[src]/[dst]/[size] when applicable and the two
    kind-specific cells under their {!Events.ab_names}; if the ring
    wrapped, a final [{"kind":"truncated",...}] line reports the loss.
    CSV has the fixed header [t_us,kind,point,uid,src,dst,size,a,b]. *)

val write_metrics : ?format:[ `Csv | `Jsonl ] -> string -> unit
(** Export {!Ctx.metrics} with all {!Ctx.runs} marks to a file
    (default CSV).  CSV has the header [run,metric,kind,field,value]
    and one row per metric field, first for each marked run snapshot,
    then the final state under run ["end"]; histogram counts are
    cumulative across the process, so diff consecutive run marks to
    attribute them.  JSONL holds one object per metric row: [run],
    [metric], [kind] and every field; non-finite gauge values export
    as [null]. *)
