type config = {
  reps : int; fig5_duration : Engine.Time.t; fig6_duration : Engine.Time.t }

let default =
  { reps = 1; fig5_duration = Engine.Time.ms 6;
    fig6_duration = Engine.Time.ms 80 }

type fig5_row = {
  flip_us : int;
  dctcp_gbps : float;
  mtp_gbps : float;
  ratio : float;
}

(* Every sweep cell is a closed job (its own config, its own [Sim])
   in one {!Exp_common.grid}, so a multi-point sweep saturates the
   worker pool and the rows come back in point order whatever [jobs]
   is.

   The fig5 sweep's cells draw no random numbers (its config has no
   seed), so it runs one cell per point.  The fig6 sweep's workload is
   seeded: each cell's seed is derived from the base seed 42 by stream
   index — a proper SplitMix64 split, not [seed + i] arithmetic — so
   the cell seeds are a pure function of (point index, replication
   index).  With [reps = 1] the cell seed is
   [derive base i], exactly the historical per-point seed; with
   [reps > 1] cell (i, r) uses [derive (derive base i) r] — a split of
   the point's own stream — and each row reports the mean across its
   replications. *)
let cell_seed ~reps i r =
  let point = Engine.Rng.derive (Engine.Rng.create 42) i in
  Engine.Rng.as_seed (if reps = 1 then point else Engine.Rng.derive point r)

let mean_over outs f =
  List.fold_left (fun a o -> a +. f o) 0.0 outs
  /. float_of_int (List.length outs)

let fig5_sweep_jobs ?(flips_us = [ 96; 192; 384; 768; 1536 ])
    ?(duration = default.fig5_duration) ~emit () =
  Exp_common.grid ~points:flips_us
    ~cell:(fun _ _ flip_us ->
      Fig5_multipath.run
        ~config:
          { Fig5_multipath.default with
            Fig5_multipath.flip_interval = Engine.Time.us flip_us;
            duration }
        ())
    ~reduce:(fun flip_us outs ->
      let o = List.hd outs in
      { flip_us;
        dctcp_gbps = o.Fig5_multipath.dctcp_mean;
        mtp_gbps = o.Fig5_multipath.mtp_mean;
        ratio = o.Fig5_multipath.improvement })
    ~emit ()

type fig6_row = {
  load : float;
  ecmp_p50_us : float;
  ecmp_p99_us : float;
  spray_p50_us : float;
  spray_p99_us : float;
  mtp_p50_us : float;
  mtp_p99_us : float;
}

let fig6_sweep_jobs ?(loads = [ 0.3; 0.5; 0.7 ]) ?(reps = default.reps)
    ?(duration = default.fig6_duration) ~emit () =
  Exp_common.grid ~reps ~points:loads
    ~cell:(fun i r load ->
      let config =
        { Fig6_loadbalance.default with
          Fig6_loadbalance.load;
          duration;
          max_message = 8_000_000;
          seed = cell_seed ~reps i r }
      in
      Fig6_loadbalance.run ~config ())
    ~reduce:(fun load outs ->
      let scheme sel pct =
        mean_over outs (fun o -> pct (sel o))
      in
      { load;
        ecmp_p50_us =
          scheme (fun o -> o.Fig6_loadbalance.ecmp)
            (fun s -> s.Fig6_loadbalance.fct_p50_us);
        ecmp_p99_us =
          scheme (fun o -> o.Fig6_loadbalance.ecmp)
            (fun s -> s.Fig6_loadbalance.fct_p99_us);
        spray_p50_us =
          scheme (fun o -> o.Fig6_loadbalance.spray)
            (fun s -> s.Fig6_loadbalance.fct_p50_us);
        spray_p99_us =
          scheme (fun o -> o.Fig6_loadbalance.spray)
            (fun s -> s.Fig6_loadbalance.fct_p99_us);
        mtp_p50_us =
          scheme (fun o -> o.Fig6_loadbalance.mtp)
            (fun s -> s.Fig6_loadbalance.fct_p50_us);
        mtp_p99_us =
          scheme (fun o -> o.Fig6_loadbalance.mtp)
            (fun s -> s.Fig6_loadbalance.fct_p99_us) })
    ~emit ()

let fig5_rows_result rows =
  let table =
    Stats.Table.create
      ~columns:
        [ "flip interval (us)"; "DCTCP (Gbps)"; "MTP (Gbps)"; "MTP/DCTCP" ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_rowf table "%d | %.1f | %.1f | %.2f" r.flip_us
        r.dctcp_gbps r.mtp_gbps r.ratio)
    rows;
  let fastest = List.hd rows and slowest = List.nth rows (List.length rows - 1) in
  Exp_common.make
    ~title:"Sweep: Fig 5 vs path-alternation frequency"
    ~table
    ~notes:
      [ Printf.sprintf
          "MTP's advantage is %.2fx at %dus flips and %.2fx at %dus — \
          per-pathlet state matters most when paths change faster than a \
          single window can re-converge"
         fastest.ratio fastest.flip_us slowest.ratio slowest.flip_us ]
    ()

let fig6_rows_result ?(reps = default.reps) rows =
  let table =
    Stats.Table.create
      ~columns:
        [ "load"; "ECMP p50/p99 (us)"; "spray p50/p99 (us)";
          "MTP p50/p99 (us)" ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_rowf table "%.1f | %.0f / %.0f | %.0f / %.0f | %.0f / %.0f"
        r.load r.ecmp_p50_us r.ecmp_p99_us r.spray_p50_us r.spray_p99_us
        r.mtp_p50_us r.mtp_p99_us)
    rows;
  Exp_common.make
    ~title:"Sweep: Fig 6 FCT vs offered load"
    ~table
    ~notes:
      ("MTP's SRPT-style sender keeps the median far ahead at every load; \
        at high load its p99 (the largest ~1% of messages) pays the \
        classic SRPT price while spraying degrades across the board"
      ::
      (if reps > 1 then
         [ Printf.sprintf
             "each point is the mean of %d seed replications (SplitMix64 \
              split per point)"
             reps ]
       else []))
    ()
