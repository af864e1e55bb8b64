(* The repository benchmark. One process runs one workload:

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--spawned-at T]

   --trace 0 measures the end-to-end metrics with profiling off; --trace
   1 is the separate traced run that splits the workload's time into
   layers. The last line of standard output is one JSON object; the
   lines before it are the human-readable report. --spawned-at is the
   Unix time at which the caller started this process (run.py passes
   it), so setup_s also covers exec and runtime start-up. See
   README.md. *)

open Perfbench
module W = Workloads
module Server = Serve.Server

let process_start = Unix.gettimeofday ()

(* --- arguments ---------------------------------------------------------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  spawned_at : float;
}

let workloads = [ "sim-d3-cold"; "serve-mix-closed" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (sim-d3-cold|serve-mix-closed) --seed N \
     --seconds S --trace 0|1 [--spawned-at T]";
  exit 2

let parse_args () =
  let a =
    ref { workload = ""; seed = 1; seconds = 10.; trace = false;
          spawned_at = process_start }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> a := { !a with workload = v }; go rest
    | "--seed" :: v :: rest -> a := { !a with seed = int_of_string v }; go rest
    | "--seconds" :: v :: rest ->
      a := { !a with seconds = float_of_string v }; go rest
    | "--trace" :: v :: rest -> a := { !a with trace = v = "1" }; go rest
    | "--spawned-at" :: v :: rest ->
      a := { !a with spawned_at = float_of_string v }; go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !a.workload workloads) then usage ();
  if !a.seconds <= 0. then usage ();
  !a

(* --- one measured window ----------------------------------------------- *)

type window = {
  units : int;                  (* units completed inside the window *)
  elapsed_s : float;
  latencies_ms : float list;    (* one per completed unit; failed = inf *)
  attempted : int;
  failed : int;
  counters : W.counters;        (* over the window *)
  work : W.work list;           (* exact work of the first units *)
  timings : W.timings option;   (* serving: per-call timings *)
}

type ctx = {
  run_window : work:bool -> float -> window;
      (* seconds -> measured window; [work] records the exact work of
         the first units *)
  warm_failed : int;
  teardown : unit -> unit;
}

(* Units whose exact work is recorded for the per-layer counts: a prefix
   in generation order, so the counts do not depend on speed. *)
let work_prefix = 20

let sim_setup ~seed =
  let fs = { W.list = [] } in
  let base = W.sim_base_specs () in
  (* warm-up: one untimed execution starts the pool's domains *)
  ignore (W.sim_exec fs (List.hd base));
  let run_window ~work seconds =
    let rng = Runtime.Rng.create seed in
    let c0 = W.counters () in
    let t0 = Unix.gettimeofday () in
    let lat = ref [] and reports = ref [] and attempted = ref 0
    and failed = ref 0 in
    (* whole passes only, so every run executes the same geometry mix *)
    while Unix.gettimeofday () -. t0 < seconds do
      List.iter
        (fun spec ->
           let r, ms, ok = W.sim_exec fs spec in
           incr attempted;
           if not ok then incr failed;
           lat := (if ok then ms else infinity) :: !lat;
           if work && !attempted <= work_prefix then
             Option.iter (fun r -> reports := r :: !reports) r)
        (W.sim_pass rng base)
    done;
    let elapsed_s = Unix.gettimeofday () -. t0 in
    { units = !attempted; elapsed_s; latencies_ms = !lat;
      attempted = !attempted; failed = !failed;
      counters = W.diff c0 (W.counters ());
      work = List.rev_map W.work_of_report !reports;
      timings = None }
  in
  { run_window; warm_failed = List.length fs.list; teardown = ignore }

let warm_count = 48

let serve_setup ~seed ~trace ~seconds =
  let fs = { W.list = [] } in
  let jobs =
    W.gen_jobs (Runtime.Rng.create seed) ~first_id:0
      (64 + int_of_float (200. *. seconds))
  in
  let warm =
    W.gen_jobs (Runtime.Rng.create (seed + 7919)) ~first_id:1_000_000
      warm_count
  in
  Parallel.Memo.clear_all ();
  let server = Server.create ~fuel:W.fuel () in
  let wc = W.client server warm fs in
  ignore
    (Stats.closed_loop Stats.wall_clock (W.system wc)
       ~concurrency:(Array.length warm) ~limit:(Array.length warm)
       ~window_s:infinity);
  let run_window ~work seconds =
    let fs = { W.list = [] } in
    let c = W.client ~sample_statusz:trace server jobs fs in
    let c0 = W.counters () in
    let run =
      Stats.closed_loop Stats.wall_clock (W.system c)
        ~concurrency:W.closed_concurrency ~limit:(Array.length jobs)
        ~window_s:seconds
    in
    let counters = W.diff c0 (W.counters ()) in
    if run.submitted >= Array.length jobs then
      W.fail fs "closed loop ran out of generated jobs (%d)" run.submitted;
    let samples = Stats.finished_in_window run in
    let work =
      if not work then []
      else
        List.filter_map
          (fun k ->
             if k >= run.submitted || Hashtbl.mem c.failed_units k then None
             else begin
               let j = jobs.(k) in
               let r = W.replay j in
               (match Hashtbl.find_opt c.steps k with
                | Some (steps, t_end)
                  when steps = r.result.Chc.Cc.metrics.Runtime.Sim.steps
                       && t_end = r.result.Chc.Cc.t_end ->
                  ()
                | _ ->
                  W.fail fs "instance %d: fifo replay differs from the served run"
                    j.id);
               Some (W.work_of_report r)
             end)
          (List.init work_prefix Fun.id)
    in
    { units = List.length samples;
      elapsed_s = run.t_end -. run.t0;
      latencies_ms =
        List.map
          (fun (s : Stats.sample) ->
             if Hashtbl.mem c.failed_units s.unit_ix then infinity
             else 1000. *. Stats.latency s)
          samples;
      attempted = run.submitted;
      failed = List.length fs.list;
      counters; work; timings = Some c.tg }
  in
  { run_window; warm_failed = List.length fs.list; teardown = ignore }

let setup args ~trace ~seconds =
  match args.workload with
  | "sim-d3-cold" -> sim_setup ~seed:args.seed
  | _ -> serve_setup ~seed:args.seed ~trace ~seconds

(* The durability leg of the traced serving run: the run's first
   [work_prefix] jobs, served on two fresh servers, first without and
   then with per-job WALs in a fresh directory under .bench_tmp/. The WAL
   counts are exact for the seed; the difference of the two wall times
   is what the durability path (appends, fsyncs, meta and decided
   markers) adds. *)
type durability = {
  wal : W.wal_counts;
  instances : int;          (* decided with the WAL on *)
  added_ms : float;         (* WAL-on minus WAL-off wall time *)
  leg_attempted : int;
  leg_failed : int;
}

let durability_leg ~seed =
  let jobs = W.gen_jobs (Runtime.Rng.create seed) ~first_id:0 work_prefix in
  let serve ~wal =
    let fs = { W.list = [] } in
    let wal_dir = if wal then Some (W.fresh_wal_dir ()) else None in
    Parallel.Memo.clear_all ();
    let server = Server.create ~fuel:W.fuel ?wal_dir () in
    let c = W.client server jobs fs in
    Fun.protect ~finally:(fun () -> Option.iter W.cleanup_wal_dir wal_dir)
    @@ fun () ->
    let t0 = Unix.gettimeofday () in
    ignore
      (Stats.closed_loop Stats.wall_clock (W.system c)
         ~concurrency:W.wal_concurrency ~limit:work_prefix ~window_s:infinity);
    let ms = 1000. *. (Unix.gettimeofday () -. t0) in
    Option.iter (fun wal_dir -> W.check_wal c ~wal_dir) wal_dir;
    (ms, W.wal_counts server, Server.completed server, List.length fs.list)
  in
  let off_ms, _, _, off_failed = serve ~wal:false in
  let on_ms, wal, instances, on_failed = serve ~wal:true in
  { wal; instances; added_ms = on_ms -. off_ms;
    leg_attempted = 2 * work_prefix; leg_failed = off_failed + on_failed }

(* --- output ------------------------------------------------------------- *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "1e308"

let emit ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, unit, v) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v)
           unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

let ms_of_ns ns = ns /. 1e6
let p50 l = Stats.median l
let per n x = if n <= 0 then 0. else x /. float_of_int n

let peak_heap_mb () =
  float_of_int ((Gc.stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* --- the untraced run: end-to-end metrics ------------------------------ *)

let end_to_end args =
  (* One set-up, timed from process start to the first timed operation:
     it holds exec and runtime start-up as well as the set-up proper. *)
  let ctx = setup args ~trace:false ~seconds:args.seconds in
  let setup_s = Unix.gettimeofday () -. args.spawned_at in
  let w =
    Fun.protect ~finally:ctx.teardown (fun () ->
        ctx.run_window ~work:false args.seconds)
  in
  let warm_failed = ctx.warm_failed in
  let n = List.length w.latencies_ms in
  let throughput = float_of_int w.units /. w.elapsed_s in
  let p50 = Stats.median w.latencies_ms in
  let tail, tail_label =
    match Stats.tail w.latencies_ms with
    | Some t ->
      (t.value, Printf.sprintf "%s of %d samples, 10 beyond it"
                  (Stats.percentile_label t.p10) t.samples)
    | None ->
      (List.fold_left Float.max neg_infinity w.latencies_ms,
       Printf.sprintf "max of %d samples (too few for a percentile)" n)
  in
  let failed = w.failed + warm_failed in
  let attempted = w.attempted + warm_failed in
  let error_rate = per attempted (float_of_int failed) in
  let heap = peak_heap_mb () in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=0 domains=%d\n"
    args.workload args.seed args.seconds (Parallel.Pool.global_size ());
  Printf.printf "  %-18s %12.3f 1/s   (%d units in %.3f s)\n" "throughput_per_s"
    throughput w.units w.elapsed_s;
  Printf.printf "  %-18s %12.3f ms    (p50 of %d samples)\n" "latency_p50_ms" p50 n;
  Printf.printf "  %-18s %12.3f ms    (%s)\n" "latency_tail_ms" tail tail_label;
  Printf.printf "  %-18s %12.4f       (%d failed of %d attempted)\n" "error_rate"
    error_rate failed attempted;
  Printf.printf "  %-18s %12.1f MiB   (Gc top heap at exit)\n" "peak_heap_mb" heap;
  Printf.printf "  %-18s %12.3f s     (process start to first timed operation)\n"
    "setup_s" setup_s;
  let correct = failed = 0 && w.units > 0 in
  emit ~correct ~attempted ~failed
    [ ("throughput_per_s", "1/s", throughput);
      ("latency_p50_ms", "ms", p50);
      ("latency_tail_ms", "ms", tail);
      ("peak_heap_mb", "MiB", heap);
      ("setup_s", "s", setup_s) ]

(* --- the traced run: per-layer metrics --------------------------------- *)

let traced args =
  let half = args.seconds /. 2. in
  (* A: untraced half, for counters, call timings and the overhead
     baseline. B: the same inputs on a fresh set-up with Obs.Prof on. *)
  let run ~profiled =
    let ctx = setup args ~trace:true ~seconds:half in
    Fun.protect ~finally:ctx.teardown @@ fun () ->
    if profiled then begin
      Obs.Prof.reset ();
      Obs.Prof.set_enabled true
    end;
    let w = ctx.run_window ~work:(not profiled) half in
    Obs.Prof.set_enabled false;
    (w, ctx.warm_failed)
  in
  let a, warm_a = run ~profiled:false in
  let b, warm_b = run ~profiled:true in
  let br = Layers.analyze (Obs.Prof.events ()) in
  Obs.Prof.reset ();
  let dur =
    if args.workload = "serve-mix-closed" then durability_leg ~seed:args.seed
    else
      { wal = { bytes = 0; appends = 0; syncs = 0; errors = 0 }; instances = 0;
        added_ms = 0.; leg_attempted = 0; leg_failed = 0 }
  in
  let units_a = a.units and units_b = b.units in
  let c = a.counters in
  let self_ms ns = per units_b (ms_of_ns ns) in
  let ratio x y = if x + y = 0 then 0. else float_of_int x /. float_of_int (x + y) in
  let work_mean f =
    per (List.length a.work)
      (float_of_int (List.fold_left (fun acc w -> acc + f w) 0 a.work))
  in
  let memo_names =
    [ "hull"; "minkowski"; "intersect"; "hausdorff"; "poly-arena";
      "poly-support"; "lp-membership"; "extreme-points" ]
  in
  let memo_ratio name =
    match List.assoc_opt name c.memo with
    | Some s -> ratio s.hits s.misses
    | None -> 0.
  in
  let memo_evictions =
    List.fold_left (fun acc (_, (s : Parallel.Memo.stats)) -> acc + s.evictions)
      0 c.memo
  in
  let tg = a.timings in
  let tg_p50 f scale =
    match tg with
    | Some tg when f tg <> [] -> scale *. p50 (f tg)
    | _ -> 0.
  in
  let wal_per f = per dur.instances (float_of_int (f dur.wal)) in
  let wal_ms = per dur.instances dur.added_ms in
  let p50_a = p50 a.latencies_ms and p50_b = p50 b.latencies_ms in
  let metrics =
    [ ("numeric.filter_fallback_ratio", "ratio", ratio c.fallbacks c.filter_hits);
      ("numeric.enclosure_evictions", "1/unit",
       per units_a (float_of_int c.enclosure_evictions));
      ("numeric.self_ms", "ms/unit", self_ms (Layers.layer_ns br "numeric"));
      ("geometry.self_ms", "ms/unit", self_ms (Layers.layer_ns br "geometry")) ]
    @ List.map
      (fun op ->
         ("geometry.self_ms." ^ op, "ms/unit",
          self_ms (Layers.geometry_op_ns br op)))
      Layers.geometry_ops
    @ [ ("grade.self_ms", "ms/unit", self_ms (Layers.layer_ns br "grade"));
        ("geometry.poly_fallbacks", "1/unit",
         per units_a (float_of_int c.poly_fallbacks));
        ("geometry.engine_reuse", "1/unit",
         per units_a (float_of_int c.engine_reuse)) ]
    @ List.map
      (fun t -> ("memo." ^ t ^ ".hit_ratio", "ratio", memo_ratio t))
      memo_names
    @ [ ("memo.evictions", "1/unit", per units_a (float_of_int memo_evictions));
        ("pool.tasks_run", "1/unit", per units_a (float_of_int c.pool_tasks));
        ("parallel.self_ms", "ms/unit", self_ms (Layers.layer_ns br "parallel"));
        ("protocol.rounds_per_unit", "count", work_mean (fun w -> w.rounds));
        ("protocol.msgs_per_unit", "count", work_mean (fun w -> w.msgs));
        ("protocol.wire_bytes_per_unit", "B", work_mean (fun w -> w.wire_bytes));
        ("protocol.cc_round_self_ms", "ms/unit",
         self_ms (Layers.span_ns br "cc.round"));
        ("protocol.self_ms", "ms/unit", self_ms (Layers.layer_ns br "protocol"));
        ("transport.delivered", "1/unit", work_mean (fun w -> w.msgs));
        ("transport.dead_lettered", "1/unit",
         work_mean (fun w -> w.dead_lettered));
        ("transport.recoveries", "1/unit", work_mean (fun w -> w.recoveries));
        ("transport.self_ms", "ms/unit",
         self_ms (Layers.layer_ns br "transport"));
        ("durability.wal_bytes_per_instance", "B", wal_per (fun w -> w.bytes));
        ("durability.wal_appends_per_instance", "count",
         wal_per (fun w -> w.appends));
        ("durability.wal_syncs_per_instance", "count", wal_per (fun w -> w.syncs));
        ("durability.wal_errors", "count", float_of_int dur.wal.errors);
        ("durability.wal_ms_per_instance", "ms", wal_ms);
        ("serve.submit_us", "us", tg_p50 (fun t -> t.submit_s) 1e6);
        ("serve.pump_ms_p50", "ms", tg_p50 (fun t -> t.pump_s) 1e3);
        ("serve.pump_ms_busy_per_unit", "ms/unit",
         match tg with
         | Some tg -> per units_a (1e3 *. List.fold_left ( +. ) 0. tg.pump_s)
         | None -> 0.);
        ("serve.grade_ms", "ms", tg_p50 (fun t -> t.grade_s) 1e3);
        ("serve.frame_us", "us", tg_p50 (fun t -> t.frame_s) 1e6);
        ("serve.queue_wait_ms", "ms",
         if br.queued_ns = [] then 0. else ms_of_ns (p50 br.queued_ns));
        ("serve.fuel_starved", "count",
         match tg with
         | Some tg when tg.starved <> [] ->
           per (List.length tg.starved)
             (float_of_int (List.fold_left ( + ) 0 tg.starved))
         | _ -> 0.);
        ("serving.self_ms", "ms/unit", self_ms (Layers.layer_ns br "serving"));
        ("gc.minor_mwords_per_unit", "Mword/unit",
         per units_a (c.minor_words /. 1e6));
        ("gc.major_collections_per_unit", "1/unit",
         per units_a (float_of_int c.major_collections));
        ("trace.overhead_ratio", "ratio", p50_b /. p50_a);
        ("trace.unattributed_share", "ratio", Layers.unattributed_share br) ]
  in
  (* the per-layer self-time table *)
  Printf.printf "perfbench %s seed=%d seconds=%g trace=1 domains=%d\n"
    args.workload args.seed args.seconds (Parallel.Pool.global_size ());
  Printf.printf
    "  untraced half: %d units, p50 %.3f ms; traced half: %d units, p50 %.3f ms\n"
    units_a p50_a units_b p50_b;
  Printf.printf "  traced time %.1f ms over all domains; self time by layer:\n"
    (ms_of_ns br.total_ns);
  Printf.printf "    %-14s %12s %8s\n" "layer" "ms/unit" "share";
  List.iter
    (fun l ->
       let ns = Layers.layer_ns br l in
       if l = "durability" then
         Printf.printf "    %-14s %12.3f %8s  (%s)\n" l wal_ms "-"
           (if dur.instances = 0 then "no durability leg: nothing is written"
            else "durability leg: WAL-on minus WAL-off wall time per instance")
       else
         Printf.printf "    %-14s %12.3f %7.1f%%\n" l (self_ms ns)
           (100. *. ns /. Float.max 1. br.total_ns))
    Layers.layer_names;
  Printf.printf "  trace.unattributed_share %.3f  trace.overhead_ratio %.3f\n"
    (Layers.unattributed_share br) (p50_b /. p50_a);
  Printf.printf "  self time by span:\n";
  List.iter
    (fun (name, l, ns) ->
       Printf.printf "    %-28s %-12s %12.3f ms/unit %7.1f%%\n" name
         (Layers.layer_name l) (self_ms ns)
         (100. *. ns /. Float.max 1. br.total_ns))
    br.by_span;
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-40s %14.4f %s\n" name v unit)
    metrics;
  let failed = a.failed + b.failed + warm_a + warm_b + dur.leg_failed in
  let attempted =
    a.attempted + b.attempted + warm_a + warm_b + dur.leg_attempted
  in
  let correct = failed = 0 && units_a > 0 && units_b > 0 in
  emit ~correct ~attempted ~failed metrics

let () =
  let args = parse_args () in
  Parallel.Pool.set_global_size
    (Stdlib.min 2 (Domain.recommended_domain_count ()));
  if args.trace then traced args else end_to_end args
