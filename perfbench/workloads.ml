(* The workloads, driven from outside through the program's public
   functions: Chc.Executor.run for cold executions, and Serve.Frame,
   Serve.Server.submit / pump / grade_count and Serve.Workload.job for
   serving. Serving timestamps come from the client's Stats.clock, so
   under a fake clock (and one domain) a run's schedule, and with it
   every count, is exact. *)

module Q = Numeric.Q
module Server = Serve.Server
module Frame = Serve.Frame
module Rng = Runtime.Rng
module Executor = Chc.Executor

let span = Obs.Prof.with_span
let now = Unix.gettimeofday

(* --- counters the program already exposes ------------------------------ *)

let metric_sum name =
  List.fold_left
    (fun acc (s : Obs.Metrics.snapshot) ->
       match s.value with
       | Obs.Metrics.Counter c when s.metric = name -> acc + c
       | _ -> acc)
    0 (Obs.Metrics.snapshot_all ())

type counters = {
  filter_hits : int;        (* interval and integer stages together *)
  fallbacks : int;
  memo : (string * Parallel.Memo.stats) list;
  enclosure_evictions : int;
  poly_fallbacks : int;
  engine_reuse : int;
  pool_tasks : int;
  minor_words : float;
  major_collections : int;
}

let counters () =
  let k = Numeric.Kernel.totals () in
  let gc = Gc.quick_stat () in
  { filter_hits = k.hits + k.int_hits;
    fallbacks = k.fallbacks;
    memo = Parallel.Memo.all_stats ();
    enclosure_evictions = snd (Numeric.Q.enclosure_cache_stats ());
    poly_fallbacks = metric_sum "chc_poly_fallback_total";
    engine_reuse = metric_sum "chc_serve_engine_reuse_total";
    pool_tasks = (Parallel.Pool.stats (Parallel.Pool.global ())).tasks_run;
    minor_words = gc.minor_words;
    major_collections = gc.major_collections }

let diff a b =
  { filter_hits = b.filter_hits - a.filter_hits;
    fallbacks = b.fallbacks - a.fallbacks;
    memo =
      List.map
        (fun (name, (s : Parallel.Memo.stats)) ->
           let s0 =
             Option.value (List.assoc_opt name a.memo)
               ~default:{ Parallel.Memo.hits = 0; misses = 0; evictions = 0;
                          entries = 0 }
           in
           ( name,
             { s with
               hits = s.hits - s0.hits;
               misses = s.misses - s0.misses;
               evictions = s.evictions - s0.evictions } ))
        b.memo;
    enclosure_evictions = b.enclosure_evictions - a.enclosure_evictions;
    poly_fallbacks = b.poly_fallbacks - a.poly_fallbacks;
    engine_reuse = b.engine_reuse - a.engine_reuse;
    pool_tasks = b.pool_tasks - a.pool_tasks;
    minor_words = b.minor_words -. a.minor_words;
    major_collections = b.major_collections - a.major_collections }

(* --- exact per-execution work ------------------------------------------ *)

type work = {
  rounds : int;
  msgs : int;           (* transport deliveries *)
  wire_bytes : int;     (* Codec.Wire size of every round broadcast *)
  dead_lettered : int;
  recoveries : int;
}

let work_of_report (r : Executor.report) =
  let m = r.result.Chc.Cc.metrics in
  { rounds = r.result.Chc.Cc.t_end;
    msgs = m.Runtime.Sim.delivered;
    wire_bytes =
      List.fold_left
        (fun acc (x : Obs.Report.round) -> acc + x.wire_bytes)
        0
        (Executor.round_metrics ~faulty:r.faulty r.result);
    dead_lettered = m.Runtime.Sim.dead_lettered;
    recoveries = m.Runtime.Sim.recoveries }

(* A failed unit of work: printed, counted, never dropped. *)
type failures = { mutable list : string list }

let fail fs fmt =
  Printf.ksprintf
    (fun msg ->
       fs.list <- msg :: fs.list;
       Printf.eprintf "perfbench: FAILED %s\n%!" msg)
    fmt

let is_counted_failure = function
  | Invalid_argument _ | Runtime.Transport.Step_limit_exceeded
  | Obs.Sink.Write_error _ ->
    true
  | _ -> false

(* --- sim-d3-cold -------------------------------------------------------- *)

let eps = Q.of_ints 1 100

let config ~n ~d =
  Chc.Config.make ~n ~f:1 ~d ~eps ~lo:Q.zero ~hi:Q.one

(* The fixed geometry list: Executor.default_spec seeds 1..18 at n=6
   and 1..6 at n=7, interleaved three to one. A d=3 execution's cost
   varies fivefold with its input geometry, so every run executes the
   same geometries; the run's seed draws each execution's message
   schedule. *)
let sim_geometries =
  List.concat
    (List.init 6 (fun g ->
         [ (6, (3 * g) + 1); (6, (3 * g) + 2); (6, (3 * g) + 3); (7, g + 1) ]))

let sim_base_specs () =
  List.map
    (fun (n, seed) ->
       Executor.default_spec ~config:(config ~n ~d:3) ~seed ~ensure_crash:true
         ())
    sim_geometries

(* One pass: every geometry once, each under a fresh schedule seed. *)
let sim_pass rng base =
  List.map
    (fun (s : Executor.spec) -> { s with Chc.Scenario.seed = Rng.int rng (1 lsl 30) })
    base

let sim_describe (s : Executor.spec) =
  Printf.sprintf "n=%d seed=%d" s.config.Chc.Config.n s.seed

(* Execute and grade one cold execution: the memo tables are cleared
   first so no work is shared across executions. Returns the report
   (when the run completed) and its wall time in ms. *)
let sim_exec fs (spec : Executor.spec) =
  Parallel.Memo.clear_all ();
  let t0 = now () in
  match span "bench.exec" (fun () -> Executor.run spec) with
  | r ->
    let ms = 1000. *. (now () -. t0) in
    let bad =
      List.filter_map
        (fun (ok, what) -> if ok then None else Some what)
        [ (r.terminated, "termination"); (r.valid, "validity");
          (r.agreement_ok, "eps-agreement"); (r.optimal, "optimality");
          (r.decision_stable, "decision stability") ]
    in
    if bad <> [] then
      fail fs "%s: %s" (sim_describe spec) (String.concat ", " bad);
    (Some r, ms, bad = [])
  | exception e when is_counted_failure e ->
    fail fs "%s: %s" (sim_describe spec) (Printexc.to_string e);
    (None, 1000. *. (now () -. t0), false)

(* --- serving: the client side ------------------------------------------ *)

let mix = Array.of_list Serve.Workload.default_mix

let gen_jobs rng ~first_id count =
  Array.init count (fun k ->
      Serve.Workload.job ~rng ~id:(first_id + k) mix.(k mod Array.length mix))

let request_of_job (j : Server.job) =
  let c = j.config in
  Frame.Submit
    { id = j.id; n = c.n; f = c.f; d = c.d; eps = c.eps; lo = c.lo;
      hi = c.hi; inputs = j.inputs }

(* Per-call timings of the public serving calls, in seconds. *)
type timings = {
  mutable submit_s : float list;
  mutable frame_s : float list;
  mutable pump_s : float list;
  mutable grade_s : float list;
  mutable starved : int list;   (* /statusz fuel_starved, summed over shards *)
}

let new_timings () =
  { submit_s = []; frame_s = []; pump_s = []; grade_s = []; starved = [] }

let timed tm f =
  let t0 = now () in
  let v = f () in
  tm (now () -. t0);
  v

(* Encode a value as a client would, frame it, and decode it back
   through a Frame decoder. *)
let through_frame tg write read v =
  timed (fun dt -> tg.frame_s <- dt :: tg.frame_s) @@ fun () ->
  span "serve.frame" @@ fun () ->
  let b = Buffer.create 512 in
  write b v;
  let dec = Frame.decoder () in
  Frame.feed dec (Frame.encode_frame (Buffer.contents b));
  match Frame.next dec with
  | Some payload -> read (Codec.Wire.reader_of_string payload)
  | None -> failwith "frame did not round-trip"

let statusz_fields server =
  match (Server.admin_source server).Serve.Admin.statusz () with
  | Codec.Json.Obj fields -> fields
  | _ -> []

let fuel_starved server =
  match List.assoc_opt "shard" (statusz_fields server) with
  | Some (Codec.Json.List rows) ->
    List.fold_left
      (fun acc row ->
         match row with
         | Codec.Json.Obj f -> (
             match List.assoc_opt "fuel_starved" f with
             | Some (Codec.Json.Int k) -> acc + k
             | _ -> acc)
         | _ -> acc)
      0 rows
  | _ -> 0

type wal_counts = { bytes : int; appends : int; syncs : int; errors : int }

let wal_counts server =
  match List.assoc_opt "wal" (statusz_fields server) with
  | Some (Codec.Json.Obj f) ->
    let get k =
      match List.assoc_opt k f with Some (Codec.Json.Int v) -> v | _ -> 0
    in
    { bytes = get "bytes"; appends = get "appends"; syncs = get "syncs";
      errors = get "errors" }
  | _ -> { bytes = 0; appends = 0; syncs = 0; errors = 0 }

(* A server plus the client bookkeeping that maps instance ids back to
   generated units. *)
type client = {
  clock : Stats.clock;
  server : Server.t;
  jobs : Server.job array;
  fs : failures;
  tg : timings;
  failed_units : (int, unit) Hashtbl.t;
  steps : (int, int * int) Hashtbl.t;   (* unit -> (steps, t_end) *)
  mutable pumps : int;
  sample_statusz : bool;
}

let unit_of c id = id - c.jobs.(0).Server.id

let client ?(clock = Stats.wall_clock) ?(sample_statusz = false) server jobs fs
  =
  { clock; server; jobs; fs; tg = new_timings ();
    failed_units = Hashtbl.create 8; steps = Hashtbl.create 256; pumps = 0;
    sample_statusz }

let submit c k =
  let t = c.clock () in
  let job = c.jobs.(k) in
  (match
     Server.job_of_request
       (through_frame c.tg Frame.write_request Frame.read_request
          (request_of_job job))
   with
   | Error reason ->
     Hashtbl.replace c.failed_units k ();
     fail c.fs "instance %d rejected: %s" job.id reason
   | Ok decoded -> (
       (* The request vocabulary carries no crash plans; the
          crash-recover shape re-attaches its plan server-side. *)
       match
         timed (fun dt -> c.tg.submit_s <- dt :: c.tg.submit_s) @@ fun () ->
         span "serve.submit" @@ fun () ->
         Server.submit c.server { decoded with crash = job.crash }
       with
       | () -> ()
       | exception e when is_counted_failure e ->
         Hashtbl.replace c.failed_units k ();
         fail c.fs "instance %d: %s" job.id (Printexc.to_string e)));
  t

let finish c (o : Server.outcome) =
  let k = unit_of c o.job.id in
  Hashtbl.replace c.steps k (o.steps, o.t_end);
  let graded =
    timed (fun dt -> c.tg.grade_s <- dt :: c.tg.grade_s) @@ fun () ->
    span "serve.grade" @@ fun () -> Server.grade_count c.server o
  in
  (match graded with
   | Error reason ->
     Hashtbl.replace c.failed_units k ();
     fail c.fs "instance %d: %s" o.job.id reason
   | Ok () -> (
       match
         through_frame c.tg Frame.write_response Frame.read_response
           (Server.response_of_outcome o)
       with
       | Frame.Decision { id; _ } when id = o.job.id -> ()
       | Frame.Decision { id; _ } ->
         Hashtbl.replace c.failed_units k ();
         fail c.fs "instance %d: response carries id %d" o.job.id id
       | Frame.Rejected { reason; _ } ->
         Hashtbl.replace c.failed_units k ();
         fail c.fs "instance %d rejected: %s" o.job.id reason));
  (k, c.clock ())

(* An exception out of a whole pump is not one request's failure: it
   ends the run, loudly, with no result. *)
let pump c =
  let outcomes =
    timed (fun dt -> c.tg.pump_s <- dt :: c.tg.pump_s) @@ fun () ->
    span "serve.pump" @@ fun () -> Server.pump c.server
  in
  c.pumps <- c.pumps + 1;
  if c.sample_statusz && c.pumps mod 8 = 0 then
    c.tg.starved <- fuel_starved c.server :: c.tg.starved;
  List.map (finish c) outcomes

let system c =
  { Stats.submit = submit c;
    pump = (fun () -> pump c);
    inflight = (fun () -> Server.inflight c.server) }

(* Replay served jobs as Sim executions under the daemon's fifo
   schedule (the scenario the daemon persists as meta.json), for the
   exact work counts the server does not expose per instance. A server
   without a wal_dir arms the in-memory WAL for crash-recover jobs only. *)
let replay (j : Server.job) =
  let recover =
    Array.exists
      (function Runtime.Crash.Crash_recover _ -> true | _ -> false)
      j.crash
  in
  let wal = if recover then Some Runtime.Wal.default_config else None in
  Executor.run
    (Chc.Scenario.make ~config:j.config ~inputs:j.inputs ~crash:j.crash
       ~scheduler:Runtime.Scheduler.fifo ~seed:0 ~round0:j.round0 ?wal ())

(* --- workload set-up --------------------------------------------------- *)

(* Jobs kept in flight by the closed loop. *)
let closed_concurrency = 32

(* Jobs kept in flight with the WAL on: 8 keep both shards busy while a
   job's latency stays near its own service time. *)
let wal_concurrency = 8
let fuel = 64

(* A fresh directory for one server's WALs, inside the working
   directory. *)
let tmp_root = ".bench_tmp"

let rec rm_rf path =
  match (Unix.lstat path).st_kind with
  | Unix.S_DIR ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_wal_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    if not (Sys.file_exists tmp_root) then Unix.mkdir tmp_root 0o755;
    Filename.concat tmp_root (Printf.sprintf "wal-%d-%d" (Unix.getpid ()) !n)

let cleanup_wal_dir dir =
  rm_rf dir;
  match Sys.readdir tmp_root with
  | [||] -> Unix.rmdir tmp_root
  | _ -> ()
  | exception Sys_error _ -> ()

(* Checks every WAL-backed run ends with: nothing left to resume, and
   no write error. *)
let check_wal c ~wal_dir =
  (match Server.scan_wal ~wal_dir with
   | [] -> ()
   | unfinished ->
     List.iter
       (fun ((j : Server.job), _) ->
          let k = unit_of c j.id in
          if k >= 0 && k < Array.length c.jobs then
            Hashtbl.replace c.failed_units k ();
          fail c.fs "instance %d left unfinished in %s" j.id wal_dir)
       unfinished);
  match Server.wal_error c.server with
  | None -> ()
  | Some msg -> fail c.fs "WAL write error: %s" msg
