(* Self-test of the benchmark: its statistics, its closed-loop
   accounting under a fake clock, its layer accounting, and exact-count
   determinism of every workload and of the durability leg for a fixed
   seed. Run it with

     dune build --profile release @perfbench/perfbench-selftest *)

open Perfbench
module W = Workloads

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let close a b = Float.abs (a -. b) < 1e-9

(* --- percentiles -------------------------------------------------------- *)

let test_nearest_rank () =
  let ten = Array.init 10 (fun i -> float_of_int (i + 1)) in
  List.iter
    (fun (p10, want) ->
       check
         (Printf.sprintf "nearest rank p%d/10 of 1..10" p10)
         (Stats.nearest_rank ten ~p10 = want))
    [ (1, 1.); (100, 1.); (101, 2.); (500, 5.); (900, 9.); (901, 10.);
      (1000, 10.) ];
  let s = Array.init 200 (fun i -> float_of_int i) in
  check "p95 of 200 is the 190th sample" (Stats.nearest_rank s ~p10:950 = 189.);
  check "median of an even count is the lower middle"
    (Stats.median [ 4.; 1.; 3.; 2. ] = 2.)

let test_tail_rule () =
  check "no tail percentile with 10 samples" (Stats.tail_p10 10 = None);
  for n = 11 to 3000 do
    match Stats.tail_p10 n with
    | None -> check (Printf.sprintf "tail exists for n=%d" n) false
    | Some p10 ->
      let beyond p = n - Stats.rank ~n ~p10:p in
      check (Printf.sprintf "tail of %d has >= 10 beyond" n) (beyond p10 >= 10);
      check
        (Printf.sprintf "tail of %d is the highest such percentile" n)
        (p10 = 1000 || beyond (p10 + 1) < 10)
  done;
  match Stats.tail (List.init 220 float_of_int) with
  | Some t ->
    check "tail of 220 samples" (t.p10 = 954 && t.value = 209. && t.samples = 220);
    check "tail label" (Stats.percentile_label t.p10 = "p95.4")
  | None -> check "tail of 220 samples" false

(* --- the load generator under a fake clock ---------------------------- *)

(* A fake clock and a fake system whose every pump takes [pump_s] of
   fake time and completes the oldest [per_pump] units in flight. *)
let fake ~pump_s ~per_pump =
  let t = ref 0. in
  let clock () = !t in
  let queue = Queue.create () in
  let sys =
    { Stats.submit = (fun k -> Queue.add k queue; !t);
      pump =
        (fun () ->
           t := !t +. pump_s;
           List.init (Stdlib.min per_pump (Queue.length queue)) (fun _ ->
               (Queue.pop queue, !t)));
      inflight = (fun () -> Queue.length queue) }
  in
  (clock, sys)

let by_unit (r : Stats.run) =
  List.sort (fun (a : Stats.sample) b -> compare a.unit_ix b.unit_ix) r.samples

let test_closed_loop () =
  (* two in flight, one completion per 0.3 s pump: the window closes at
     the first pump ending after 1.0 s (t = 1.2) *)
  let clock, sys = fake ~pump_s:0.3 ~per_pump:1 in
  let r =
    Stats.closed_loop clock sys ~concurrency:2 ~limit:100 ~window_s:1.0
  in
  check "closed loop window end" (close r.t_end 1.2);
  check "closed loop completions in window"
    (List.length (Stats.finished_in_window r) = 4);
  check "closed loop drains every submitted unit"
    (List.length r.samples = r.submitted && r.submitted = 5);
  check "closed loop latency is timed from the send"
    (List.map Stats.latency (by_unit r)
     |> List.for_all2 close [ 0.3; 0.6; 0.6; 0.6; 0.6 ])

(* --- layer accounting --------------------------------------------------- *)

let test_layers () =
  let ev tid phase name ts =
    { Obs.Prof.tid; phase; name; ts_ns = Int64.of_int ts; attrs = [] }
  in
  let b =
    Layers.analyze
      [ ev 0 `B "cc.round" 0; ev 0 `B "geometry.lp" 10; ev 0 `E "" 30;
        ev 0 `B "something.new" 40; ev 0 `E "" 45; ev 0 `E "" 100;
        ev 1 `B "pool.batch" 0; ev 1 `E "" 50 ]
  in
  check "traced total is the sum of root spans" (b.total_ns = 150.);
  check "self time excludes children" (Layers.layer_ns b "protocol" = 75.);
  check "geometry op self time" (Layers.geometry_op_ns b "lp" = 20.);
  check "unknown spans are residue" (Layers.layer_ns b "unattributed" = 5.);
  check "layers add up"
    (List.fold_left (fun a l -> a +. Layers.layer_ns b l) 0. Layers.layer_names
     = b.total_ns);
  check "unattributed share" (close (Layers.unattributed_share b) (5. /. 150.))

(* --- exact-count determinism -------------------------------------------- *)

type counts = {
  fallbacks : int;
  filter_hits : int;
  memo : (string * int * int) list;
  msgs : int;
  wire_bytes : int;
  wal : int * int * int;
}

let memo_counts (c : W.counters) =
  List.map (fun (n, (s : Parallel.Memo.stats)) -> (n, s.hits, s.misses)) c.memo

let sim_counts () =
  let fs = { W.list = [] } in
  let c0 = W.counters () in
  let works =
    List.filter_map
      (fun seed ->
         let spec =
           Chc.Executor.default_spec ~config:(W.config ~n:6 ~d:3) ~seed
             ~ensure_crash:true ()
         in
         let r, _, _ = W.sim_exec fs { spec with Chc.Scenario.seed = 7 * seed } in
         Option.map W.work_of_report r)
      [ 1; 2 ]
  in
  let c = W.diff c0 (W.counters ()) in
  check "sim executions pass every check" (fs.list = []);
  { fallbacks = c.fallbacks; filter_hits = c.filter_hits; memo = memo_counts c;
    msgs = List.fold_left (fun a (w : W.work) -> a + w.msgs) 0 works;
    wire_bytes = List.fold_left (fun a (w : W.work) -> a + w.wire_bytes) 0 works;
    wal = (0, 0, 0) }

let serve_counts ~wal =
  let fs = { W.list = [] } in
  let jobs = W.gen_jobs (Runtime.Rng.create 5) ~first_id:0 10 in
  let wal_dir = if wal then Some (W.fresh_wal_dir ()) else None in
  Parallel.Memo.clear_all ();
  let server = Serve.Server.create ~fuel:W.fuel ?wal_dir () in
  (* a clock that stands still: the schedule depends on completions only *)
  let c = W.client ~clock:(fun () -> 0.) server jobs fs in
  let c0 = W.counters () and frames0 = W.metric_sum "chc_serve_frame_bytes_total" in
  ignore
    (Stats.closed_loop c.clock (W.system c) ~concurrency:4 ~limit:10
       ~window_s:infinity);
  let counters = W.diff c0 (W.counters ()) in
  let wc = W.wal_counts server in
  Option.iter
    (fun dir ->
       W.check_wal c ~wal_dir:dir;
       W.cleanup_wal_dir dir)
    wal_dir;
  check
    (Printf.sprintf "served instances pass every check (wal=%b)" wal)
    (fs.list = [] && Hashtbl.length c.steps = 10);
  check (Printf.sprintf "WAL counts are zero iff the WAL is off (wal=%b)" wal)
    ((wc.bytes > 0 && wc.appends > 0 && wc.syncs > 0) = wal);
  { fallbacks = counters.fallbacks; filter_hits = counters.filter_hits;
    memo = memo_counts counters;
    msgs = Hashtbl.fold (fun _ (steps, _) a -> a + steps) c.steps 0;
    wire_bytes = W.metric_sum "chc_serve_frame_bytes_total" - frames0;
    wal = (wc.bytes, wc.appends, wc.syncs) }

let counts_line name =
  let c =
    match name with
    | "sim-d3-cold" -> sim_counts ()
    | "serve-mix-closed" -> serve_counts ~wal:false
    | _ -> serve_counts ~wal:true
  in
  let wb, wa, ws = c.wal in
  Printf.sprintf "msgs=%d wire_bytes=%d wal=%d/%d/%d fallbacks=%d filter_hits=%d memo=%s"
    c.msgs c.wire_bytes wb wa ws c.fallbacks c.filter_hits
    (String.concat ","
       (List.map (fun (n, h, m) -> Printf.sprintf "%s:%d/%d" n h m) c.memo))

(* Two runs are two processes: caches that live for a process's
   lifetime must not leak from one run into the other's counts. *)
let child_counts name =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--counts"; name |]
  in
  let lines = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Some lines
  | _ -> None

let test_determinism () =
  List.iter
    (fun name ->
       match (child_counts name, child_counts name) with
       | Some a, Some b ->
         check (Printf.sprintf "%s: counts repeat exactly\n  %s  %s" name a b)
           (a = b)
       | _ -> check (name ^ ": counting run failed") false)
    [ "sim-d3-cold"; "serve-mix-closed"; "serve-mix-closed durability leg" ]

let () =
  match Sys.argv with
  | [| _; "--counts"; name |] ->
    Parallel.Pool.set_global_size 1;
    print_endline (counts_line name);
    exit (if !failures = 0 then 0 else 1)
  | _ ->
    test_nearest_rank ();
    test_tail_rule ();
    test_closed_loop ();
    test_layers ();
    test_determinism ();
    if !failures > 0 then begin
      Printf.printf "perfbench selftest: %d failures\n" !failures;
      exit 1
    end
