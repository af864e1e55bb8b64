(* End-to-end tests of Algorithm CC: the three correctness properties
   of Theorem 2 (validity, ε-agreement, termination), the optimality
   certificate of Lemma 6 / Theorem 3, degenerate cases, and
   determinism. Agreement and containment checks are exact (rational);
   no tolerances are involved anywhere. *)

module Q = Numeric.Q
module Vec = Geometry.Vec
module Polytope = Geometry.Polytope
module Config = Chc.Config
module Cc = Chc.Cc
module Executor = Chc.Executor
module Scheduler = Runtime.Scheduler
module Crash = Runtime.Crash

let cfg ?(eps = Q.of_ints 1 4) ~n ~f ~d () =
  Config.make ~n ~f ~d ~eps ~lo:Q.zero ~hi:Q.one

let check_report (r : Executor.report) =
  Alcotest.(check bool) "termination" true r.Executor.terminated;
  Alcotest.(check bool) "validity" true r.Executor.valid;
  Alcotest.(check bool) "eps-agreement" true r.Executor.agreement_ok;
  Alcotest.(check bool) "optimality (I_Z containment)" true r.Executor.optimal

let test_basic_2d () =
  let config = cfg ~n:5 ~f:1 ~d:2 () in
  check_report (Executor.run (Executor.default_spec ~config ~seed:11 ()))

let test_fault_free () =
  let config = cfg ~n:5 ~f:1 ~d:2 () in
  (* f = 1 faults tolerated but nobody actually crashes. *)
  let spec = Executor.default_spec ~config ~seed:12 ~faulty:[] () in
  let r = Executor.run spec in
  check_report r;
  (* With no faulty process every process decides. *)
  Alcotest.(check bool) "all decided" true
    (Array.for_all (fun o -> o <> None) r.Executor.result.Cc.outputs)

let test_f_zero () =
  let config = cfg ~n:3 ~f:0 ~d:2 () in
  let r = Executor.run (Executor.default_spec ~config ~seed:13 ()) in
  check_report r;
  (* f = 0: the round-0 polytope is the full hull and stays the
     decision's upper bound; outputs must equal the hull of all inputs
     eventually contain I_Z = H(X_Z). *)
  Alcotest.(check bool) "iz exists" true (r.Executor.iz <> None)

let test_identical_inputs () =
  (* All processes share one input: the decision must be exactly that
     single point (degenerate case from Section 6). *)
  let config = cfg ~n:5 ~f:1 ~d:2 () in
  let x = Vec.make [Q.half; Q.of_ints 1 3] in
  let spec =
    { (Executor.default_spec ~config ~seed:14 ()) with
      Executor.inputs = Array.make 5 x }
  in
  let r = Executor.run spec in
  check_report r;
  Array.iter
    (function
      | None -> ()
      | Some h ->
        Alcotest.(check bool) "single point" true (Polytope.is_point h);
        Alcotest.(check bool) "the shared input" true
          (Vec.equal (List.hd (Polytope.vertices h)) x))
    r.Executor.result.Cc.outputs

let test_1d () =
  let config = cfg ~n:4 ~f:1 ~d:1 ~eps:(Q.of_ints 1 50) () in
  check_report (Executor.run (Executor.default_spec ~config ~seed:15 ()))

let test_3d () =
  (* Generic-position rational inputs in d=3 make the exact Minkowski
     pruning very expensive (see DESIGN.md); a coarse input lattice
     keeps the polytopes small while still exercising the full 3-d
     pipeline (hrep intersection, nd L-combination, exact volumes,
     nd Hausdorff) over 13 genuine rounds. *)
  let config = cfg ~n:6 ~f:1 ~d:3 ~eps:Q.one () in
  let rng = Runtime.Rng.create 7 in
  let inputs = Executor.random_inputs ~config ~rng ~grid:4 () in
  let spec = { (Executor.default_spec ~config ~seed:16 ()) with
               Executor.inputs = inputs } in
  check_report (Executor.run spec)

let test_3d_cube () =
  (* Structured inputs: the corners of the unit cube. *)
  let config = cfg ~n:6 ~f:1 ~d:3 ~eps:(Q.of_ints 1 2) () in
  let inputs =
    [| Vec.of_ints [0;0;0]; Vec.of_ints [1;0;0]; Vec.of_ints [0;1;0];
       Vec.of_ints [0;0;1]; Vec.of_ints [1;1;0]; Vec.of_ints [1;1;1] |]
  in
  let spec = { (Executor.default_spec ~config ~seed:17 ()) with
               Executor.inputs = inputs } in
  let r = Executor.run spec in
  check_report r;
  (* The decided polytope may legitimately be lower-dimensional here
     (the round-0 intersection of corner subsets can be flat); exact
     3-d volume must still be computable and non-negative. *)
  match r.Executor.min_output_volume with
  | Some v -> Alcotest.(check bool) "3d volume computed" true (Q.sign v >= 0)
  | None -> Alcotest.fail "no 3d volume"

let test_tight_n () =
  (* n = (d+2)f + 1 exactly — the resilience frontier. *)
  let config = cfg ~n:5 ~f:1 ~d:2 () in
  check_report (Executor.run (Executor.default_spec ~config ~seed:17 ()));
  let config = cfg ~n:7 ~f:2 ~d:1 () in
  check_report (Executor.run (Executor.default_spec ~config ~seed:18 ()))

let test_immediate_crashes () =
  let config = cfg ~n:5 ~f:1 ~d:2 () in
  let spec = Executor.default_spec ~config ~seed:19 () in
  let crash = Array.make 5 Crash.Never in
  crash.(0) <- Crash.After_sends 0;
  check_report (Executor.run { spec with Executor.crash })

let test_lag_adversary () =
  let config = cfg ~n:5 ~f:1 ~d:2 () in
  let spec =
    Executor.default_spec ~config ~seed:20
      ~scheduler:(Scheduler.lag_sources [4]) ()
  in
  check_report (Executor.run spec)

let test_determinism () =
  let config = cfg ~n:5 ~f:1 ~d:2 () in
  let run () =
    let r = Executor.run (Executor.default_spec ~config ~seed:21 ()) in
    r.Executor.result.Cc.outputs
  in
  let o1 = run () and o2 = run () in
  Array.iteri
    (fun i a ->
       match a, o2.(i) with
       | None, None -> ()
       | Some p, Some q ->
         Alcotest.(check bool) "same polytope" true (Polytope.equal p q)
       | _ -> Alcotest.fail "determinism broken")
    o1

let test_output_contains_iz_strictly_useful () =
  (* The decided polytope is a genuine region (not always a point):
     with spread-out inputs and n well above the bound, the output
     volume is positive. *)
  let config = cfg ~n:7 ~f:1 ~d:2 () in
  let corners =
    [| Vec.of_ints [0; 0]; Vec.make [Q.one; Q.zero]; Vec.make [Q.zero; Q.one];
       Vec.make [Q.one; Q.one]; Vec.make [Q.half; Q.zero];
       Vec.make [Q.zero; Q.half]; Vec.make [Q.half; Q.one] |]
  in
  let spec =
    { (Executor.default_spec ~config ~seed:22 ()) with
      Executor.inputs = corners }
  in
  let r = Executor.run spec in
  check_report r;
  (match r.Executor.min_output_volume with
   | Some v -> Alcotest.(check bool) "positive volume" true (Q.sign v > 0)
   | None -> Alcotest.fail "no volume")

(* Regressions for the optimality witness. In both scenarios process 0
   is plan-faulty and holds the smallest stable view; its h[0] reaches
   the others in round 1, so its view must bound Z. Leaving it out grew
   I_Z past every h_i[t] — a false optimality failure.
   - seed 39384 (eps 1/10): the planned crash never fires; I_Z became
     [127/250, 309/500] ([chc_sim run -n 4 -f 1 -d 1 --seed 39384]).
   - seed 81082 (eps 1/4): the crash fires, but only after round 1. *)
let test_iz_views_of_round1_senders () =
  let run ~eps ~seed =
    let config = cfg ~eps ~n:4 ~f:1 ~d:1 () in
    Executor.run (Executor.default_spec ~config ~seed ())
  in
  let r = run ~eps:(Q.of_ints 1 10) ~seed:39384 in
  Alcotest.(check (list int)) "plan-faulty set" [ 0 ] r.Executor.faulty;
  Alcotest.(check bool) "the planned crash never fired" false
    r.Executor.result.Cc.crashed.(0);
  check_report r;
  let r = run ~eps:(Q.of_ints 1 4) ~seed:81082 in
  Alcotest.(check bool) "process 0 crashed" true
    r.Executor.result.Cc.crashed.(0);
  Alcotest.(check (option bool)) "after sending round 1" (Some true)
    (List.assoc_opt 1 r.Executor.result.Cc.sent_round.(0));
  check_report r

(* --- randomized sweeps ----------------------------------------------- *)

let sweep ~name ~count gen_params =
  Gen.prop ~count name
    (QCheck.make
       ~print:(fun (seed, n, f, d) ->
           Printf.sprintf "seed=%d n=%d f=%d d=%d" seed n f d)
       gen_params)
    (fun (seed, n, f, d) ->
       let config = cfg ~n ~f ~d () in
       let r = Executor.run (Executor.default_spec ~config ~seed ()) in
       r.Executor.terminated && r.Executor.valid && r.Executor.agreement_ok
       && r.Executor.optimal)

let prop_sweep_2d =
  sweep ~name:"E3/E4 sweep d=2" ~count:25
    QCheck.Gen.(
      let* seed = 0 -- 100000 in
      let* n = 5 -- 7 in
      return (seed, n, 1, 2))

let prop_sweep_1d =
  sweep ~name:"E3/E4 sweep d=1" ~count:25
    QCheck.Gen.(
      let* seed = 0 -- 100000 in
      let* n = 4 -- 8 in
      let f = (n - 1) / 3 in
      return (seed, n, f, 1))

let prop_schedulers =
  Gen.prop ~count:20 "properties hold under every scheduler"
    (QCheck.make
       ~print:(fun (seed, which) -> Printf.sprintf "seed=%d sched=%d" seed which)
       QCheck.Gen.(pair (0 -- 100000) (0 -- 3)))
    (fun (seed, which) ->
       let scheduler =
         match which with
         | 0 -> Scheduler.random_uniform
         | 1 -> Scheduler.round_robin
         | 2 -> Scheduler.lifo_bias
         | _ -> Scheduler.lag_sources [0]
       in
       let config = cfg ~n:5 ~f:1 ~d:2 () in
       let r = Executor.run (Executor.default_spec ~config ~seed ~scheduler ()) in
       r.Executor.terminated && r.Executor.valid && r.Executor.agreement_ok
       && r.Executor.optimal)

(* Golden d <= 2 transcripts: digests of the JSONL trace and of the
   decided vertex lists, recorded before the round average became a
   single k-way edge merge. Any change to the d <= 2 geometry that
   alters a vertex, a vertex count or the schedule shows up here. *)
let golden_cases =
  [ ("n5-f1-d2", 5, 1, 2, 101, `Plain,
      "c008c947d471d73354e71b2ed75da5dc",
      "5757b0cf78148b2e96a5af2ed87175ae");
    ("n6-f1-d2", 6, 1, 2, 102, `Plain,
      "bd08a6db48c897d370845b27a66848e8",
      "1073af131e13e88264c2981256db8b4b");
    ("n7-f1-d2", 7, 1, 2, 103, `Plain,
      "7605a2a02020d01ec4878fb3e966d4a9",
      "c2135094cbdaada7ecfc1bb782d61a34");
    ("n6-f1-d1", 6, 1, 1, 104, `Plain,
      "958cb02d9716e9bec90a5749c40f26ac",
      "1e5e06fc926e607aeba9bf117a0eb1da");
    ("n6-f1-d2-recover", 6, 1, 2, 105, `Recover,
      "bd62ef3f8804693aca40c5acf5d5fb90",
      "c1d45ae08cb72969f0b100211d0e1dd9");
    ("n5-f1-d2-naive", 5, 1, 2, 106, `Naive,
      "0b91aff2234c25f0d071fa4d92590658",
      "85abc3082d547aec75821d2f23c0bf20") ]

let test_golden_transcripts () =
  List.iter
    (fun (name, n, f, d, seed, mode, want_trace, want_out) ->
       let config = cfg ~n ~f ~d () in
       let spec =
         match mode with
         | `Naive -> Executor.default_spec ~config ~seed ~round0:`Naive ()
         | `Plain | `Recover -> Executor.default_spec ~config ~seed ()
       in
       let spec =
         match mode with
         | `Recover -> Chc.Cli.recoverize ~delay:6 ~keep:1 spec
         | `Plain | `Naive -> spec
       in
       let trace = Obs.Trace.create () in
       let r = Executor.run ~trace spec in
       (match mode with
        | `Naive ->
          (* Naive round 0 is the optimality ablation: only Theorem 2
             is owed. *)
          Alcotest.(check bool) "termination" true r.Executor.terminated;
          Alcotest.(check bool) "validity" true r.Executor.valid;
          Alcotest.(check bool) "eps-agreement" true r.Executor.agreement_ok
        | `Plain | `Recover -> check_report r);
       if mode = `Recover then
         Alcotest.(check bool) (name ^ ": a process recovered") true
           (r.Executor.recovered <> []);
       let outs =
         Array.to_list r.Executor.result.Cc.outputs
         |> List.map (function
             | None -> "-"
             | Some p -> Polytope.to_string p)
         |> String.concat "\n"
       in
       let hex s = Digest.to_hex (Digest.string s) in
       Alcotest.(check string) (name ^ ": trace digest") want_trace
         (hex (Obs.Trace.to_jsonl trace));
       Alcotest.(check string) (name ^ ": decisions digest") want_out
         (hex outs))
    golden_cases

let suite =
  [ ( "algorithm_cc",
      [ Alcotest.test_case "basic 2d" `Quick test_basic_2d;
        Alcotest.test_case "fault-free run" `Quick test_fault_free;
        Alcotest.test_case "f = 0" `Quick test_f_zero;
        Alcotest.test_case "identical inputs -> point" `Quick test_identical_inputs;
        Alcotest.test_case "1d" `Quick test_1d;
        Alcotest.test_case "3d" `Slow test_3d;
        Alcotest.test_case "3d cube corners" `Quick test_3d_cube;
        Alcotest.test_case "tight n" `Quick test_tight_n;
        Alcotest.test_case "immediate crashes" `Quick test_immediate_crashes;
        Alcotest.test_case "lag adversary" `Quick test_lag_adversary;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "positive-volume outputs" `Quick
          test_output_contains_iz_strictly_useful ]
      @ List.map Gen.qtest [ prop_sweep_2d; prop_sweep_1d; prop_schedulers ]
      @ [ Alcotest.test_case "round-1 senders' views bound Z" `Quick
            test_iz_views_of_round1_senders;
          Alcotest.test_case "golden d<=2 transcripts" `Quick
            test_golden_transcripts ] ) ]
