module Q = Numeric.Q
module Vec = Geometry.Vec
module P = Geometry.Polytope

let v2 x y = Vec.of_ints [x; y]
let qt = Alcotest.testable Q.pp Q.equal
let pt = Alcotest.testable P.pp P.equal

let square a b =
  P.of_points ~dim:2 [v2 a a; v2 b a; v2 b b; v2 a b]

let test_equal_canonical () =
  let p1 = P.of_points ~dim:2 [v2 0 0; v2 2 0; v2 2 2; v2 0 2; v2 1 1] in
  let p2 = P.of_points ~dim:2 [v2 2 2; v2 0 2; v2 0 0; v2 1 0; v2 2 0] in
  Alcotest.check pt "same set, same canonical form" p1 p2

let test_subset () =
  Alcotest.(check bool) "nested" true (P.subset (square 1 2) (square 0 3));
  Alcotest.(check bool) "not nested" false (P.subset (square 0 3) (square 1 2));
  Alcotest.(check bool) "self" true (P.subset (square 0 3) (square 0 3))

let test_average_identity () =
  (* For a convex set, (1/2)P ⊕ (1/2)P = P. *)
  let p = P.of_points ~dim:2 [v2 0 0; v2 4 0; v2 1 3] in
  Alcotest.check pt "self-average" p (P.average [p; p])

let test_average_of_points () =
  (* L of singletons is the singleton of the average. *)
  let a = P.singleton (v2 0 0) and b = P.singleton (v2 2 4) in
  Alcotest.check pt "midpoint" (P.singleton (v2 1 2)) (P.average [a; b])

let test_lincomb_weights_validation () =
  let p = square 0 1 in
  Alcotest.check_raises "weights must sum to 1"
    (Invalid_argument "Polytope.linear_combination: weights must sum to 1")
    (fun () -> ignore (P.linear_combination [(Q.half, p); (Q.half, p); (Q.half, p)]));
  Alcotest.check_raises "no negative weights"
    (Invalid_argument "Polytope.linear_combination: negative weight")
    (fun () ->
       ignore (P.linear_combination [(Q.of_int 2, p); (Q.minus_one, p)]))

let test_volume () =
  Alcotest.(check (option (Alcotest.testable Q.pp Q.equal))) "square"
    (Some (Q.of_int 9)) (P.volume (square 0 3));
  let seg = P.of_points ~dim:1 [Vec.of_ints [2]; Vec.of_ints [7]] in
  Alcotest.(check (option qt)) "interval length" (Some (Q.of_int 5)) (P.volume seg);
  let p4 = P.of_points ~dim:4 [Vec.of_ints [0;0;0;0]; Vec.of_ints [1;0;0;0]] in
  Alcotest.(check (option qt)) "4d unsupported" None (P.volume p4)

let test_intersect_empty () =
  Alcotest.(check bool) "disjoint" true
    (P.intersect [square 0 1; square 5 6] = None);
  (match P.intersect [square 0 2; square 2 4] with
   | Some p -> Alcotest.(check bool) "corner touch is a point" true (P.is_point p)
   | None -> Alcotest.fail "touching squares intersect")

let test_support () =
  let p = square 0 3 in
  let value, arg = P.support p (v2 1 1) in
  Alcotest.check qt "support value" (Q.of_int 6) value;
  Alcotest.(check bool) "arg is the far corner" true (Vec.equal arg (v2 3 3))

let test_steiner_inside () =
  let p = P.of_points ~dim:2 [v2 0 0; v2 7 1; v2 3 5] in
  Alcotest.(check bool) "steiner inside" true (P.contains p (P.steiner_point p));
  let seg = P.of_points ~dim:1 [Vec.of_ints [0]; Vec.of_ints [4]] in
  Alcotest.(check bool) "1d midpoint" true
    (Vec.equal (P.steiner_point seg) (Vec.of_ints [2]))

(* --- properties ------------------------------------------------------ *)

let arb_poly dim =
  QCheck.make
    ~print:(fun p -> P.to_string p)
    (QCheck.Gen.map
       (fun pts -> P.of_points ~dim pts)
       (Gen.gen_points ~min_size:1 ~max_size:7 dim))

(* Drawn weights rescaled to sum to 1 (all on the first operand when
   every drawn weight is zero). *)
let normalize ws =
  let total = Q.sum ws in
  if Q.is_zero total then List.mapi (fun i _ -> if i = 0 then Q.one else Q.zero) ws
  else List.map (fun c -> Q.div c total) ws

let props =
  [ Gen.prop "average of two copies is identity" (arb_poly 2)
      (fun p -> P.equal p (P.average [p; p]));
    Gen.prop "hausdorff2 zero iff equal" (QCheck.pair (arb_poly 2) (arb_poly 2))
      (fun (p, q) -> Q.is_zero (P.hausdorff2 p q) = P.equal p q);
    Gen.prop "hausdorff symmetric" (QCheck.pair (arb_poly 2) (arb_poly 2))
      (fun (p, q) -> Q.equal (P.hausdorff2 p q) (P.hausdorff2 q p));
    Gen.prop "hausdorff triangle inequality"
      (QCheck.triple (arb_poly 2) (arb_poly 2) (arb_poly 2))
      (fun (a, b, c) ->
         P.hausdorff a c <= P.hausdorff a b +. P.hausdorff b c +. 1e-9);
    Gen.prop "intersection is a subset of both"
      (QCheck.pair (arb_poly 2) (arb_poly 2))
      (fun (p, q) ->
         match P.intersect [p; q] with
         | None -> true
         | Some r -> P.subset r p && P.subset r q);
    Gen.prop "intersection volume monotone"
      (QCheck.pair (arb_poly 2) (arb_poly 2))
      (fun (p, q) ->
         match P.intersect [p; q], P.volume p with
         | Some r, Some vp ->
           (match P.volume r with
            | Some vr -> Q.leq vr vp
            | None -> false)
         | _ -> true);
    Gen.prop "L is translation covariant"
      (QCheck.triple (arb_poly 2) (arb_poly 2) (Gen.arb_vec 2))
      (fun (p, q, t) ->
         (* average (p + t) q = (average p q) + t/2 *)
         let lhs = P.average [P.translate t p; q] in
         let rhs = P.translate (Vec.scale Q.half t) (P.average [p; q]) in
         P.equal lhs rhs);
    Gen.prop "average subset of hull of union"
      (QCheck.pair (arb_poly 2) (arb_poly 2))
      (fun (p, q) ->
         let hull_union =
           P.of_points ~dim:2 (P.vertices p @ P.vertices q)
         in
         P.subset (P.average [p; q]) hull_union);
    Gen.prop "steiner point inside" (arb_poly 2)
      (fun p -> P.contains p (P.steiner_point p));
    Gen.prop "centroid inside" (arb_poly 2)
      (fun p -> P.contains p (P.centroid p));
    Gen.prop ~count:60 "3d averages keep subset relation with hull union"
      (QCheck.pair (arb_poly 3) (arb_poly 3))
      (fun (p, q) ->
         let hull_union = P.of_points ~dim:3 (P.vertices p @ P.vertices q) in
         P.subset (P.average [p; q]) hull_union);
    Gen.prop ~count:60 "1d behaves like interval arithmetic"
      (QCheck.pair (arb_poly 1) (arb_poly 1))
      (fun (p, q) ->
         let bounds poly =
           let b = (P.bounding_box poly).(0) in
           b
         in
         let (plo, phi) = bounds p and (qlo, qhi) = bounds q in
         let avg = P.average [p; q] in
         let (alo, ahi) = bounds avg in
         Q.equal alo (Q.div (Q.add plo qlo) Q.two)
         && Q.equal ahi (Q.div (Q.add phi qhi) Q.two));
    Gen.prop "2d linear combination agrees with the pairwise hulls"
      Gen.arb_sum_terms
      (fun terms ->
         let terms =
           List.combine (normalize (List.map fst terms)) (List.map snd terms)
         in
         let r =
           P.linear_combination
             (List.map (fun (c, p) -> (c, P.of_points ~dim:2 p)) terms)
         in
         Geometry.Hull2d.is_canonical (P.vertices r)
         && P.equal r (P.of_points ~dim:2 (Gen.pairwise_sum terms)));
    Gen.prop "1d linear combination is the weighted interval"
      (QCheck.pair
         (QCheck.list_of_size (QCheck.Gen.int_range 1 7) (arb_poly 1))
         (QCheck.make (QCheck.Gen.list_repeat 7 Gen.gen_weight)))
      (fun (polys, ws) ->
         let ws = normalize (List.filteri (fun i _ -> i < List.length polys) ws) in
         let r = P.linear_combination (List.combine ws polys) in
         let ends pick =
           Q.sum (List.map2 (fun c p -> Q.mul c (pick (P.bounding_box p).(0))) ws polys)
         in
         let lo = ends fst and hi = ends snd in
         let want =
           if Q.equal lo hi then [Vec.make [lo]] else [Vec.make [lo]; Vec.make [hi]]
         in
         List.length (P.vertices r) = List.length want
         && List.for_all2 Vec.equal (P.vertices r) want);
  ]

let suite =
  [ ( "polytope",
      [ Alcotest.test_case "canonical equality" `Quick test_equal_canonical;
        Alcotest.test_case "subset" `Quick test_subset;
        Alcotest.test_case "self-average" `Quick test_average_identity;
        Alcotest.test_case "average of points" `Quick test_average_of_points;
        Alcotest.test_case "weight validation" `Quick test_lincomb_weights_validation;
        Alcotest.test_case "volume" `Quick test_volume;
        Alcotest.test_case "intersect empty/touching" `Quick test_intersect_empty;
        Alcotest.test_case "support" `Quick test_support;
        Alcotest.test_case "steiner" `Quick test_steiner_inside ]
      @ List.map Gen.qtest props ) ]
