module Q = Numeric.Q
module Vec = Geometry.Vec
module H = Geometry.Hull2d
module Lp = Geometry.Lp

let v x y = Vec.of_ints [x; y]
let qt = Alcotest.testable Q.pp Q.equal

let test_hull_square_with_interior () =
  let h = H.hull [v 0 0; v 2 0; v 2 2; v 0 2; v 1 1; v 0 1; v 1 0] in
  Alcotest.(check int) "vertices" 4 (List.length h);
  Alcotest.(check bool) "canonical" true (H.is_canonical h);
  Alcotest.check qt "area2" (Q.of_int 8) (H.area2 h)

let test_hull_degenerate () =
  Alcotest.(check int) "point" 1 (List.length (H.hull [v 5 5; v 5 5; v 5 5]));
  let seg = H.hull [v 0 0; v 3 3; v 1 1; v 2 2] in
  Alcotest.(check int) "collinear -> segment" 2 (List.length seg);
  Alcotest.(check bool) "extremes kept" true
    (List.exists (Vec.equal (v 0 0)) seg && List.exists (Vec.equal (v 3 3)) seg);
  Alcotest.(check int) "empty" 0 (List.length (H.hull []))

let test_contains () =
  let h = H.hull [v 0 0; v 4 0; v 0 4] in
  Alcotest.(check bool) "interior" true (H.contains h (v 1 1));
  Alcotest.(check bool) "boundary edge" true (H.contains h (v 2 2));
  Alcotest.(check bool) "vertex" true (H.contains h (v 0 4));
  Alcotest.(check bool) "outside" false (H.contains h (v 3 3));
  Alcotest.(check bool) "segment member" true
    (H.contains [v 0 0; v 2 2] (v 1 1));
  Alcotest.(check bool) "segment non-member" false
    (H.contains [v 0 0; v 2 2] (v 1 2))

let test_clip () =
  let square = H.hull [v 0 0; v 2 0; v 2 2; v 0 2] in
  let c = H.clip square ~normal:(v 1 1) ~offset:Q.two in
  (* Cut the square by x + y <= 2: a triangle of area 2. *)
  Alcotest.check qt "clipped area" (Q.of_int 4) (H.area2 c);
  let gone = H.clip square ~normal:(v 1 0) ~offset:Q.minus_one in
  Alcotest.(check int) "clipped away" 0 (List.length gone);
  let touch = H.clip square ~normal:(v 1 0) ~offset:Q.zero in
  Alcotest.(check int) "touching edge survives" 2 (List.length touch)

let test_minkowski_known () =
  let square = H.hull [v 0 0; v 1 0; v 1 1; v 0 1] in
  let tri = H.hull [v 0 0; v 1 0; v 0 1] in
  let s = H.minkowski_sum square tri in
  Alcotest.(check int) "pentagon" 5 (List.length s);
  Alcotest.check qt "area2 = 2*(1 + 1/2 + boundary strip)"
    (H.area2 (H.hull (List.concat_map (fun a -> List.map (Vec.add a) (H.hull [v 0 0; v 1 0; v 0 1])) square)))
    (H.area2 s)

(* --- properties ------------------------------------------------------ *)

let arb = Gen.arb_points ~min_size:1 ~max_size:10 2
let arb_pair = QCheck.pair arb arb

let props =
  [ Gen.prop "hull contains all inputs" arb
      (fun pts ->
         let h = H.hull pts in
         List.for_all (H.contains h) pts);
    Gen.prop "hull is canonical" arb
      (fun pts -> H.is_canonical (H.hull pts));
    Gen.prop "hull idempotent" arb
      (fun pts ->
         let h = H.hull pts in
         List.length (H.hull h) = List.length h
         && List.for_all2 Vec.equal (H.hull h) h);
    Gen.prop "hull membership agrees with LP" (QCheck.pair arb (Gen.arb_vec 2))
      (fun (pts, p) -> H.contains (H.hull pts) p = Lp.in_convex_hull pts p);
    Gen.prop "clip is sound" (QCheck.pair arb (Gen.arb_vec 2))
      (fun (pts, n) ->
         if Vec.equal n (Vec.zero 2) then QCheck.assume_fail ()
         else begin
           let h = H.hull pts in
           let offset = Q.one in
           let c = H.clip h ~normal:n ~offset in
           List.for_all
             (fun x -> Q.leq (Vec.dot n x) offset && H.contains h x)
             c
         end);
    Gen.prop "clip keeps satisfying vertices" (QCheck.pair arb (Gen.arb_vec 2))
      (fun (pts, n) ->
         if Vec.equal n (Vec.zero 2) then QCheck.assume_fail ()
         else begin
           let h = H.hull pts in
           let offset = Q.one in
           let c = H.clip h ~normal:n ~offset in
           List.for_all
             (fun x ->
                if Q.leq (Vec.dot n x) offset then H.contains c x else true)
             h
         end);
    Gen.prop "intersection is commutative and sound" arb_pair
      (fun (p1, p2) ->
         let h1 = H.hull p1 and h2 = H.hull p2 in
         let i12 = H.intersect h1 h2 and i21 = H.intersect h2 h1 in
         List.length i12 = List.length i21
         && List.for_all2 Vec.equal i12 i21
         && List.for_all (fun x -> H.contains h1 x && H.contains h2 x) i12);
    Gen.prop "intersection contains common points"
      (QCheck.pair arb_pair (Gen.arb_vec 2))
      (fun ((p1, p2), x) ->
         let h1 = H.hull p1 and h2 = H.hull p2 in
         if H.contains h1 x && H.contains h2 x then
           H.contains (H.intersect h1 h2) x
         else true);
    Gen.prop "minkowski support additivity"
      (QCheck.pair arb_pair (Gen.arb_vec 2))
      (fun ((p1, p2), dir) ->
         let h1 = H.hull p1 and h2 = H.hull p2 in
         let s = H.minkowski_sum h1 h2 in
         let support h =
           List.fold_left (fun acc x -> Q.max acc (Vec.dot dir x))
             (Vec.dot dir (List.hd h)) h
         in
         (match h1, h2 with
          | [], _ | _, [] -> s = []
          | _ -> Q.equal (support s) (Q.add (support h1) (support h2))));
    Gen.prop "minkowski edge-merge agrees with pairwise sums" arb_pair
      (fun (p1, p2) ->
         let h1 = H.hull p1 and h2 = H.hull p2 in
         match h1, h2 with
         | [], _ | _, [] -> true
         | _ ->
           let fast = H.minkowski_sum h1 h2 in
           let slow =
             H.hull (List.concat_map (fun a -> List.map (Vec.add a) h2) h1)
           in
           List.length fast = List.length slow
           && List.for_all2 Vec.equal fast slow);
    Gen.prop "halfplanes describe the polytope"
      (QCheck.pair arb (Gen.arb_vec 2))
      (fun (pts, x) ->
         let h = H.hull pts in
         match h with
         | [] -> true
         | _ ->
           let hp = H.halfplanes h in
           let inside_h = H.contains h x in
           let inside_hp =
             List.for_all (fun (n, c) -> Q.leq (Vec.dot n x) c) hp
           in
           inside_h = inside_hp);
    Gen.prop "area non-negative and zero iff degenerate" arb
      (fun pts ->
         let h = H.hull pts in
         let a = H.area2 h in
         Q.sign a >= 0 && (Q.is_zero a = (List.length h <= 2)));
    Gen.prop "k-way weighted sum agrees with the pairwise hulls"
      Gen.arb_sum_terms
      (fun terms ->
         let fast = H.weighted_sum terms in
         let slow = Gen.pairwise_sum terms in
         H.is_canonical fast
         && List.length fast = List.length slow
         && List.for_all2 Vec.equal fast slow);
  ]

let suite =
  [ ( "hull2d",
      [ Alcotest.test_case "square with interior" `Quick test_hull_square_with_interior;
        Alcotest.test_case "degenerate hulls" `Quick test_hull_degenerate;
        Alcotest.test_case "contains" `Quick test_contains;
        Alcotest.test_case "clip" `Quick test_clip;
        Alcotest.test_case "minkowski known" `Quick test_minkowski_known ]
      @ List.map Gen.qtest props ) ]
