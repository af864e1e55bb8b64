(* The d=3 grading queries answered from the engine dual's facets —
   [Polytope.contains]/[subset] by exact facet-plane tests,
   [Distance.project_point_hull]/[hausdorff2] by certified face
   projection — against the reference paths they replace: the exact LP
   ([Lp.in_convex_hull_uncached]) and the vertex-subset enumeration
   ([Distance.project_point_hull_brute]).

   Inputs cover random rationals, ±1/2^200 perturbations (invisible to
   the floats that pick a face), points exactly on facets, edges and
   vertices (and nudged off them), and coplanar or collinear targets,
   which have no dual and take the fallback path. Every fast-side
   evaluation runs under both polytope-engine modes with the memo
   tables bypassed, so neither leg is served the other's values. *)

module Q = Numeric.Q
module Vec = Geometry.Vec
module PE = Geometry.Poly_engine
module Hullnd = Geometry.Hullnd
module Polytope = Geometry.Polytope
module D = Geometry.Distance
module Lp = Geometry.Lp

let both_modes f =
  Parallel.Memo.with_bypass (fun () ->
      let r = PE.with_mode PE.Rebuild f in
      let i =
        PE.with_mode PE.Incremental (fun () ->
            PE.with_handle (PE.create_handle ()) f)
      in
      [ r; i ])

let tiny = Q.pow Q.half 200

(* --- generators --------------------------------------------------------- *)

let gen_adv_coord =
  let open QCheck.Gen in
  let* base = Gen.gen_small_q in
  oneofl [ base; Q.add base tiny; Q.sub base tiny ]

let gen_adv_points ~max_size =
  let open QCheck.Gen in
  let* n = 4 -- max_size in
  list_size (return n)
    (map Array.of_list (list_size (return 3) gen_adv_coord))

let gen_adv_vec = QCheck.Gen.map Array.of_list
    (QCheck.Gen.list_size (QCheck.Gen.return 3) gen_adv_coord)

(* Random and perturbed point sets, half and half. *)
let gen_points ~max_size =
  QCheck.Gen.(
    oneof [ Gen.gen_points ~min_size:4 ~max_size 3; gen_adv_points ~max_size ])

let gen_query = QCheck.Gen.(oneof [ Gen.gen_vec 3; gen_adv_vec ])

let print_case (pts, q) = Gen.print_points pts ^ " | " ^ Vec.to_string q

let arb_hull_query ~max_size =
  QCheck.make ~print:print_case QCheck.Gen.(pair (gen_points ~max_size) gen_query)

let arb_hull ~max_size = QCheck.make ~print:Gen.print_points (gen_points ~max_size)

let arb_two ~max_size =
  QCheck.make
    ~print:(fun (a, b) -> Gen.print_points a ^ " | " ^ Gen.print_points b)
    QCheck.Gen.(pair (gen_points ~max_size) (gen_points ~max_size))

(* --- boundary points ---------------------------------------------------- *)

(* Points exactly on the boundary of conv(pts), each with an outward
   direction: every vertex, every facet's vertex centroid, and the
   midpoint of every pair of vertices on a common facet (edges and
   facet diagonals). Directions are the facet normal, or the sum of
   the incident normals at a vertex. Empty for lower-dimensional
   sets. *)
let boundary pts =
  let verts = Hullnd.extreme_points pts in
  match Hullnd.dual_3d verts with
  | None -> []
  | Some d ->
    let l = Q.of_bigint d.PE.scale in
    let on (a, b) v =
      Numeric.Filter.sign_of_dot_minus a (Vec.scale l v) b = 0
    in
    let at_vertex =
      List.map
        (fun v ->
           let normals =
             List.filter_map
               (fun (a, b) -> if on (a, b) v then Some a else None)
               d.PE.facets
           in
           (v, List.fold_left Vec.add (Vec.zero 3) normals))
        verts
    in
    let on_facets =
      List.concat_map
        (fun (a, b) ->
           let tight = List.filter (on (a, b)) verts in
           let rec pairs = function
             | [] -> []
             | u :: rest ->
               List.map (fun v -> (Vec.scale Q.half (Vec.add u v), a)) rest
               @ pairs rest
           in
           (Vec.average tight, a) :: pairs tight)
        d.PE.facets
    in
    (* Scale each direction to unit max-norm, so nudges stay tiny and
       pushes stay near the hull. *)
    let unit (x, dir) =
      let m = Array.fold_left (fun m c -> Q.max m (Q.abs c)) Q.zero dir in
      (x, if Q.is_zero m then dir else Vec.scale (Q.inv m) dir)
    in
    List.map unit (at_vertex @ on_facets)

(* A boundary point, nudged inward and outward by 1/2^200 and pushed
   out by a visible step along its outward direction. *)
let around (x, dir) =
  [ x; Vec.add x (Vec.scale tiny dir); Vec.sub x (Vec.scale tiny dir);
    Vec.add x (Vec.scale (Q.of_ints 1 3) dir) ]

(* --- oracles ------------------------------------------------------------ *)

let lp_contains verts x = Lp.in_convex_hull_uncached verts x

let brute_project pts x = D.project_point_hull_brute ~dim:3 x pts

let brute_hausdorff2 a b =
  let directed from to_ =
    List.fold_left (fun acc v -> Q.max acc (fst (brute_project to_ v)))
      Q.zero from
  in
  Q.max (directed a b) (directed b a)

let same_projection (d2, q) (d2', q') = Q.equal d2 d2' && Vec.equal q q'

let fallback_count query =
  List.fold_left
    (fun acc (s : Obs.Metrics.snapshot) ->
       match s.Obs.Metrics.value with
       | Obs.Metrics.Counter c
         when s.Obs.Metrics.metric = "chc_poly_facet_fallback_total"
              && List.assoc_opt "query" s.Obs.Metrics.labels = Some query ->
         acc + c
       | _ -> acc)
    0 (Obs.Metrics.snapshot_all ())

(* --- properties --------------------------------------------------------- *)

let contains_props =
  [ Gen.prop ~count:60 "contains = LP membership" (arb_hull_query ~max_size:9)
      (fun (pts, x) ->
         let p = Polytope.of_points ~dim:3 pts in
         let want = lp_contains (Polytope.vertices p) x in
         List.for_all (Bool.equal want)
           (both_modes (fun () -> Polytope.contains p x)));
    (* On the boundary is in, 1/2^200 out along the normal cone is
       out; 1/2^200 the other way asks the LP. *)
    Gen.prop ~count:20 "contains on and off facets, edges and vertices"
      (arb_hull ~max_size:8)
      (fun pts ->
         let p = Polytope.of_points ~dim:3 pts in
         let cases =
           List.concat_map
             (fun (x, dir) ->
                let inward = Vec.sub x (Vec.scale tiny dir) in
                [ (x, true); (Vec.add x (Vec.scale tiny dir), false);
                  (inward, lp_contains (Polytope.vertices p) inward) ])
             (boundary pts)
         in
         let want = List.map snd cases in
         List.for_all
           (List.equal Bool.equal want)
           (both_modes (fun () ->
                let mem = Polytope.contains p in
                List.map (fun (x, _) -> mem x) cases)));
    Gen.prop ~count:40 "subset = LP over the vertices" (arb_two ~max_size:8)
      (fun (pa, pb) ->
         let a = Polytope.of_points ~dim:3 pa in
         let b = Polytope.of_points ~dim:3 pb in
         let want =
           List.for_all (lp_contains (Polytope.vertices b)) (Polytope.vertices a)
         in
         List.for_all (Bool.equal want)
           (both_modes (fun () -> Polytope.subset a b)));
    (* Shrink or grow a hull about its vertex centroid by 1/2^200: the
       copy sits just inside or just outside, invisible to floats. *)
    Gen.prop ~count:25 "subset = LP under 1/2^200 scalings"
      (arb_hull ~max_size:8)
      (fun pts ->
         let p = Polytope.of_points ~dim:3 pts in
         let c = Vec.average (Polytope.vertices p) in
         let scaled k =
           Polytope.of_points ~dim:3
             (List.map
                (fun v -> Vec.add c (Vec.scale k (Vec.sub v c)))
                (Polytope.vertices p))
         in
         List.for_all
           (fun k ->
              let s = scaled k in
              let want =
                List.for_all (lp_contains (Polytope.vertices p))
                  (Polytope.vertices s)
              in
              List.for_all (Bool.equal want)
                (both_modes (fun () -> Polytope.subset s p)))
           [ Q.sub Q.one tiny; Q.one; Q.add Q.one tiny ]) ]

let projection_props =
  [ Gen.prop ~count:60 "face projection = subset enumeration"
      (arb_hull_query ~max_size:8)
      (fun (pts, x) ->
         let want = brute_project pts x in
         List.for_all (same_projection want)
           (both_modes (fun () -> D.project_point_hull ~dim:3 x pts)));
    (* A point pushed off the boundary along a direction of its normal
       cone projects back onto it: the foot is known exactly. *)
    Gen.prop ~count:25 "face projection off facets, edges, vertices = foot"
      (arb_hull ~max_size:8)
      (fun pts ->
         let cases =
           List.concat_map
             (fun (x, dir) ->
                List.map
                  (fun k ->
                     ( Vec.add x (Vec.scale k dir),
                       (Q.mul (Q.mul k k) (Vec.norm2 dir), x) ))
                  [ tiny; Q.of_ints 1 3 ])
             (boundary pts)
         in
         let want = List.map snd cases in
         List.for_all
           (List.equal same_projection want)
           (both_modes (fun () ->
                let proj = D.projector ~dim:3 pts in
                List.map (fun (y, _) -> proj y) cases)));
    Gen.prop ~count:6 "face projection = enumeration off facets, edges, vertices"
      (arb_hull ~max_size:6)
      (fun pts ->
         let xs = List.concat_map around (boundary pts) in
         let want = List.map (brute_project pts) xs in
         List.for_all
           (List.equal same_projection want)
           (both_modes (fun () -> List.map (D.projector ~dim:3 pts) xs)));
    Gen.prop ~count:20 "hausdorff2 = subset enumeration" (arb_two ~max_size:6)
      (fun (pa, pb) ->
         let want = brute_hausdorff2 pa pb in
         let a = Polytope.of_points ~dim:3 pa in
         let b = Polytope.of_points ~dim:3 pb in
         List.for_all (Q.equal want)
           (both_modes (fun () -> D.hausdorff2 ~dim:3 pa pb)
            @ both_modes (fun () -> Polytope.hausdorff2 a b))) ]

(* Coplanar (z = c) and collinear targets have no dual: both queries
   must keep their reference answers through the fallback paths (the
   unit test below pins the fallback count). *)
let gen_flat =
  let open QCheck.Gen in
  let* z = Gen.gen_small_q in
  let* collinear = bool in
  let* n = 1 -- 7 in
  let* dir = Gen.gen_vec 3 in
  let* base = Gen.gen_vec 3 in
  let* ts = list_size (return n) Gen.gen_small_q in
  let* xys = list_size (return n) (pair Gen.gen_small_q Gen.gen_small_q) in
  return
    (if collinear then List.map (fun t -> Vec.add base (Vec.scale t dir)) ts
     else List.map (fun (x, y) -> Vec.make [ x; y; z ]) xys)

let fallback_props =
  [ Gen.prop ~count:40 "flat targets keep the reference answers"
      (QCheck.make ~print:print_case QCheck.Gen.(pair gen_flat gen_query))
      (fun (pts, x) ->
         let p = Polytope.of_points ~dim:3 pts in
         let verts = Polytope.vertices p in
         let want_c = lp_contains verts x in
         let want_p = brute_project pts x in
         List.for_all (Bool.equal want_c)
           (both_modes (fun () -> Polytope.contains p x))
         && List.for_all (same_projection want_p)
           (both_modes (fun () -> D.project_point_hull ~dim:3 x pts))) ]

(* --- units -------------------------------------------------------------- *)

let test_fallback_counter () =
  let v = Vec.of_ints in
  let tet = [ v [ 0; 0; 0 ]; v [ 2; 0; 0 ]; v [ 0; 2; 0 ]; v [ 0; 0; 2 ] ] in
  let square = [ v [ 0; 0; 0 ]; v [ 2; 0; 0 ]; v [ 0; 2; 0 ]; v [ 2; 2; 0 ] ] in
  let x = v [ 1; 1; 1 ] in
  let c0 = fallback_count "contains" and p0 = fallback_count "project" in
  let full = Polytope.of_points ~dim:3 tet in
  Alcotest.(check bool) "tetrahedron excludes (1,1,1)" false
    (Polytope.contains full x);
  Alcotest.(check (pair string string)) "projection onto x+y+z=2"
    ("1/3", "(2/3, 2/3, 2/3)")
    (let d2, q = D.project_point_hull ~dim:3 x tet in
     (Q.to_string d2, Vec.to_string q));
  Alcotest.(check int) "full-dimensional hull: no contains fallback" c0
    (fallback_count "contains");
  Alcotest.(check int) "full-dimensional hull: no project fallback" p0
    (fallback_count "project");
  let flat = Polytope.of_points ~dim:3 square in
  Alcotest.(check bool) "square contains its centre" true
    (Polytope.contains flat (v [ 1; 1; 0 ]));
  Alcotest.(check string) "distance to the square" "1"
    (Q.to_string (D.dist2_point_hull ~dim:3 x square));
  Alcotest.(check int) "flat hull: one contains fallback" (c0 + 1)
    (fallback_count "contains");
  Alcotest.(check int) "flat hull: one project fallback" (p0 + 1)
    (fallback_count "project")

let suite =
  [ ( "facet_queries",
      [ Alcotest.test_case "fallback counter" `Quick test_fallback_counter ]
      @ List.map Gen.qtest (contains_props @ projection_props @ fallback_props) )
  ]
