module Q = Numeric.Q
module Combin = Numeric.Combin
module Filter = Numeric.Filter
module B = Numeric.Bigint

let project_point_segment p a b =
  let e = Vec.sub b a in
  let ee = Vec.norm2 e in
  let foot =
    if Q.is_zero ee then a
    else begin
      let t = Q.div (Vec.dot (Vec.sub p a) e) ee in
      let t = Q.max Q.zero (Q.min Q.one t) in
      Vec.add a (Vec.scale t e)
    end
  in
  (Vec.dist2 p foot, foot)

let dist2_point_segment p a b = fst (project_point_segment p a b)

(* Exact projection of [p] onto the affine hull of [s0 :: rest]:
   minimize |p - s0 - D c|² by the normal equations DᵀD c = Dᵀ(p - s0).
   Accepted only when the projection's barycentric coordinates are all
   non-negative (it lands inside the simplex spanned by the subset). *)
let project_to_simplex p subset =
  match subset with
  | [] -> None
  | [s] -> Some (Vec.dist2 p s, s)
  | s0 :: rest ->
    let dirs = List.map (fun s -> Vec.sub s s0) rest in
    let k = List.length dirs in
    let darr = Array.of_list dirs in
    let gram =
      Array.init k (fun i -> Array.init k (fun j -> Vec.dot darr.(i) darr.(j)))
    in
    let rhs = Array.map (fun d -> Vec.dot d (Vec.sub p s0)) darr in
    (match Linsys.solve gram rhs with
     | None -> None (* affinely dependent subset; a smaller subset covers it *)
     | Some c ->
       let sum = Array.fold_left Q.add Q.zero c in
       if Array.exists (fun ci -> Q.sign ci < 0) c
          || Filter.compare sum Q.one > 0
       then None
       else begin
         let proj =
           Array.to_list c
           |> List.mapi (fun i ci -> Vec.scale ci darr.(i))
           |> List.fold_left Vec.add s0
         in
         Some (Vec.dist2 p proj, proj)
       end)

let project_poly2d p poly =
  match poly with
  | [] -> invalid_arg "Distance: empty polytope"
  | [a] -> (Vec.dist2 p a, a)
  | [a; b] -> project_point_segment p a b
  | _ ->
    if Hull2d.contains poly p then (Q.zero, p)
    else begin
      let arr = Array.of_list poly in
      let n = Array.length arr in
      let best = ref (project_point_segment p arr.(0) arr.(1)) in
      for i = 1 to n - 1 do
        let cand = project_point_segment p arr.(i) arr.((i + 1) mod n) in
        if Filter.compare (fst cand) (fst !best) < 0 then best := cand
      done;
      !best
    end

(* The reference path: the projection lies in the relative interior of
   some face spanned by at most dim+1 affinely independent vertices;
   every candidate subset yields an upper bound and the true face is
   enumerated, so the minimum is exact. *)
let project_brute ~dim p verts =
  if List.exists (fun v -> Vec.equal v p) verts then (Q.zero, p)
  else if Lp.in_convex_hull verts p then (Q.zero, p)
  else begin
    let best = ref None in
    let consider cand =
      match !best, cand with
      | None, Some c -> best := Some c
      | Some (b, _), Some ((d2, _) as c) ->
        if Filter.compare d2 b < 0 then best := Some c
      | _, None -> ()
    in
    let max_size = Stdlib.min (dim + 1) (List.length verts) in
    for k = 1 to max_size do
      List.iter
        (fun subset -> consider (project_to_simplex p subset))
        (Combin.subsets_of_size k verts)
    done;
    match !best with
    | Some c -> c
    | None -> assert false (* singleton subsets always yield a candidate *)
  end

let project_point_hull_brute ~dim p pts =
  match pts with
  | [] -> invalid_arg "Distance.project_point_hull_brute: empty"
  | _ -> project_brute ~dim p (Hullnd.extreme_points pts)

(* ------------------------------------------------------------------ *)
(* d = 3: projection onto a face of the known hull.

   Floats name the face — a facet plane, an edge or a vertex — whose
   exact projection is nearest; exact arithmetic then certifies the
   candidate q: it satisfies every facet plane (q ∈ P), and
   (p − q)·(v − q) <= 0 for every vertex v. The second condition is
   affine in v, so it holds over all of P, which is the variational
   inequality characterizing q as the (unique) projection. A wrong
   float guess therefore costs a retry, never a wrong answer; when no
   nearly-tied candidate certifies, the vertex-subset enumeration
   answers. *)

type face3 = Facet of int | Edge of int * int | Vertex of int

type hull3 = {
  inside : Vec.t -> bool;
  verts : Vec.t array;
  fverts : float array array;
  scale : Q.t;
  planes : (Vec.t * Q.t) array;    (* scaled frame: a·(scale x) <= b *)
  fplanes : (float array * float) array;
      (* unit outward normal and offset, unscaled frame *)
  tol : float;
      (* how far outside the hull a facet candidate's float foot may
         land and still be tried: generous, since a candidate too many
         costs one failed certificate *)
}

(* Float direction of an integer plane normal, shifted so that even
   very wide coefficients convert without overflow. *)
let float_normal (a : Vec.t) =
  let bits =
    Array.fold_left (fun m x -> Stdlib.max m (B.num_bits x.Q.num)) 0 a
  in
  let sh = Stdlib.max 0 (bits - 900) in
  let af = Array.map (fun x -> B.to_float (B.shift_right x.Q.num sh)) a in
  let n = sqrt ((af.(0) *. af.(0)) +. (af.(1) *. af.(1)) +. (af.(2) *. af.(2))) in
  Array.map (fun x -> x /. n) af

let fdot3 u v = (u.(0) *. v.(0)) +. (u.(1) *. v.(1)) +. (u.(2) *. v.(2))

let hull3_of_dual (dual : Poly_engine.dual) =
  let verts = Array.of_list dual.Poly_engine.pts in
  let fverts = Array.map Vec.to_floats verts in
  let planes = Array.of_list dual.Poly_engine.facets in
  (* A facet plane supports the hull, so its offset is the largest
     vertex image along its normal — no wide division needed. *)
  let fplanes =
    Array.map
      (fun (a, _) ->
         let n = float_normal a in
         (n, Array.fold_left (fun m v -> Float.max m (fdot3 n v))
            Float.neg_infinity fverts))
      planes
  in
  let finite =
    Array.for_all (Array.for_all Float.is_finite) fverts
    && Array.for_all
      (fun (n, off) -> Float.is_finite off && Array.for_all Float.is_finite n)
      fplanes
  in
  let magnitude =
    Array.fold_left
      (fun m v -> Array.fold_left (fun m x -> Float.max m (Float.abs x)) m v)
      1.0 fverts
  in
  if finite then
    Some
      { inside = Poly_engine.mem dual; verts; fverts;
        scale = Q.of_bigint dual.Poly_engine.scale; planes; fplanes;
        tol = 1e-9 *. magnitude }
  else None

(* Every float candidate, tagged with its squared float distance. *)
let candidates h pf =
  let acc = ref [] in
  let push d2 face = acc := (d2, face) :: !acc in
  let nv = Array.length h.fverts in
  for i = 0 to nv - 1 do
    let u = h.fverts.(i) in
    let ux = pf.(0) -. u.(0) and uy = pf.(1) -. u.(1)
    and uz = pf.(2) -. u.(2) in
    push ((ux *. ux) +. (uy *. uy) +. (uz *. uz)) (Vertex i);
    for j = i + 1 to nv - 1 do
      let v = h.fverts.(j) in
      let ex = v.(0) -. u.(0) and ey = v.(1) -. u.(1)
      and ez = v.(2) -. u.(2) in
      let ee = (ex *. ex) +. (ey *. ey) +. (ez *. ez) in
      let t =
        if ee > 0.0 then ((ux *. ex) +. (uy *. ey) +. (uz *. ez)) /. ee
        else 0.0
      in
      (* Feet at or just past an endpoint stay candidates: the exact
         foot may sit 1/2^200 inside an edge the floats cannot see. *)
      if t > -1e-9 && t < 1.0 +. 1e-9 then begin
        let t = Float.min 1.0 (Float.max 0.0 t) in
        let dx = ux -. (t *. ex) and dy = uy -. (t *. ey)
        and dz = uz -. (t *. ez) in
        push ((dx *. dx) +. (dy *. dy) +. (dz *. dz)) (Edge (i, j))
      end
    done
  done;
  (* Facets the query violates, or lies on within float resolution:
     a violation below that is invisible to the screen, yet the exact
     projection still lands on the facet. *)
  Array.iteri
    (fun k (n, off) ->
       let s = fdot3 n pf -. off in
       if s > -.h.tol then begin
         let s = Float.max s 0.0 in
         let q = [| pf.(0) -. (s *. n.(0)); pf.(1) -. (s *. n.(1));
                    pf.(2) -. (s *. n.(2)) |] in
         if Array.for_all (fun (n', off') -> fdot3 n' q -. off' <= h.tol)
             h.fplanes
         then push (s *. s) (Facet k)
       end)
    h.fplanes;
  !acc

(* The exact projection of [p] onto the affine hull of a face (clamped
   to the segment for edges). *)
let face_point h p = function
  | Vertex i -> h.verts.(i)
  | Edge (i, j) -> snd (project_point_segment p h.verts.(i) h.verts.(j))
  | Facet k ->
    let a, b = h.planes.(k) in
    (* a·x <= b / scale in the unscaled frame. *)
    let c = Q.div b h.scale in
    let t = Q.div (Q.sub (Vec.dot a p) c) (Vec.norm2 a) in
    Vec.sub p (Vec.scale t a)

let certified h p q =
  h.inside q
  &&
  let w = Vec.sub p q in
  let c = Vec.dot w q in
  Array.for_all (fun v -> Filter.sign_of_dot_minus w v c <= 0) h.verts

(* Candidates within this much of the float minimum are tried, nearest
   first; ties under float resolution (near-degenerate hulls) are why
   more than one may be needed. *)
let max_tries = 32

let project_face h p =
  if h.inside p then Some (Q.zero, p)
  else begin
    let cands = candidates h (Vec.to_floats p) in
    let best = List.fold_left (fun m (d2, _) -> Float.min m d2) infinity cands in
    let window = best +. (1e-8 *. (1.0 +. best)) in
    let near =
      List.filter (fun (d2, _) -> d2 <= window) cands
      |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
    in
    let rec try_ k = function
      | [] -> None
      | _ when k >= max_tries -> None
      | (_, face) :: rest ->
        let q = face_point h p face in
        if certified h p q then Some (Vec.dist2 p q, q) else try_ (k + 1) rest
    in
    try_ 0 near
  end

let project_1d pts =
  let xs = List.map (fun v -> v.(0)) pts in
  let lo = List.fold_left Q.min (List.hd xs) xs in
  let hi = List.fold_left Q.max (List.hd xs) xs in
  fun p ->
    let x = p.(0) in
    if Q.lt x lo then (Q.square (Q.sub lo x), Vec.make [lo])
    else if Q.gt x hi then (Q.square (Q.sub x hi), Vec.make [hi])
    else (Q.zero, p)

let project_nd ~dim pts =
  let verts = Hullnd.extreme_points pts in
  let brute p =
    if dim = 3 then Poly_engine.note_fallback `Project;
    project_brute ~dim p verts
  in
  let face =
    if dim = 3 then Option.bind (Hullnd.dual_3d verts) hull3_of_dual else None
  in
  match face with
  | None -> brute
  | Some h ->
    fun p -> match project_face h p with Some r -> r | None -> brute p

let projector ~dim pts =
  match pts with
  | [] -> invalid_arg "Distance.projector: empty"
  | _ ->
    if dim = 1 then project_1d pts
    else if dim = 2 then
      let poly = Hull2d.hull pts in
      fun p -> project_poly2d p poly
    else project_nd ~dim pts

let project_point_hull ~dim p pts = projector ~dim pts p

let dist2_point_hull ~dim p pts = fst (project_point_hull ~dim p pts)

(* One projector per target: the hull (and at d = 3 its facet
   structure) is set up once for every query below. *)
let directed2 ~dim from_pts to_pts =
  let proj = projector ~dim to_pts in
  List.fold_left (fun acc v -> Q.max acc (fst (proj v))) Q.zero from_pts

let hausdorff2 ~dim p q =
  match p, q with
  | [], _ | _, [] -> invalid_arg "Distance.hausdorff2: empty polytope"
  | _ -> Q.max (directed2 ~dim p q) (directed2 ~dim q p)

let hausdorff ~dim p q = sqrt (Q.to_float (hausdorff2 ~dim p q))
