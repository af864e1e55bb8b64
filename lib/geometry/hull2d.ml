module Q = Numeric.Q
module Filter = Numeric.Filter

let cross o a b =
  let ax = Q.sub a.(0) o.(0) and ay = Q.sub a.(1) o.(1) in
  let bx = Q.sub b.(0) o.(0) and by = Q.sub b.(1) o.(1) in
  Q.sub (Q.mul ax by) (Q.mul ay bx)

let dedupe_sorted pts =
  let rec go = function
    | a :: (b :: _ as rest) ->
      if Vec.equal a b then go rest else a :: go rest
    | short -> short
  in
  go pts

(* Andrew's monotone chain. Strict turns only (non-left turns are
   popped), so collinear interior points are dropped and the result is
   a strictly convex CCW cycle starting at the lex-smallest vertex. *)
let hull pts =
  let pts = dedupe_sorted (List.sort Vec.compare pts) in
  match pts with
  | [] | [_] | [_; _] -> pts
  | _ ->
    (* Build a chain over [side]; the returned stack holds the chain
       last point first. Pops while the last turn is not strictly
       CCW. *)
    let chain side =
      List.fold_left
        (fun stack p ->
           let rec pop = function
             | b :: a :: rest when Filter.sign_cross2 a b p <= 0 ->
               pop (a :: rest)
             | s -> s
           in
           p :: pop stack)
        [] side
    in
    (* Each chain's last point starts the other chain: drop it, and
       put both in traversal order. *)
    let lower = List.tl (chain pts) in
    let upper = List.tl (chain (List.rev pts)) in
    let ccw = List.rev_append lower (List.rev upper) in
    (match ccw with
     | [] | [_] | [_; _] ->
       (* All points collinear: the hull is the extreme segment. *)
       [List.hd pts; List.nth pts (List.length pts - 1)]
     | _ -> ccw)

let is_canonical poly =
  match poly with
  | [] | [_] -> true
  | [a; b] -> Vec.compare a b < 0
  | v0 :: _ ->
    let arr = Array.of_list poly in
    let n = Array.length arr in
    let ok = ref true in
    for i = 0 to n - 1 do
      let a = arr.(i) and b = arr.((i + 1) mod n) and c = arr.((i + 2) mod n) in
      if Filter.sign_cross2 a b c <= 0 then ok := false
    done;
    Array.iter (fun v -> if Vec.compare v v0 < 0 then ok := false) arr;
    !ok

let area2 poly =
  match poly with
  | [] | [_] | [_; _] -> Q.zero
  | _ ->
    let arr = Array.of_list poly in
    let n = Array.length arr in
    let acc = ref Q.zero in
    for i = 0 to n - 1 do
      let a = arr.(i) and b = arr.((i + 1) mod n) in
      acc := Q.add !acc (Q.sub (Q.mul a.(0) b.(1)) (Q.mul a.(1) b.(0)))
    done;
    !acc

let on_segment a b p =
  Filter.sign_cross2 a b p = 0
  && Q.leq (Q.min a.(0) b.(0)) p.(0) && Q.leq p.(0) (Q.max a.(0) b.(0))
  && Q.leq (Q.min a.(1) b.(1)) p.(1) && Q.leq p.(1) (Q.max a.(1) b.(1))

let contains poly p =
  match poly with
  | [] -> false
  | [a] -> Vec.equal a p
  | [a; b] -> on_segment a b p
  | _ ->
    let arr = Array.of_list poly in
    let n = Array.length arr in
    let ok = ref true in
    for i = 0 to n - 1 do
      if Filter.sign_cross2 arr.(i) arr.((i + 1) mod n) p < 0 then ok := false
    done;
    !ok

(* Intersection of segment [a,b] with the line n·x = c, when the
   endpoints straddle it strictly. *)
let line_hit a b ~normal ~offset =
  let fa = Q.sub (Vec.dot normal a) offset in
  let fb = Q.sub (Vec.dot normal b) offset in
  (* t such that f(a) + t (f(b) - f(a)) = 0 *)
  let t = Q.div fa (Q.sub fa fb) in
  Vec.add a (Vec.scale t (Vec.sub b a))

let clip poly ~normal ~offset =
  match poly with
  | [] -> []
  | [a] -> if Filter.sign_of_dot_minus normal a offset <= 0 then [a] else []
  | _ ->
    let arr = Array.of_list poly in
    let n = Array.length arr in
    let out = ref [] in
    for i = 0 to n - 1 do
      let a = arr.(i) and b = arr.((i + 1) mod n) in
      let sa = Filter.sign_of_dot_minus normal a offset in
      let sb = Filter.sign_of_dot_minus normal b offset in
      if sa <= 0 then out := a :: !out;
      if (sa < 0 && sb > 0) || (sa > 0 && sb < 0) then
        out := line_hit a b ~normal ~offset :: !out
    done;
    hull !out

let halfplanes poly =
  let perp v = Vec.make [Q.neg v.(1); v.(0)] in
  match poly with
  | [] -> invalid_arg "Hull2d.halfplanes: empty polytope"
  | [a] ->
    let ex = Vec.make [Q.one; Q.zero] and ey = Vec.make [Q.zero; Q.one] in
    [ (ex, a.(0)); (Vec.neg ex, Q.neg a.(0));
      (ey, a.(1)); (Vec.neg ey, Q.neg a.(1)) ]
  | [a; b] ->
    let dirv = Vec.sub b a in
    let n = perp dirv in
    [ (n, Vec.dot n a); (Vec.neg n, Q.neg (Vec.dot n a));
      (dirv, Vec.dot dirv b); (Vec.neg dirv, Q.neg (Vec.dot dirv a)) ]
  | _ ->
    let arr = Array.of_list poly in
    let n = Array.length arr in
    List.init n (fun i ->
        let a = arr.(i) and b = arr.((i + 1) mod n) in
        (* Outward normal of a CCW edge is the clockwise perpendicular. *)
        let e = Vec.sub b a in
        let nrm = Vec.make [e.(1); Q.neg e.(0)] in
        (nrm, Vec.dot nrm a))

let intersect p q =
  match p, q with
  | [], _ | _, [] -> []
  | _ ->
    let smaller, larger =
      if List.length p <= List.length q then p, q else q, p
    in
    (* Clip the larger polytope by every halfplane of the smaller. *)
    List.fold_left
      (fun acc (normal, offset) ->
         match acc with [] -> [] | _ -> clip acc ~normal ~offset)
      larger (halfplanes smaller)

(* --- Weighted Minkowski sums ------------------------------------------ *)

module B = Numeric.Bigint

(* An operand edge on the integer grid, tagged with its half-turn: 0
   for angles in [0, π), 1 for [π, 2π). *)
type edge = { half : int; ex : B.t; ey : B.t }

let edge ex ey =
  let sy = B.sign ey in
  { half = (if sy > 0 || (sy = 0 && B.sign ex > 0) then 0 else 1); ex; ey }

(* Angular order over the full turn [0, 2π): half-turn first, then the
   exact integer cross product (u before v iff u × v > 0). Parallel
   edges tie — the common case, since every edge direction of a round
   polygon is an edge direction of some round-0 polygon — and an
   integer product decides a tie as cheaply as any other sign. *)
let angle_compare u v =
  if u.half <> v.half then compare u.half v.half
  else B.compare (B.mul u.ey v.ex) (B.mul u.ex v.ey)

(* One operand on the grid: its bottom-most (then left-most) vertex
   and its CCW edge cycle from there, both times the integer weight.
   From the bottom vertex the edge angles increase through [0, 2π), so
   every operand's edge array is already in merge order. A point has
   no edges; a segment has its two opposite edges. *)
type operand = { bottom : B.t * B.t; edges : edge array }

let operand w (vs : (B.t * B.t) array) =
  let n = Array.length vs in
  let b = ref 0 in
  for i = 1 to n - 1 do
    let (x, y) = vs.(i) and (bx, by) = vs.(!b) in
    let c = B.compare y by in
    if c < 0 || (c = 0 && B.compare x bx < 0) then b := i
  done;
  let mulw v = if B.equal w B.one then v else B.mul w v in
  let (bx, by) = vs.(!b) in
  let edges =
    if n = 1 then [||]
    else
      Array.init n (fun j ->
          let (x0, y0) = vs.((!b + j) mod n)
          and (x1, y1) = vs.((!b + j + 1) mod n) in
          edge (mulw (B.sub x1 x0)) (mulw (B.sub y1 y0)))
  in
  { bottom = (mulw bx, mulw by); edges }

(* The k-way merge: walk from the sum of the bottom vertices, each
   step taking the angularly smallest head edge and summing every head
   that points the same way. Merged directions strictly increase, so
   the walk visits the vertices of the sum in CCW order; it closes back
   at the start, which is not repeated. *)
let merge ops =
  let k = Array.length ops in
  let start =
    Array.fold_left
      (fun (sx, sy) { bottom = (bx, by); _ } -> (B.add sx bx, B.add sy by))
      (B.zero, B.zero) ops
  in
  let pos = Array.make k 0 and ties = Array.make k 0 in
  let head i = ops.(i).edges.(pos.(i)) in
  let rec walk (cx, cy) acc =
    let nt = ref 0 in
    for i = 0 to k - 1 do
      if pos.(i) < Array.length ops.(i).edges then begin
        let c = if !nt = 0 then -1 else angle_compare (head i) (head ties.(0)) in
        if c < 0 then begin ties.(0) <- i; nt := 1 end
        else if c = 0 then begin ties.(!nt) <- i; incr nt end
      end
    done;
    if !nt = 0 then acc
    else begin
      let x = ref cx and y = ref cy in
      for t = 0 to !nt - 1 do
        let e = head ties.(t) in
        x := B.add !x e.ex;
        y := B.add !y e.ey;
        pos.(ties.(t)) <- pos.(ties.(t)) + 1
      done;
      walk (!x, !y) ((!x, !y) :: acc)
    end
  in
  match walk start [] with
  | [] -> [| start |]
  | _ :: rest -> Array.of_list (start :: List.rev rest)

let lcm a b = B.mul (B.div a (B.gcd a b)) b

let weighted_sum terms =
  if List.exists (fun (_, p) -> p = []) terms then []
  else
    match List.filter (fun (c, _) -> not (Q.is_zero c)) terms with
    | [] -> [Vec.zero 2]
    | terms ->
      (* Integer weights c_i·D over the weights' common denominator D,
         and integer vertices on the grid of denominator L: the sum is
         Σ (c_i·D)·(L·v_i) / (D·L). *)
      let dw = List.fold_left (fun acc (c, _) -> lcm acc c.Q.den) B.one terms in
      let scaled, l = Numeric.Grid.scale_points (List.concat_map snd terms) in
      let scaled = Array.of_list scaled in
      let _, ops =
        List.fold_left
          (fun (off, ops) (c, p) ->
             let vs =
               Array.init (List.length p) (fun j ->
                   let v = scaled.(off + j) in
                   (v.(0).Q.num, v.(1).Q.num))
             in
             let w = B.mul c.Q.num (B.div dw c.Q.den) in
             (off + Array.length vs, operand w vs :: ops))
          (0, []) terms
      in
      let verts = merge (Array.of_list (List.rev ops)) in
      (* Canonical form: rotate to the lex-smallest vertex, then divide
         by D·L once. *)
      let m = Array.length verts in
      let lo = ref 0 in
      for i = 1 to m - 1 do
        let (x, y) = verts.(i) and (lx, ly) = verts.(!lo) in
        let c = B.compare x lx in
        if c < 0 || (c = 0 && B.compare y ly < 0) then lo := i
      done;
      let den = B.mul dw l in
      List.init m (fun i ->
          let (x, y) = verts.((i + !lo) mod m) in
          Vec.make [Q.make x den; Q.make y den])

let minkowski_sum p q = weighted_sum [(Q.one, p); (Q.one, q)]
