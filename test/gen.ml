(* Shared QCheck generators for geometric tests. *)

module Q = Numeric.Q
module Vec = Geometry.Vec

let gen_small_q =
  let open QCheck.Gen in
  let* n = -20 -- 20 in
  let* d = 1 -- 8 in
  return (Q.of_ints n d)

let gen_vec dim = QCheck.Gen.map Array.of_list
    (QCheck.Gen.list_size (QCheck.Gen.return dim) gen_small_q)

let gen_int_vec dim =
  QCheck.Gen.map
    (fun l -> Vec.of_ints l)
    (QCheck.Gen.list_size (QCheck.Gen.return dim) QCheck.Gen.(-10 -- 10))

let gen_points ?(min_size = 1) ?(max_size = 8) dim =
  let open QCheck.Gen in
  let* n = min_size -- max_size in
  list_size (return n) (gen_vec dim)

let gen_int_points ?(min_size = 1) ?(max_size = 8) dim =
  let open QCheck.Gen in
  let* n = min_size -- max_size in
  list_size (return n) (gen_int_vec dim)

let print_points pts =
  String.concat " " (List.map Vec.to_string pts)

let arb_points ?min_size ?max_size dim =
  QCheck.make ~print:print_points (gen_points ?min_size ?max_size dim)

let arb_int_points ?min_size ?max_size dim =
  QCheck.make ~print:print_points (gen_int_points ?min_size ?max_size dim)

let arb_vec dim = QCheck.make ~print:Vec.to_string (gen_vec dim)

let qtest = QCheck_alcotest.to_alcotest
let prop ?(count = 200) name arb f = QCheck.Test.make ~count ~name arb f

(* Operand lists for k-way weighted Minkowski sums: k in 1..7 operands
   drawn around one shared base polygon and one shared direction, so
   edge-direction ties — the common case in Algorithm CC rounds — come
   up often: points, segments, segments parallel to the shared
   direction (which sum to a segment), translated and scaled copies of
   the base, and copies of the base with vertices perturbed by
   ±2^-200. Weights are non-negative rationals, about a quarter of
   them zero, or all equal when [equal] is drawn. *)
let tiny = Q.make Numeric.Bigint.one (Numeric.Bigint.shift_left Numeric.Bigint.one 200)

let gen_operand ~base ~dir =
  let open QCheck.Gen in
  let hull = Geometry.Hull2d.hull in
  let* kind = 0 -- 5 in
  match kind with
  | 0 -> map hull (gen_points ~min_size:1 ~max_size:7 2)
  | 1 -> map (fun p -> [p]) (gen_vec 2)
  | 2 -> map hull (gen_points ~min_size:2 ~max_size:2 2)
  | 3 ->
    let* a = gen_vec 2 in
    let* t = gen_small_q in
    return (hull [a; Vec.add a (Vec.scale t dir)])
  | 4 ->
    let* t = gen_vec 2 in
    let* s = 1 -- 4 in
    let* r = 1 -- 3 in
    return (hull (List.map (fun v -> Vec.add t (Vec.scale (Q.of_ints s r) v)) base))
  | _ ->
    let* shifts = list_repeat (List.length base) (pair (-1 -- 1) (-1 -- 1)) in
    return
      (hull
         (List.map2
            (fun v (sx, sy) ->
               Vec.make [ Q.add v.(0) (Q.mul_int tiny sx);
                          Q.add v.(1) (Q.mul_int tiny sy) ])
            base shifts))

let gen_weight =
  let open QCheck.Gen in
  let* zero = 0 -- 3 in
  if zero = 0 then return Q.zero
  else
    let* n = 1 -- 9 in
    let* d = 1 -- 8 in
    return (Q.of_ints n d)

let gen_sum_terms =
  let open QCheck.Gen in
  let* k = 1 -- 7 in
  let* base = map Geometry.Hull2d.hull (gen_points ~min_size:3 ~max_size:6 2) in
  let* dir = gen_vec 2 in
  let* ops = list_repeat k (gen_operand ~base ~dir) in
  let* equal = bool in
  let* ws =
    if equal then return (List.init k (fun _ -> Q.of_ints 1 k))
    else list_repeat k gen_weight
  in
  return (List.combine ws ops)

let arb_sum_terms =
  QCheck.make
    ~print:(fun terms ->
        String.concat " + "
          (List.map
             (fun (c, p) -> Q.to_string c ^ "*{" ^ print_points p ^ "}")
             terms))
    gen_sum_terms

(* The pairwise oracle for Σ c_i·p_i: scale and re-hull every operand,
   then fold hulls of all pairwise vertex sums. *)
let pairwise_sum terms =
  let hull = Geometry.Hull2d.hull in
  List.fold_left
    (fun acc (c, p) ->
       let sp = hull (List.map (Vec.scale c) p) in
       hull (List.concat_map (fun a -> List.map (Vec.add a) sp) acc))
    [Vec.zero 2] terms
