module Q = Numeric.Q
module Combin = Numeric.Combin
module Polytope = Geometry.Polytope

let stable_views ~faulty ~(result : Cc.result) =
  let n = Array.length result.Cc.round0_views in
  List.init n Fun.id
  |> List.filter (fun i -> not (List.mem i faulty))
  |> List.map (fun i ->
      match result.Cc.round0_views.(i) with
      | Some view -> view
      | None ->
        invalid_arg
          (Printf.sprintf "Iz.compute: fault-free process %d has no view" i))

let excluded (result : Cc.result) =
  let sent_round1 i = List.assoc_opt 1 result.Cc.sent_round.(i) = Some true in
  List.init (Array.length result.Cc.crashed) Fun.id
  |> List.filter (fun i ->
      result.Cc.recovered.(i) || (result.Cc.crashed.(i) && not (sent_round1 i)))

let compute ~config ~faulty ~result =
  let views = stable_views ~faulty ~result in
  (* Z: entries present in every fault-free view (keyed by origin — in
     the crash model an origin determines its value). *)
  match views with
  | [] -> invalid_arg "Iz.compute: no fault-free processes"
  | first :: rest ->
    let in_view origin view = List.mem_assoc origin view in
    let z =
      List.filter
        (fun (origin, _) -> List.for_all (in_view origin) rest)
        first
    in
    let x_z = List.map snd z in
    let { Config.d; f; _ } = config in
    let keep = List.length x_z - f in
    if keep < 1 then None
    else begin
      let hulls =
        List.map (Polytope.of_points ~dim:d) (Combin.subsets_of_size keep x_z)
      in
      Polytope.intersect hulls
    end

(* Once ε-agreement sets in, the fault-free processes' h_i[t] coincide
   round over round, so most of the n_ff × t_end history entries repeat
   one of a few polytopes; each distinct one is checked once. *)
module Seen = Hashtbl.Make (Polytope)

let contained_in_all_rounds ~config ~faulty ~result =
  match compute ~config ~faulty ~result with
  | None -> false
  | Some iz ->
    let seen = Seen.create 64 in
    let check h =
      Seen.mem seen h
      || (Polytope.subset iz h && (Seen.add seen h (); true))
    in
    let n = Array.length result.Cc.history in
    List.for_all
      (fun i ->
         List.mem i faulty
         || List.for_all (fun (_t, h) -> check h) result.Cc.history.(i))
      (List.init n Fun.id)
