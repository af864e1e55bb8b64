(* Per-layer self time from the nested B/E stream of Obs.Prof.

   A span's self time is its duration minus the durations of its direct
   children. Every span name maps to one layer (or to a geometry
   operation inside the geometry layer); names the map does not know
   land in [Unattributed] under their own name, so residue is reported,
   never hidden. Summing self time over a domain's span trees gives
   back the durations of its root spans, so the buckets add up to the
   traced time exactly. *)

type layer =
  | Numeric
  | Geometry of string  (* hull | minkowski | intersect | lp | poly | hullnd *)
  | Grade
  | Parallel
  | Protocol
  | Transport
  | Serving
  | Unattributed

let layer_names =
  [ "numeric"; "geometry"; "grade"; "parallel"; "protocol"; "transport";
    "durability"; "serving"; "unattributed" ]

let layer_name = function
  | Numeric -> "numeric"
  | Geometry _ -> "geometry"
  | Grade -> "grade"
  | Parallel -> "parallel"
  | Protocol -> "protocol"
  | Transport -> "transport"
  | Serving -> "serving"
  | Unattributed -> "unattributed"

let geometry_ops = [ "hull"; "minkowski"; "intersect"; "lp"; "poly"; "hullnd" ]

(* A memo table's lookup span wraps the memoized function; its self time
   is the lookup plus whatever of that function runs without a span of
   its own, so it is charged to the table's geometry operation. *)
let memo_table_op = function
  | "hull" -> "hull"
  | "minkowski" -> "minkowski"
  | "intersect" | "extreme-points" -> "intersect"
  | "lp-membership" -> "lp"
  | "hausdorff" | "poly-arena" | "poly-support" -> "poly"
  | _ -> "hull"

let prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let classify name attrs =
  match name with
  | "filter.fallback" -> Numeric
  | "geometry.hull" -> Geometry "hull"
  | "geometry.minkowski" -> Geometry "minkowski"
  | "geometry.intersect" -> Geometry "intersect"
  | "geometry.lp" -> Geometry "lp"
  | "memo.lookup" ->
    Geometry
      (memo_table_op (Option.value (List.assoc_opt "table" attrs) ~default:""))
  | "pool.batch" -> Parallel
  | "cc.round" | "cc.round0" | "cc.recover" | "sv.receive" -> Protocol
  (* cc.execute is the Sim delivery loop around the Instance handlers:
     scheduling and delivery, plus handler work outside cc.round *)
  | "cc.execute" -> Transport
  | "serve.submit" | "serve.pump" | "serve.frame" -> Serving
  | "serve.grade" -> Grade
  | _ when prefix "mink." name -> Geometry "minkowski"
  | _ when prefix "isect." name -> Geometry "intersect"
  | _ when prefix "poly." name -> Geometry "poly"
  | _ when prefix "hullnd." name -> Geometry "hullnd"
  | _ when prefix "grade." name -> Grade
  | _ when prefix "wire." name -> Serving
  (* pool.task self time is shard or sweep work no inner span covers:
     in the daemon, Loopback delivery, Instance glue, WAL appends and
     fsyncs, and finalization. bench.exec is Executor.run's glue. *)
  | _ -> Unattributed

type breakdown = {
  total_ns : float;                              (* sum of root spans *)
  by_span : (string * layer * float) list;       (* self ns, descending *)
  queued_ns : float list;                        (* per-job queue waits *)
}

let layer_ns b lname =
  List.fold_left
    (fun acc (_, l, ns) -> if layer_name l = lname then acc +. ns else acc)
    0. b.by_span

let geometry_op_ns b op =
  List.fold_left
    (fun acc (_, l, ns) -> if l = Geometry op then acc +. ns else acc)
    0. b.by_span

let span_ns b span =
  List.fold_left
    (fun acc (n, _, ns) -> if n = span then acc +. ns else acc)
    0. b.by_span

type frame = { fname : string; fattrs : (string * string) list;
               fstart : int64; mutable child_ns : float }

let analyze (events : Obs.Prof.event list) =
  let table = Hashtbl.create 64 in
  let add key ns =
    Hashtbl.replace table key
      (ns +. Option.value (Hashtbl.find_opt table key) ~default:0.)
  in
  let total = ref 0. in
  let queued = ref [] in
  let stacks = Hashtbl.create 4 in
  List.iter
    (fun (e : Obs.Prof.event) ->
       let stack =
         Option.value (Hashtbl.find_opt stacks e.tid) ~default:[]
       in
       match e.phase with
       | `B ->
         Hashtbl.replace stacks e.tid
           ({ fname = e.name; fattrs = e.attrs; fstart = e.ts_ns;
              child_ns = 0. }
            :: stack)
       | `E -> (
           match stack with
           | [] -> ()
           | f :: rest ->
             let dur = Int64.to_float (Int64.sub e.ts_ns f.fstart) in
             let layer = classify f.fname f.fattrs in
             let key =
               match List.assoc_opt "table" f.fattrs with
               | Some table -> f.fname ^ ":" ^ table
               | None -> f.fname
             in
             add (key, layer) (dur -. f.child_ns);
             (match rest with
              | parent :: _ -> parent.child_ns <- parent.child_ns +. dur
              | [] -> total := !total +. dur);
             Hashtbl.replace stacks e.tid rest)
       | `X (dur, _) ->
         if e.name = "queued" then queued := Int64.to_float dur :: !queued)
    events;
  let by_span =
    Hashtbl.fold (fun (n, l) ns acc -> (n, l, ns) :: acc) table []
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
  in
  { total_ns = !total; by_span; queued_ns = !queued }

let unattributed_share b =
  if b.total_ns <= 0. then 0. else layer_ns b "unattributed" /. b.total_ns
