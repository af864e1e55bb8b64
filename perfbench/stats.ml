(* Sample statistics and the closed-loop load generator shared by every
   workload. Pure: the self-test drives the generator with a fake clock. *)

(* Percentiles are carried in tenths of a percent (950 = p95.0) so the
   nearest-rank arithmetic stays in integers. *)
let rank ~n ~p10 = Stdlib.max 1 (Stdlib.min n ((p10 * n + 999) / 1000))

(* Nearest-rank percentile: the smallest sample with at least [p] of
   the samples at or below it. [sorted] is ascending and non-empty. *)
let nearest_rank sorted ~p10 = sorted.(rank ~n:(Array.length sorted) ~p10 - 1)

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  match l with
  | [] -> nan
  | _ -> nearest_rank (sorted_of_list l) ~p10:500

(* The tail percentile of an [n]-sample run: the highest percentile (in
   0.1 steps) whose nearest-rank sample still has [beyond] samples
   above it. [None] when no such percentile exists. *)
let tail_p10 ?(beyond = 10) n =
  if n <= beyond then None
  else
    let p10 = 1000 * (n - beyond) / n in
    if p10 < 1 then None else Some p10

type tail = { p10 : int; value : float; samples : int }

let tail ?beyond l =
  let sorted = sorted_of_list l in
  match tail_p10 ?beyond (Array.length sorted) with
  | None -> None
  | Some p10 ->
    Some { p10; value = nearest_rank sorted ~p10; samples = Array.length sorted }

let percentile_label p10 =
  if p10 mod 10 = 0 then Printf.sprintf "p%d" (p10 / 10)
  else Printf.sprintf "p%d.%d" (p10 / 10) (p10 mod 10)

(* --- the load generator ------------------------------------------------- *)

(* Seconds; the self-test substitutes a fake one. *)
type clock = unit -> float

let wall_clock : clock = Unix.gettimeofday

(* What the system under test looks like to a load generator: [submit k]
   sends unit [k] (and returns the time it was sent); [pump] advances the
   system and returns the units it completed with their completion
   times. *)
type system = {
  submit : int -> float;
  pump : unit -> (int * float) list;
  inflight : unit -> int;
}

type sample = {
  unit_ix : int;
  sent : float;
  finished : float;
}

let latency s = s.finished -. s.sent

type run = {
  t0 : float;
  t_end : float;       (* when the measured window closed *)
  samples : sample list;     (* every unit submitted, in completion order *)
  submitted : int;
}

let finished_in_window r = List.filter (fun s -> s.finished <= r.t_end) r.samples

(* Pump until nothing is in flight, collecting completions. *)
let drain sys ~record =
  while sys.inflight () > 0 do
    List.iter record (sys.pump ())
  done

(* Closed loop: keep [concurrency] units in flight until the first pump
   that ends after [window_s]; that is where the window closes. Each
   sample is timed from its own send. Units in flight at the close are
   drained (so every attempt is graded) but only completions inside the
   window count as samples of the window. *)
let closed_loop clock sys ~concurrency ~limit ~window_s =
  let t0 = clock () in
  let sent = Hashtbl.create 64 in
  let samples = ref [] in
  let record (k, fin) =
    samples := { unit_ix = k; sent = Hashtbl.find sent k; finished = fin } :: !samples
  in
  let next = ref 0 in
  let t_end = ref t0 in
  while !t_end < t0 +. window_s && !next < limit do
    while sys.inflight () < concurrency && !next < limit do
      Hashtbl.replace sent !next (sys.submit !next);
      incr next
    done;
    List.iter record (sys.pump ());
    t_end := clock ()
  done;
  drain sys ~record;
  { t0; t_end = !t_end; samples = List.rev !samples; submitted = !next }
