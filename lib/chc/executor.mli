(** One-call experiment runner: execute Algorithm CC and grade the
    execution against every property the paper proves.

    All checks are exact except where noted:
    - {b termination}: every fault-free process decided;
    - {b validity}: every fault-free output is contained in the convex
      hull of the {e correct} inputs (faulty processes' inputs are
      "incorrect" in this fault model and excluded);
    - {b ε-agreement}: the max pairwise Hausdorff distance between
      fault-free outputs, certified as [d_H² < ε²] in rationals;
    - {b optimality}: [I_Z ⊆ h_i[t]] for all fault-free [i] and rounds
      [t] (Lemma 6 / Theorem 3).

    In crash-recovery mode, termination / validity / agreement are
    graded over the fault-free {e and recovered} processes — a
    recovered process must behave like a correct slow one — plus a
    {b decision stability} check: no process may change a decision it
    already externalized. Optimality builds [Z] from the views of
    every process but {!Iz.excluded} (the paper's [F[1]] and recovered
    processes), not from the crash plan: a planned crash that never
    fires, or fires after round 1, leaves a process whose view may
    bound [Z]. *)

module Q = Numeric.Q

type spec = Scenario.t = {
  config : Config.t;
  inputs : Geometry.Vec.t array;
  crash : Runtime.Crash.plan array;
  scheduler : Runtime.Scheduler.t;
  seed : int;
  round0 : Cc.round0_mode;
  prefix : (int * int) list;
  kernel : Numeric.Kernel.mode option;
  wal : Runtime.Wal.config option;
}
(** A re-export of {!Scenario.t}: the executor's input {e is} the
    serializable scenario type, so anything runnable here can be saved,
    replayed ([chc_sim replay]) and fuzzed. *)

type report = {
  spec : spec;
  result : Cc.result;
  faulty : int list;
  recovered : int list;
    (** processes that crashed and were revived — graded as correct *)
  decision_stable : bool;
    (** no process changed an externalized decision
        ([result.redecided = []]) *)
  correct_hull : Geometry.Polytope.t;
  terminated : bool;
  valid : bool;
  valid_all_inputs : bool;
  (** validity against the hull of {e all} inputs — the weaker
      requirement of the paper's companion "crash faults with correct
      inputs" model (tech report arXiv:1403.3455), where faulty
      processes hold correct inputs too. Implied by [valid]. *)
  agreement2 : Q.t option;   (** max pairwise [d_H²]; [None] if < 2 outputs *)
  agreement_ok : bool;
  iz : Geometry.Polytope.t option;
  optimal : bool;
  min_output_volume : Q.t option;  (** min fault-free output volume, d ≤ 3 *)
  iz_volume : Q.t option;
}

val run : ?trace:Obs.Trace.t -> spec -> report
(** Execute and grade. A supplied [trace] records the full transcript
    (see {!Cc.execute}); grading never emits events, so the trace is
    exactly the protocol execution's. *)

(** {1 Observability} *)

val round_metrics :
  ?witnesses:int ->
  faulty:int list ->
  Cc.result ->
  Obs.Report.round list
(** Per-round protocol metrics from a finished execution: broadcast
    payload counts ([messages] — one per process that completed the
    round, faulty included), total {!Codec.Wire} payload bytes, and
    the largest hull vertex count. Rounds nobody completed are
    omitted. [witnesses] additionally computes the per-round Hausdorff
    diameter over the first [witnesses] fault-free processes (omit it
    to skip the — comparatively expensive — exact distance work;
    E1 uses 3 witnesses). *)

val observe :
  ?trace:Obs.Trace.t -> ?witnesses:int -> report -> Obs.Report.t
(** Aggregate everything observable about a graded run into one
    {!Obs.Report.t}: simulator metrics, per-round metrics (diameters
    when [witnesses] is given), kernel cache and pool counters, and
    the trace length when the run was traced. *)

val random_inputs :
  config:Config.t -> rng:Runtime.Rng.t -> ?grid:int -> unit ->
  Geometry.Vec.t array
(** Alias of {!Scenario.random_inputs}. *)

val default_spec :
  config:Config.t ->
  seed:int ->
  ?faulty:int list ->
  ?scheduler:Runtime.Scheduler.t ->
  ?round0:Cc.round0_mode ->
  ?max_budget:int ->
  ?ensure_crash:bool ->
  unit ->
  spec
(** Alias of {!Scenario.default}: random inputs, random crash budgets
    for the given faulty set (default: processes [0 .. f-1]),
    random-uniform scheduler. Deterministic in [seed]. *)
