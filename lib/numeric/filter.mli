(** Certified fast-path predicates with exact rational fallback.

    Every function returns the {e exact} answer: under the filtered
    kernel ({!Kernel.filtered}) it is computed from a float-interval
    enclosure whenever the interval excludes zero, and by exact [Q]
    arithmetic otherwise; under the exact kernel the interval path is
    bypassed entirely. Fallbacks are counted per predicate class and
    surfaced as [chc_filter_*_total] metrics and a ["filter.fallback"]
    profiler span. *)

val sign : Q.t -> int

val compare : Q.t -> Q.t -> int
(** Alias of {!Q.compare} (which carries the filtered fast path). *)

val sign_of_dot_minus : Q.t array -> Q.t array -> Q.t -> int
(** [sign_of_dot_minus a p b] is [sign (a . p - b)], fused: no
    intermediate rationals are materialized on the filtered path. The
    arrays must have equal length. *)

val sign_cross2 : Q.t array -> Q.t array -> Q.t array -> int
(** [sign_cross2 o a b] is [sign ((a - o) x (b - o))] in 2-d — the
    orientation of the triangle [o, a, b]. *)


val pivot_cost : Q.t -> int
(** Bit-size of the rational ([num] plus [den]) — the pivot-selection
    key for exact elimination. Choosing among nonzero candidates by
    this cost cannot change any {!Linsys} result (the reduced echelon
    form is unique); it only bounds intermediate coefficient growth. *)
