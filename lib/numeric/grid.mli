(** Scaled-integer grids and the staged filter's second stage.

    This module backs [CHC_KERNEL=staged] (see {!Kernel}): when the
    float-interval filter ({!Filter}) misses — typically because
    lcm-scaled hull coordinates push term products past float range,
    or because the predicate value is exactly zero — the evaluators
    here decide the sign through an escalation ladder of
    machine-precision stages before any exact rational arithmetic:

    + exact single-word integer evaluation;
    + exact double-word (128-bit) evaluation via base-[2^30] limbs;
    + extended-exponent mantissa intervals (float enclosures with an
      out-of-band power-of-two exponent, immune to range overflow);
    + modular-residue zero certificates against a fixed vector of
      25-bit primes.

    Every stage is gated by a static width bound computed from O(1)
    operand bit-lengths before the stage runs, so a stage either
    cannot overflow or is not attempted — escalation, never wrapping.
    All certified answers equal the exact rational result; callers
    fall back to exact arithmetic on [None].

    The module also owns common-denominator point scaling for hull
    constructions, shared per protocol round (see {!with_round} /
    {!scale_points}). *)

(** {1 Staged predicate evaluators}

    Each returns [Some s] only when a machine-precision stage certifies
    the sign [s] of the exact value, [None] to defer to the caller's
    exact fallback. *)

val dot_minus_sign : Q.t array -> Q.t array -> Q.t -> int option
(** [dot_minus_sign a p b] stages [sign (a . p - b)]. *)

val cross2_sign : Q.t array -> Q.t array -> Q.t array -> int option
(** [cross2_sign o a b] stages [sign ((a - o) x (b - o))]. *)


(** {1 Static width bounds}

    The scale-time bound analysis: given a grid's coordinate
    bit-width, decide once which stages a construction's visibility
    dots can use and how many residues certify a zero. The evaluators
    recompute the same sums per call from the actual operands, so
    these are planning/reporting values, never a soundness shortcut. *)

type bounds = {
  dot_bound : int;      (** magnitude bound (bits) of a visibility dot *)
  int1 : bool;          (** single-word exact evaluation cannot overflow *)
  dword : bool;         (** double-word exact evaluation cannot overflow *)
  residue_primes : int; (** residues needed to certify a zero *)
}

val bounds_for : dim:int -> width:int -> bounds

val int1_max_bits : int
(** Largest magnitude bound (61) the single-word stage accepts: signed
    partial sums must stay below OCaml's 63-bit native range. *)

val dword_max_bits : int
(** Largest magnitude bound (123) the double-word stage accepts: its
    factors must fit one word, bounding products at 124 bits. *)

(** {1 Residue stage} *)

val primes : int array
(** The 64 largest primes below [2^25], largest first. The narrow
    primes keep residue dot products lazily reducible: products of two
    residues stay below [2^50], so partial sums tolerate hundreds of
    terms between [mod] normalizations. *)

val prime_bits : int
(** Guaranteed certified bits per prime (24). *)

val capacity_bits : int
(** Total zero-certificate capacity, [Array.length primes * prime_bits]. *)

val primes_for : int -> int
(** Residues needed to certify a zero of the given magnitude bound. *)

val modinv : int -> int -> int
(** [modinv a p] for prime [p] and [0 < a < p]: the inverse of [a]
    modulo [p]. Exposed for the test suite. *)

val residues : Q.t -> int -> int array
(** [residues q k] fills (and caches on [q], see [Q.rs]) the first [k]
    value residues; [k <= Array.length primes]. Slot 0 of the result
    is the filled count, slot [i+1] the residue modulo [primes.(i)]
    or [-1] when that prime divides the denominator. *)

val set_residue_cache_capacity : int -> unit
(** Resize the calling domain's residue-cache eviction ring (clamped
    to at least 1; default 4096). Evicted rationals transparently
    recompute their residues on next use. *)

val residue_cache_stats : unit -> int * int
(** [(inserts, evictions)] across all domains since startup. *)

(** {1 Extended-exponent intervals}

    A float enclosure [[xlo, xhi]] scaled by [2^xe]: the mantissa
    interval stays a few ulp wide whatever the magnitude, so products
    of wide integers never saturate to [±inf]. Exposed for the
    boundary tests. *)

type xiv = { xlo : float; xhi : float; xe : int }

val xiv_of_q : Q.t -> xiv
val xmul : xiv -> xiv -> xiv
val xadd : xiv -> xiv -> xiv
val xsub : xiv -> xiv -> xiv
val xneg : xiv -> xiv

val xsign : xiv -> int option
(** [Some s] iff the enclosure excludes zero (never certifies zero). *)

(** {1 Double-word accumulator}

    Exact Σ ±x·y over native factors [|x|, |y| < 2^62], held in six
    base-[2^30] limbs. Exposed for the overflow-boundary tests. *)

val acc_make : unit -> int array
val acc_add_prod : int array -> int -> int -> int -> unit
(** [acc_add_prod acc s x y] adds [s * x * y] ([s = ±1]). *)

val acc_sign : int array -> int

(** {1 Common-denominator grids} *)

type t
(** A scaling grid: a common multiple of point denominators plus a
    cofactor cache, so scaling a coordinate onto the integer grid is
    one multiplication (no per-coordinate gcd reduction). *)

val make : Q.t array list -> t
(** Scan a point set's (deduplicated) denominators and build their
    lcm grid. *)

val make_scaled : mult:int -> Q.t array list -> t
(** [make_scaled ~mult pts] is {!make} with the lcm multiplied by
    [mult]: the grid for points about to enter a 1/[mult]-weighted
    convex combination, whose results carry denominators dividing
    [mult * lcm]. *)

val scale_points : Q.t array list -> Q.t array list * Bigint.t
(** [scale_points pts] is [(scaled, l)] where [scaled = l * pts]
    coordinate-wise with every denominator 1. Uses the ambient round
    grid when one is installed and every denominator divides it
    (sharing its lcm scan and cofactor cache), otherwise a
    construction-local grid. *)

val with_round : (unit -> t) -> (unit -> 'a) -> 'a
(** [with_round build f] runs [f] with a {e pending} round grid
    installed (domain-local): the first {!scale_points} under [f]
    forces [build] and later calls reuse the grid. Nests by saving and
    restoring the previous slot. Rounds fully served by the memo
    tables never force [build]. *)

val ensure_round : (unit -> t) -> (unit -> 'a) -> 'a
(** Like {!with_round} but a no-op when a round grid is already
    installed — for construction-level entry points that should share
    a grid standalone without shadowing the executor's round grid. *)

val current : unit -> t option
(** Force and return the installed round grid, if any. *)

val width_of : t -> int
(** Widest scaled-coordinate bit-width seen so far — input to
    {!bounds_for}. *)

val den_of : t -> Bigint.t

val grid_stats : unit -> int * int
(** [(local_scans, round_hits)] across all domains since startup. *)
