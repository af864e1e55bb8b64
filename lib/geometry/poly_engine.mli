(** Incremental round-over-round polytope engine.

    A persistent dual polytope representation — V-rep (canonical
    vertex list) and H-rep (primitive integer facet planes) kept in
    sync — structurally shared across protocol rounds through a
    process-wide arena and a per-handle warm-start ring. Round t+1's
    hulls over slightly-changed inputs restart beneath–beyond from the
    previous round's certified facet soup instead of rebuilding, and
    intersection vertices are enumerated by certified float-guided
    pair-line clipping instead of exact {% $O(m^3)$ %} triple solves.

    {b Exactness contract.} Every fast path is a {e candidate
    generator} whose output is certified against exact integer
    predicates ({!Numeric.Filter}) before being returned:

    - hulls: per-facet exact supporting-plane check, directed-edge
      pairing (closed oriented surface), and exact containment of all
      input points — together these force the primitive plane set to
      equal the exact path's canonical plane set;
    - intersections: exact membership of every emitted vertex plus a
      completeness certificate (every facet plane of the candidate
      hull must be an input constraint, which pins conv(W) = P).

    Certification failure falls back to the caller-supplied exact
    rebuild, so under both engine modes results are {e value
    identical} — the basis for the byte-identical-trace acceptance
    gate and the [Engine_equivalence] differential-fuzz oracle.

    Mode selection mirrors the [CHC_KERNEL] discipline:
    [CHC_POLY=rebuild|incremental], a process default, and a
    domain-local override ({!with_mode}). *)

module Q = Numeric.Q
module B = Numeric.Bigint

(** {1 Engine mode} *)

type mode =
  | Rebuild      (** exact from-scratch construction, the oracle *)
  | Incremental  (** certified float-guided engine with arena reuse *)

val to_string : mode -> string
val parse : string -> (mode, string) result

val env_default : unit -> mode
(** [CHC_POLY] when set and valid; warns on stderr and returns
    {!Incremental} otherwise. *)

val set_default : mode -> unit
val get_default : unit -> mode

val mode : unit -> mode
(** Domain-local override when installed, else the process default. *)

val incremental : unit -> bool

val with_mode : mode -> (unit -> 'a) -> 'a
(** Domain-local override for the dynamic extent of the callback;
    restores the previous override on exit (exceptions included). *)

(** {1 Persistent dual representation} *)

type soup
(** A certified oriented facet soup: triangle corner indices into the
    scaled vertex array plus the deduped primitive facet planes. *)

type dual = {
  pts : Vec.t list;      (** canonical (sorted, deduped) vertices *)
  spts : Vec.t list;     (** [pts] scaled by [scale] to integers *)
  facets : (Vec.t * Q.t) list;
      (** primitive integer planes [a·x <= b] in the scaled frame *)
  scale : B.t;
  shape : soup option;   (** warm-start structure when engine-built *)
}

val dual_3d : Vec.t list -> rebuild:(unit -> dual option) -> dual option
(** [dual_3d pts ~rebuild] builds the dual of conv(pts) (3-d,
    full-dimensional inputs). Under {!Rebuild} this is [rebuild ()]
    verbatim; under {!Incremental} the result is arena-cached, built
    by the certified float-guided hull (warm-started from the current
    handle's ring when a recent dual's corners embed in [pts]), and
    falls back to [rebuild] on certification failure. [None] means
    the input is lower-dimensional or otherwise out of scope — the
    caller keeps its exact handling. *)

val mem : dual -> Vec.t -> bool
(** [mem d x]: is [x] in conv(pts(d))? Exact: [x] scaled by [d.scale]
    must satisfy every facet plane. Partial application ([mem d])
    hoists the scale conversion out of a batch of queries. *)

val note_fallback : [ `Contains | `Project ] -> unit
(** Count one 3-d containment or projection query answered by the LP
    or vertex-subset enumeration rather than the facets of a dual
    ([chc_poly_facet_fallback_total{query}]). *)

(** {1 Delta operations} *)

val insert_point : dual -> Vec.t -> dual option
(** [insert_point d p] is the dual of conv(pts(d) ∪ {p}), warm-started
    from [d]'s facet soup. [None] when certification fails (rebuild
    through {!dual_3d}). *)

val merge : dual -> Vec.t list -> dual option
(** [merge d extra] is the dual of conv(pts(d) ∪ extra); beneath–beyond
    restarts from [d]'s conflict region, inserting only genuinely new
    points. [None] when certification fails. *)

val vertices_3d :
  ?prev:Vec.t list -> ineqs:(Vec.t * Q.t) list -> unit -> Vec.t list option
(** [vertices_3d ~ineqs ()] is the exact vertex set of
    [{x : a·x <= b}] for 3-d constraint systems, enumerated by
    pair-line clipping and certified complete; [None] when the
    certificate fails, the system is degenerate, or the engine is in
    {!Rebuild} mode — callers run the exact enumeration. [prev] seeds
    candidate vertices from a previous round's result (each admitted
    only through the exact membership test); when omitted, the current
    handle's last intersection result is used. *)

val intersect_delta :
  ?prev:Vec.t list -> ineqs:(Vec.t * Q.t) list -> unit -> Vec.t list option
(** {!vertices_3d} under its delta-operation name: intersection of a
    new constraint system reusing the previous round's vertex set as
    candidate seeds. *)

(** {1 Support-function cache} *)

val support : Vec.t list -> Vec.t -> eval:(unit -> Q.t * Vec.t) -> Q.t * Vec.t
(** [support verts dir ~eval] memoizes [eval ()] — the exact support
    value and argmax vertex of [verts] in direction [dir] — keyed on
    the canonical vertex list and direction, so Hausdorff/volume
    grading reuses evaluations round over round. Under {!Rebuild} this
    is [eval ()] verbatim. *)

(** {1 Engine handles}

    A handle carries the warm-start ring (most recent duals) and reuse
    telemetry. One handle is installed per protocol instance (and per
    [chc_serve] shard); a per-domain handle backs everything else. *)

type handle

val create_handle : unit -> handle
val with_handle : handle -> (unit -> 'a) -> 'a
(** Domain-local installation for the dynamic extent of the callback. *)

val handle_reuse : handle -> int
(** Arena hits + warm-started builds — the "engine reuse" figure
    surfaced in [chc_serve] metrics. *)

val handle_stats : handle -> (string * int) list
(** Labelled reuse telemetry: arena hits/misses, warm builds. *)

(** {1 Canonical-form helpers}

    Shared with {!Hullnd} so both paths produce literally identical
    plane sets. *)

val normalize_ineq : Vec.t * Q.t -> Vec.t * Q.t
val compare_constraint : Vec.t * Q.t -> Vec.t * Q.t -> int
val dedupe_constraints : (Vec.t * Q.t) list -> (Vec.t * Q.t) list
val dedupe_points : Vec.t list -> Vec.t list
val primitive_plane : Vec.t * Q.t -> Vec.t * Q.t
val cross3 : Vec.t -> Vec.t -> Vec.t

(** {1 Test hooks} *)

module Dev : sig
  val certify :
    Vec.t array -> (int * int * int) array -> (Vec.t * Q.t) list option
  (** Run the hull certification gauntlet on an arbitrary triangle
      soup over the given (scaled, integral) points: exact facet
      planes, directed-edge pairing, full containment. [None] when any
      check fails. *)

  val hull_3d : ?warm:Vec.t array * (int * int * int) array ->
    Vec.t array -> soup option

  val float_seed_exists : Vec.t array -> bool
end
