(** Exact planar convex-polytope operations.

    A polytope is represented by its canonical vertex list:
    - [[]] — empty,
    - [[p]] — a single point,
    - [[a; b]] with [a < b] lexicographically — a segment,
    - [v0; v1; …] — a strictly convex polygon in counter-clockwise
      order starting from the lexicographically smallest vertex.

    All predicates and constructions are exact over rationals. *)

module Q = Numeric.Q

val cross : Vec.t -> Vec.t -> Vec.t -> Q.t
(** [cross o a b] is the z-component of [(a-o) × (b-o)]: positive for a
    counter-clockwise turn. *)

val hull : Vec.t list -> Vec.t list
(** Canonical convex hull (Andrew's monotone chain); collinear
    non-extreme points are dropped. *)

val is_canonical : Vec.t list -> bool
(** Whether a vertex list is in the canonical form described above. *)

val area2 : Vec.t list -> Q.t
(** Twice the polygon area (shoelace); [0] for points and segments. *)

val contains : Vec.t list -> Vec.t -> bool
(** Exact membership of a point in the polytope. *)

val clip : Vec.t list -> normal:Vec.t -> offset:Q.t -> Vec.t list
(** [clip poly ~normal ~offset] intersects with the halfplane
    [{x | normal·x <= offset}]; result is canonical (possibly empty). *)

val intersect : Vec.t list -> Vec.t list -> Vec.t list
(** Intersection of two convex polytopes, canonical. *)

val weighted_sum : (Q.t * Vec.t list) list -> Vec.t list
(** [weighted_sum [(c1, p1); …]] is the canonical [Σ ci·pi] for
    weights [ci >= 0]: one k-way merge of the operands' edges by angle.
    The operand vertices go onto one integer grid
    ({!Numeric.Grid.scale_points}, the round grid when one is
    installed), edges are multiplied by the integer weights [ci·D]
    ([D] the weights' common denominator), runs of same-direction
    edges are summed, the walk starts at the sum of the weighted
    bottom-most vertices, and each vertex is divided by the grid
    denominator times [D] once. Linear in the total edge count times
    the operand count; never calls {!hull}. Points contribute no edges
    and segments their two opposite edges; a zero-weight operand
    contributes nothing. [[]] if any operand is empty; the origin when
    every weight is zero. *)

val minkowski_sum : Vec.t list -> Vec.t list -> Vec.t list
(** Minkowski sum: [weighted_sum [(1, p); (1, q)]]. *)

val halfplanes : Vec.t list -> (Vec.t * Q.t) list
(** A complete H-representation [{x | n·x <= c}] of the polytope: edge
    halfplanes for a polygon; line + end-cap constraints for a segment;
    coordinate box constraints for a point.
    @raise Invalid_argument on the empty polytope. *)
