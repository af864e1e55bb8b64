(** Exact Euclidean and Hausdorff distances between convex polytopes.

    Squared distances are computed exactly over rationals; callers take
    a float square root only at the reporting boundary. Exactness lets
    the ε-agreement experiments *certify* [d_H < ε] by comparing
    [d_H² < ε²] in rationals.

    The directed Hausdorff distance from a convex polytope is attained
    at a vertex (the point-to-convex-set distance is convex, and a
    convex function attains its maximum over a polytope at a vertex),
    so both directions reduce to point-to-polytope queries. *)

module Q = Numeric.Q

val dist2_point_segment : Vec.t -> Vec.t -> Vec.t -> Q.t
(** [dist2_point_segment p a b]: exact squared distance from [p] to the
    segment [ab]. *)

val dist2_point_hull : dim:int -> Vec.t -> Vec.t list -> Q.t
(** Exact squared distance from a point to the convex hull of a
    non-empty point list; see {!project_point_hull}.
    @raise Invalid_argument on the empty list. *)

val project_point_hull : dim:int -> Vec.t -> Vec.t list -> Q.t * Vec.t
(** Exact nearest point of the hull to the query, with its squared
    distance. The projection onto a convex set is unique, so the result
    is deterministic.

    - 2-d: edge projections on the canonical polygon.
    - 3-d, full-dimensional hull: membership against the facet planes
      of the {!Hullnd.dual_3d} dual; outside, floats pick the nearest
      face (facet plane, edge or vertex), the exact projection onto it
      is computed, and it is accepted only under an exact certificate
      (it satisfies every facet, and [(p − q)·(v − q) <= 0] for every
      vertex [v]). A failed certificate falls back to
      {!project_point_hull_brute} and is counted in
      [chc_poly_facet_fallback_total{query="project"}].
    - Lower-dimensional 3-d hulls and d >= 4: {!project_point_hull_brute}.

    @raise Invalid_argument on the empty list. *)

val projector : dim:int -> Vec.t list -> Vec.t -> Q.t * Vec.t
(** [projector ~dim pts] is {!project_point_hull} [~dim] [_] [pts] with
    the target's set-up (extreme points, and at d = 3 the dual and its
    float image) done once, before the first query.
    @raise Invalid_argument on the empty list. *)

val hausdorff2 : dim:int -> Vec.t list -> Vec.t list -> Q.t
(** Exact squared Hausdorff distance between the hulls of two
    non-empty point lists. @raise Invalid_argument if either is empty. *)

val hausdorff : dim:int -> Vec.t list -> Vec.t list -> float
(** [sqrt] of {!hausdorff2} as a float. *)

(** {1 Reference path} *)

val project_point_hull_brute : dim:int -> Vec.t -> Vec.t list -> Q.t * Vec.t
(** LP membership, then exact least-squares projection onto every
    vertex subset of size at most [dim + 1] (the minimum is exact
    because the true face is among them). The fallback of the face
    path above and its test oracle.
    @raise Invalid_argument on the empty list. *)
