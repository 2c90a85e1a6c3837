(** Vertex elimination on flat arrays: one pass yields an elimination
    order, its width and the tree decomposition it induces.

    Eliminating [v] makes its live neighbours a clique (fill-in) and
    removes [v].  The next vertex is the given one, or the live vertex
    of lowest score, the lowest index among equal scores. *)

type pick =
  | Min_fill  (** fewest fill edges (non-adjacent pairs of neighbours) *)
  | Min_degree  (** fewest live neighbours *)
  | Given of int array  (** this order, a permutation of the vertices *)

type t = {
  order : int array;  (** [order.(i)] is the [i]-th vertex eliminated. *)
  width : int;
      (** The most live neighbours a vertex had when eliminated; [-1]
          on the empty graph. *)
  bags : int list array;
      (** [bags.(i)] is [order.(i)] followed by its live neighbours at
          elimination, ascending; [[||]] unless asked for. *)
  tree : (int * int) list;
      (** Bag [i] is joined to the bag of its earliest-eliminated live
          neighbour, or to bag [i + 1] if it has none (last vertex of
          its component), listed from the highest [i] down, so the
          edges form one tree over the bags; [[]] unless asked for. *)
}

val run : ?budget:Budget.t -> bags:bool -> pick -> Ugraph.t -> t
(** [run ~bags pick g] eliminates every vertex of [g] once; [bags]
    asks for [bags] and [tree].

    Each vertex's neighbours are read once from [g] into a growable
    [int] array; membership tests stamp an [int] array.  The greedy
    picks keep [score·n + v] keys in an [int] binary heap with lazy
    deletion, whose minimum is the lowest-index vertex of the lowest
    score.  Eliminating [v] rescores only [N(v)] for min-degree, and
    for min-fill also the neighbours of every endpoint of an added fill
    edge.  A min-degree score is O(1); a min-fill score of [w] is
    O(Σ_{a ∈ N(w)} deg a) (stamp [N(w)], count the stamped neighbours
    of each [a]).  Eliminating [v] costs Σ_{a ∈ N(v)} deg a plus
    deg(v)² for the fill, so a pass is near-linear on bounded-degree
    graphs.  [budget] (default {!Budget.unlimited}) is polled once per
    score evaluation.
    @raise Budget.Exhausted on a trip. *)
