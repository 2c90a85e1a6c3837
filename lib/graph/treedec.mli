(** Tree decompositions.

    A tree decomposition of a graph [g] is a tree whose nodes carry bags of
    vertices of [g] such that every vertex appears in a bag, every edge is
    contained in some bag, and the bags containing any fixed vertex induce
    a connected subtree.  Width = max bag size - 1. *)

type t = {
  bags : int list array;
      (** [bags.(i)] is the bag of tree node [i], without repeats; not
          always sorted ({!of_elimination_order} lists the eliminated
          vertex first). *)
  tree : (int * int) list;  (** Edges of the tree over bag indices. *)
}

val width : t -> int
(** Max bag size minus one; [-1] for a decomposition with only empty bags. *)

val num_bags : t -> int

val validate : Ugraph.t -> t -> (unit, string) result
(** Checks the three tree-decomposition properties and that [tree] is a
    tree (connected, acyclic) over the bag indices.  The first failure
    is reported: the tree, then the first uncovered vertex, the first
    uncovered edge of [Ugraph.edges g], the first vertex whose bags are
    disconnected.  Near-linear in the size of [g] and of the bags. *)

val is_valid : Ugraph.t -> t -> bool

val trivial : Ugraph.t -> t
(** The one-bag decomposition containing all vertices. *)

val of_elimination_order : Ugraph.t -> int list -> t
(** Tree decomposition obtained by eliminating vertices in the given
    order (fill-in construction), one {!Elimination.run} pass.  Bag [i]
    is the [i]-th vertex followed by its neighbours still live at its
    elimination, ascending; it is joined to the bag of the
    earliest-eliminated of them, or to bag [i + 1] if there is none, so
    the edges already form one tree.  Width equals the width of the
    elimination order.
    @raise Invalid_argument if [order] is not a permutation of the
    vertices. *)

val path_decomposition_of_order : Ugraph.t -> int list -> t
(** Path decomposition induced by a vertex layout: bag [i] contains
    vertex [order.(i)] and every earlier vertex with a later neighbor.
    Its width is the vertex-separation width of the layout. *)

val refine_connected : t -> t
(** Reconnects a forest of bags into a tree (joining components with
    edges between arbitrary bags); used to normalize constructions on
    disconnected graphs. *)

val pp : Format.formatter -> t -> unit
