(** Simple undirected graphs on vertices [0 .. n-1].

    The structure is mutable during construction (edges can be added) but
    all analysis functions treat it as read-only.  Self-loops and parallel
    edges are ignored on insertion.  This is the substrate for circuit
    treewidth: the circuit's underlying undirected graph is analysed here. *)

type t

(** Disjoint-set forest over [0 .. n-1] (union by rank, path halving).
    This is the substrate for connected-component decomposition where
    materializing the graph would be wasteful — e.g. splitting a CNF
    into independent sub-problems by uniting the variables of each
    clause without ever building the primal graph. *)
module Union_find : sig
  type uf

  val create : int -> uf
  (** @raise Invalid_argument if [n < 0]. *)

  val find : uf -> int -> int
  (** Canonical representative of the element's class.
      @raise Invalid_argument on an out-of-range element. *)

  val union : uf -> int -> int -> unit
  val count : uf -> int
  (** Number of classes. *)

  val groups : uf -> int list list
  (** The classes, each sorted ascending, ordered by minimum element
      (the presentation of {!components}). *)
end

val create : int -> t
(** [create n] is the edgeless graph on [n] vertices.
    @raise Invalid_argument if [n < 0]. *)

val num_vertices : t -> int
val num_edges : t -> int

val add_edge : t -> int -> int -> unit
(** Adds an undirected edge; ignores self-loops and duplicates.
    @raise Invalid_argument on out-of-range vertices. *)

val has_edge : t -> int -> int -> bool
val neighbors : t -> int -> int list
(** Sorted list of neighbors. *)

val neighbor_array : t -> int -> int array
(** The neighbors of {!neighbors} as a fresh array, without the list. *)

val degree : t -> int -> int
val edges : t -> (int * int) list
(** Each edge [(u, v)] listed once with [u < v], sorted. *)

val copy : t -> t
val of_edges : int -> (int * int) list -> t
val equal : t -> t -> bool

val vertices : t -> int list

val induced_subgraph : t -> int list -> t * int array
(** [induced_subgraph g vs] is the subgraph induced by [vs] (with vertices
    renumbered [0..]) together with the map from new indices to original
    vertices. *)

val is_connected : t -> bool
val components : t -> int list list

val max_degree : t -> int
val min_degree : t -> int

val complement : t -> t

val pp : Format.formatter -> t -> unit

(** {1 Graph families} *)

val path_graph : int -> t
val cycle_graph : int -> t
val complete_graph : int -> t
val star_graph : int -> t
(** [star_graph n] has center [0] and leaves [1..n-1]. *)

val grid_graph : int -> int -> t
(** [grid_graph rows cols]; vertex [(i, j)] is [i * cols + j]. *)

val complete_bipartite : int -> int -> t
(** [complete_bipartite a b]: parts [0..a-1] and [a..a+b-1]. *)

val random_gnp : seed:int -> int -> float -> t
(** Erdos–Renyi [G(n, p)] with a deterministic seed. *)

val random_tree : seed:int -> int -> t
(** Uniform random labelled tree (Prüfer-style attachment). *)

val random_partial_ktree : seed:int -> int -> int -> float -> t
(** [random_partial_ktree ~seed n k p]: a random [k]-tree on [n] vertices
    with each non-skeleton edge kept with probability [p].  Treewidth is at
    most [k] by construction. *)
