(** Treewidth and pathwidth computation.

    Heuristic upper bounds via greedy elimination orders, exact values via
    dynamic programming over vertex subsets (practical up to ~18 vertices),
    and combinatorial lower bounds.  Circuit treewidth (Section 3.1 of the
    paper) reduces to these via the circuit's underlying undirected graph. *)

(** {1 Elimination orders} *)

val min_degree_order : ?budget:Budget.t -> Ugraph.t -> int list
val min_fill_order : ?budget:Budget.t -> Ugraph.t -> int list

val width_of_order : Ugraph.t -> int list -> int
(** Width of the tree decomposition induced by the elimination order. *)

(** {1 Upper bounds} *)

val upper_bound : ?budget:Budget.t -> Ugraph.t -> int * int list
(** Best width over the built-in heuristics (min-fill, then min-degree
    if strictly narrower), with a witnessing order.  The width is read
    off the elimination pass: it equals [width_of_order g order].

    Cost: each pass is one {!Elimination.run} on flat arrays.  It
    scores every vertex once and keeps [score·n + v] keys in an [int]
    heap; eliminating [v] rescores only [N(v)] for min-degree, and for
    min-fill also the neighbours of every endpoint of an added fill
    edge (a subset of the two-hop neighbourhood).  A min-degree score
    is O(1) and a min-fill score of [w] is O(Σ_{a ∈ N(w)} deg a), so a
    pass is about n·log n plus Σ over eliminations of the rescored
    vertices' scores — near-linear on bounded-degree graphs.  [budget]
    (default {!Budget.unlimited}) is polled once per score evaluation,
    so a budgeted compilation can stop inside a pass.
    @raise Budget.Exhausted on a trip. *)

val decompose :
  ?budget:Budget.t -> Elimination.pick list -> Ugraph.t -> int * Treedec.t
(** [decompose picks g] runs one {!Elimination.run} per pick, each
    building its tree decomposition as it eliminates, and keeps the
    narrowest (the earliest on ties), with its width: the rule
    {!upper_bound} applies to [[Min_fill; Min_degree]].  A [Given]
    pick must be a permutation of the vertices.  The result equals
    [Treedec.refine_connected (Treedec.of_elimination_order g order)]
    for that pass's order: its tree already spans the bags.  The empty
    graph gives [(-1, Treedec.trivial g)].  Polls [budget] like
    {!upper_bound}.
    @raise Invalid_argument if [picks] is empty.
    @raise Budget.Exhausted on a trip. *)

val decomposition : ?budget:Budget.t -> Ugraph.t -> Treedec.t
(** [snd (decompose [Min_fill; Min_degree] g)] under a
    [treewidth.decomposition] span: the decomposition of
    {!upper_bound}'s order. *)

(** {1 Exact computation} *)

val exact : ?max_vertices:int -> Ugraph.t -> int
(** Exact treewidth by subset dynamic programming.
    @raise Invalid_argument if the graph has more than [max_vertices]
    (default 18) vertices. *)

val exact_order : ?max_vertices:int -> Ugraph.t -> int * int list
(** Exact treewidth with an optimal elimination order. *)

val exact_decomposition : ?max_vertices:int -> Ugraph.t -> Treedec.t
(** Minimum-width tree decomposition. *)

val exact_bb : ?node_budget:int -> ?budget:Budget.t -> Ugraph.t -> int option
(** Branch-and-bound over elimination orders (with simplicial-vertex
    reduction and dominance memoization).  Exact when it answers within
    [node_budget] search nodes (default 200000); [None] when that budget
    — or the optional global [budget], polled every 1024 nodes — is
    exhausted.  Either trip is reported through the [budget.trip.*]
    counters.  Graphs up to 62 vertices. *)

(** {1 Lower bounds} *)

val lower_bound_mmd : Ugraph.t -> int
(** Maximum-minimum-degree (degeneracy) lower bound; [0] on the empty
    graph.  O(n + m) with a degree-bucket queue. *)

(** {1 Pathwidth} *)

val pathwidth_exact : ?max_vertices:int -> Ugraph.t -> int
(** Exact pathwidth via the vertex-separation-number DP (pathwidth equals
    vertex separation number).  Same size limits as {!exact}. *)

val pathwidth_order : ?max_vertices:int -> Ugraph.t -> int * int list
(** Exact pathwidth with a witnessing vertex layout. *)
