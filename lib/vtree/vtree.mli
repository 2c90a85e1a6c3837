(** Variable trees (vtrees, Section 2.1 of the paper).

    A vtree for a variable set [Y] is a rooted ordered binary tree whose
    leaves correspond bijectively to [Y].  Nodes are identified by
    integers; the structure precomputes parents, depths, the in-order
    leaf variables and each node's leaf interval in them, for O(1)
    ancestry tests — the operations the SDD apply algorithm needs.  The
    variable sets [Y_v] are read off the leaf intervals on demand. *)

type t
type node = int

(** {1 Construction} *)

type shape = L of string | N of shape * shape

val of_shape : shape -> t
(** @raise Invalid_argument on duplicate variables. *)

val right_linear : string list -> t
(** OBDD-style vtree: every left child is a leaf; variable order is the
    list order.  @raise Invalid_argument on empty or duplicate input. *)

val left_linear : string list -> t
(** Every right child is a leaf. *)

val balanced : string list -> t

val random : seed:int -> string list -> t
(** Random binary shape over a random permutation of the variables. *)

val enumerate : string list -> t list
(** All vtrees over the variable set ((2l-3)!! · shapes with ordered
    children); feasible only for very small [l] (≤ 6 or so). *)

val of_forest : t list -> t * int array
(** [of_forest [t1; ...; tk]] is the right-nested composition
    [N(t1, N(t2, ... N(t_{k-1}, tk)))] over the disjoint union of the
    parts' variables, together with the id offset of each part: node
    [v] of part [i] appears in the composition as node
    [offsets.(i) + v] with the same shape and variables (ids are
    pre-order, so each part occupies a contiguous id range).  This is
    how independently compiled SDD components are conjoined under one
    manager ({!Sdd.import}).
    @raise Invalid_argument on an empty list or duplicate variables. *)

(** {1 Structure} *)

val root : t -> node
val num_nodes : t -> int
val num_leaves : t -> int
val nodes : t -> node list
(** All nodes, in-order. *)

val is_leaf : t -> node -> bool
val var_of_leaf : t -> node -> string
(** @raise Invalid_argument on an internal node. *)

val left : t -> node -> node
val right : t -> node -> node
(** @raise Invalid_argument on a leaf. *)

val parent : t -> node -> node option
val depth : t -> node -> int

val leaf_of_var : t -> string -> node
(** @raise Not_found if the variable is not in the tree. *)

val variables : t -> string list
(** Sorted; built per call like {!vars_below} at the root. *)

val vars_below : t -> node -> string list
(** [Y_v]: sorted variables at the leaves of the subtree rooted at [v].
    Built per call from the node's leaf interval, O(|Y_v| log |Y_v|);
    use {!num_vars_below}, {!is_ancestor} or {!leaf_of_var} when the
    list itself is not needed. *)

val num_vars_below : t -> node -> int

val is_ancestor : t -> node -> node -> bool
(** [is_ancestor t u v]: [u] is an ancestor of [v] (reflexive). *)

val lca : t -> node -> node -> node

val in_left_subtree : t -> node -> node -> bool
(** [in_left_subtree t v u]: [u] lies in the subtree of [left v]. *)

val in_right_subtree : t -> node -> node -> bool

val is_right_linear : t -> bool
(** True iff every internal node's left child is a leaf — the vtrees whose
    canonical SDDs are exactly OBDDs.  O(1): recorded by {!of_shape},
    so {!Sdd.conjoin} can choose its apply from it per call. *)

val leaf_order : t -> string list
(** Variables in left-to-right leaf order. *)

(** {1 Local moves}

    The neighbourhood used by vtree search (Choi & Darwiche style
    dynamic minimization): right rotation, left rotation and child swap
    at each internal node. *)

type move =
  | Swap of node  (** [(a b)] -> [(b a)] at the node. *)
  | Rotate_left of node  (** [(a (b c))] -> [((a b) c)] at the node. *)
  | Rotate_right of node  (** [((a b) c)] -> [(a (b c))] at the node. *)

val apply_move : t -> move -> t
(** The vtree after one local move.  Node ids are pre-order, so the
    edited node keeps its id, as do all nodes outside its subtree.
    @raise Invalid_argument if the move does not apply at the node (leaf,
    or the rotated child is a leaf). *)

val inverse_move : move -> move
(** The move undoing the given one {e at the same node id} —
    [apply_move (apply_move t m) (inverse_move m)] equals [t]. *)

val local_moves : t -> t list
(** All vtrees reachable by one rotation or swap (duplicates removed,
    the input excluded). *)

val local_moves_with : t -> (move * t) list
(** Like {!local_moves} but each result is paired with a move producing
    it; the vtree list ([List.map snd]) is exactly [local_moves]. *)

val pp_move : Format.formatter -> move -> unit

val fingerprint : t -> int
(** Structural hash of the shape (including variable placement): equal
    vtrees have equal fingerprints; distinct vtrees collide with
    negligible probability (62-bit FNV-1a).  Constant-size cache key for
    the vtree search. *)

(** {1 Equality and printing} *)

val equal : t -> t -> bool
(** Structural equality of shapes (including variable placement). *)

val to_shape : t -> shape
val pp : Format.formatter -> t -> unit
val to_string : t -> string
