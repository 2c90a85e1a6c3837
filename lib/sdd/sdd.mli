(** Sentential decision diagrams (Darwiche 2011; paper, Section 2.1).

    A manager fixes a vtree.  SDD nodes are hash-consed, {e compressed}
    (no two elements of a decision share a sub) and {e trimmed} (the
    degenerate decisions [{(⊤,s)}] and [{(p,⊤),(¬p,⊥)}] are replaced by
    [s] and [p]), so every Boolean function has exactly one node per
    manager — the canonical SDD.  Handle equality is function equality.

    Size and the paper's SDD width (Definition 5: the number of ∧-gates —
    elements — structured by each vtree node) are exposed, together with
    exact model counting and weighted model counting.

    A manager and its handles belong to one domain at a time; parallel
    callers give each domain its own manager and {!import} the results.
    The only cross-domain read is the run record's census
    ({!census_all}). *)

type manager
type t
(** Node handle, valid only with its manager. *)

(** {1 Manager} *)

val manager : ?budget:Budget.t -> ?compact_every:int -> Vtree.t -> manager
(** [budget] (default {!Budget.unlimited}) is polled at every node
    allocation: the live-node cap is checked exactly, the clock /
    cancellation token / heap watermark at the budget's amortized
    interval.  On a trip the kernel raises [Budget.Exhausted] at a
    checkpoint where the manager is still consistent — in particular
    {!apply_move} is transactional: it checks before mutating, polls
    throughout the rebuild, and rolls the manager back to its pre-edit
    state if the budget trips mid-edit, so a budgeted manager never
    observes a half-applied edit.

    [compact_every] (default [max_int], i.e. never) arms generational
    compaction: when that many nodes have been allocated since the last
    pass, or dynamic edits have stranded that many tombstones, the
    checkpoints inside {!apply_move} and {!compile_circuit} (and the
    pipeline's clause loop) run {!compact} on their live roots.
    @raise Invalid_argument if [compact_every < 1]. *)

val vtree : manager -> Vtree.t
val num_nodes_allocated : manager -> int

val budget : manager -> Budget.t
val set_budget : manager -> Budget.t -> unit
(** Replace the manager's budget (e.g. release it after a successful
    compile, or install one before a long minimization). *)

(** {1 Generational compaction}

    Dynamic edits tombstone dead slots rather than reclaiming them; the
    arena store accumulates that garbage until a compaction pass
    relocates the live set into exact-fit arrays.  Compaction
    {e invalidates every outstanding handle} except the roots it is
    given (same contract as a dynamic edit): pass in each handle you
    intend to keep and continue with the returned equivalents.  Each
    pass bumps {!generation}, records one [sdd.compaction] {!Obs.event}
    (nodes relocated, words reclaimed, pause µs) whatever the collection
    switch, and resets the census garbage counters. *)

val compact : manager -> t -> t
(** [compact m root] reclaims everything not reachable from [root]
    (literals and constants always survive) and returns the relocated
    root.  Raises [Budget.Exhausted] only before mutating anything, so
    a budget trip leaves the manager untouched. *)

val compact_roots : manager -> t array -> t array
(** Multi-root {!compact}: the whole array is kept live and returned
    relocated, positionally. *)

val maybe_compact : manager -> t -> t
(** {!compact} if the [compact_every] threshold is due, else the
    identity.  The checkpoint used by the compile loops. *)

val set_compact_every : manager -> int -> unit
(** Re-arm (or disarm with [max_int]) the compaction threshold.
    @raise Invalid_argument if the argument is [< 1]. *)

val generation : manager -> int
(** Number of compactions survived by the current node ids — handles
    from an older generation are invalid. *)

val compactions : manager -> int
(** Total compaction passes run by this manager. *)

val stats : manager -> Obs.Cache.snapshot list
(** Hit/miss/size statistics of the manager's five hash tables, in the
    order [sdd.unique], [sdd.and_cache], [sdd.or_cache], [sdd.neg_cache],
    [sdd.cond_cache].  Always maintained (independent of
    [Obs.set_enabled]); when observability is enabled at manager-creation
    time the same caches also appear in [Obs.caches ()]. *)

(** {1 Census} *)

type census = {
  allocated : int;  (** Node-store slots handed out (including consts). *)
  decisions : int;
  literals : int;
  tombstones : int;  (** Slots killed by dynamic edits, awaiting reuse. *)
  elements : int;  (** Total prime/sub pairs across decisions. *)
  unique_entries : int;  (** Decisions interned in the unique table. *)
  unique_slots : int;
      (** Unique-table capacity: open addressing over node ids, kept at
          least twice [unique_entries]. *)
  apply_entries : int;  (** AND + OR cache entries. *)
  neg_entries : int;
  cond_entries : int;
  data_capacity : int;  (** Node-store (arena) capacity in slots. *)
  approx_heap_words : int;
      (** Estimated words held by the arena columns, the element
          buffer, the literal table and the unique table's slots (the
          table stores node ids only; its keys are the arena cells). *)
  bytes_per_node : int;  (** [8 * approx_heap_words / allocated]. *)
  garbage_words : int;
      (** Words stranded by tombstones (dead slots and their element
          pairs) — what the next compaction would reclaim. *)
  generation : int;  (** Compaction generation of the node ids. *)
  compactions : int;  (** Total compaction passes run. *)
}

val census : manager -> census
(** Exact walk over the node store — O(allocated), intended for
    run records and dumps, not hot paths. *)

val census_all : unit -> census list
(** Censuses of every manager still alive in the process (tracked
    through a weak registry, so the census never extends a manager's
    lifetime): the run record's default [managers] section. *)

val census_to_json : census -> Obs.Json.t

(** {1 Constants, literals, connectives} *)

val true_ : manager -> t
val false_ : manager -> t
val literal : manager -> string -> bool -> t
(** @raise Not_found if the variable is not in the vtree. *)

val negate : manager -> t -> t
val conjoin : manager -> t -> t -> t
(** The one apply.  On a manager over a right-linear vtree (an OBDD,
    see {!Obdd}) it is the Shannon/ITE recursion; otherwise the
    element product at the operands' lowest common vtree ancestor.  The
    trivial cases and the apply caches are shared by both. *)

val disjoin : manager -> t -> t -> t
val conjoin_list : manager -> t list -> t
(** Pairwise, level by level, not a left fold: [[a; b; c; d; e]] is
    [((a ∧ b) ∧ (c ∧ d)) ∧ e], and [[]] is [1].  {!disjoin_list} folds
    the same way ([[]] is [0]). *)

val disjoin_list : manager -> t list -> t

val condition : manager -> t -> string -> bool -> t

(** {1 Dynamic vtree edits}

    In-manager vtree minimization (Choi & Darwiche style): a local move
    — child swap or rotation at an internal vtree node — is applied to
    the manager {e in place}.  Only the decisions normalized to the
    edited vtree node (and, for rotations, to the rotated child) are
    rebuilt semantically; every other node is re-keyed with its vtree id
    renumbered, and the apply/negate/condition caches are remapped
    through the node forwarding rather than dropped, so the invalidation
    is scoped to the touched vtree fragment.  Canonicity is preserved:
    after the edit, handle equality is again function equality for the
    new vtree.

    The edit changes [vtree m] and {e invalidates outstanding node
    handles}: each function takes the handle the caller cares about and
    returns its forwarded equivalent.  Nodes not reachable from that
    root (dead compile intermediates, leftovers of earlier edits) are
    garbage-collected during the rewrite, so a long chain of edits —
    the in-manager search applies and reverts hundreds — costs
    O(reachable) per edit rather than O(allocated).  Reverting with
    [Vtree.inverse_move] restores the vtree (and, by canonicity, the
    represented functions and their sizes), not necessarily the literal
    node ids. *)

val apply_move : manager -> Vtree.move -> t -> t
(** [apply_move m mv root] applies the move to the manager's vtree and
    returns the node now representing [root]'s function.
    @raise Invalid_argument if the move does not apply at its node. *)

val swap : manager -> Vtree.node -> t -> t
(** [apply_move] with [Vtree.Swap]. *)

val rotate_left : manager -> Vtree.node -> t -> t
(** [apply_move] with [Vtree.Rotate_left]: [(a (b c))] → [((a b) c)]. *)

val rotate_right : manager -> Vtree.node -> t -> t
(** [apply_move] with [Vtree.Rotate_right]: [((a b) c)] → [(a (b c))]. *)

val decision : manager -> Vtree.node -> (t * t) list -> t
(** [decision m v elements] is the canonical node for the decision
    [∨ᵢ (pᵢ ∧ sᵢ)] at the internal vtree node [v].  The primes must
    already be pairwise disjoint and jointly exhaustive, with every prime
    below [v]'s left subtree and every sub below its right subtree —
    {e this is not checked}.  Compression and trimming are applied, so
    the result is canonical.  Used by compilers that produce valid
    partitions directly (e.g. the factorized sentential decisions of the
    paper), avoiding quadratic apply costs. *)

val import : dst:manager -> map:(Vtree.node -> Vtree.node) -> manager -> t -> t
(** [import ~dst ~map src root] rebuilds [root]'s function inside [dst],
    translating every vtree node of [src] through [map].  Requires the
    mapped fragment of [dst]'s vtree to have the same shape and
    variables as [src]'s vtree ({e unchecked}) — exactly what the
    offsets of {!Vtree.of_forest} provide — so independently compiled
    SDDs can be conjoined under one composed manager.  Memoized,
    O(size of [root]); the result is canonical in [dst]. *)

val equal : t -> t -> bool
(** Function equality, constant time (canonicity). *)

val is_true : manager -> t -> bool
val is_false : manager -> t -> bool

(** {1 Structure} *)

type view =
  | False
  | True
  | Literal of string * bool
  | Decision of Vtree.node * (t * t) list
      (** Elements (prime, sub), normalized to the vtree node. *)

val view : manager -> t -> view

val vtree_node : manager -> t -> Vtree.node option
(** The vtree node the SDD node is normalized to; [None] for constants. *)

val validate : manager -> t -> (unit, string) result
(** Checks the SDD conditions on every reachable decision: primes form an
    exhaustive ([∨ᵢ pᵢ ≡ ⊤]) and pairwise-disjoint partition, subs are
    pairwise distinct (compression), and structuredness with respect to
    the vtree holds.  Exact (uses the manager's own apply). *)

(** {1 Measures} *)

val size : manager -> t -> int
(** Total number of elements over reachable decision nodes (the standard
    SDD size measure). *)

val node_count : manager -> t -> int
(** Number of reachable decision nodes. *)

val width : manager -> t -> int
(** Paper, Definition 5: max over vtree nodes [v] of the number of
    elements of reachable decisions normalized to [v]. *)

val width_profile : manager -> t -> (Vtree.node * int) list
(** Elements per vtree node (only nodes with a nonzero count). *)

(** {1 Counting and probability}

    The three counters share one bottom-up pass over the nodes reachable
    from the root, memoized in an array indexed by node id.  Its cost is
    linear in {!size}: one addition and at most three multiplications
    per element.  {!probability_ratio} works in integers: a variable of
    weight [num/den] contributes [num] and [den - num], each vtree node
    carries the product of the denominators below it, and the answer is
    normalized by one gcd at the root.

    Weight contract: the weight function is called once per variable
    whose literal is reachable from the root, and on no other variable.
    A vtree may therefore carry variables the weight function rejects,
    as long as the function does not mention them. *)

val model_count : manager -> t -> Bigint.t
(** Over all variables of the vtree. *)

val probability : manager -> t -> (string -> float) -> float
(** Each variable independently true with the given probability. *)

val probability_ratio : manager -> t -> (string -> Ratio.t) -> Ratio.t
(** {!probability} in exact rationals. *)

val any_model : manager -> t -> (string * bool) list option
(** A satisfying total assignment of the vtree variables, if any. *)

(** {1 Compilation and export} *)

val compile_circuit : manager -> Circuit.t -> t
(** Bottom-up apply compilation, gate by gate (a wide gate pairwise, as
    {!conjoin_list}), with a budget check up front and a compaction
    checkpoint after every gate; circuit variables must be in the vtree.
    The one compile loop for every manager (ITE apply on an OBDD one). *)

(** {1 OBDD backend}

    An OBDD is a canonical SDD over a right-linear vtree (paper,
    Section 2.2), so an OBDD manager is an ordinary {!manager} — same
    arena store, budget gate, unique table, compaction and apply.  On a
    right-linear vtree {!conjoin}/{!disjoin} (and so {!compile_circuit})
    run the classic Shannon/ITE recursion instead of the element
    product: cofactor both operands on the topmost variable, recurse on
    the two halves, rebuild.  The nodes are the ones the element product
    would intern (same unique keys), so every generic query works on
    them unchanged.  This module adds the OBDD view: the per-level node
    census and sifting. *)
module Obdd : sig
  val manager :
    ?budget:Budget.t -> ?compact_every:int -> string list -> manager
  (** Manager over the right-linear vtree of the given variable order;
      an ordinary {!manager} in every other respect. *)

  val order : manager -> string list
  (** The variable order (the vtree's leaf order). *)

  val level_profile : manager -> t -> (string * int) list
  (** OBDD decision nodes per variable level, in order: the root plus
      its hi/lo closure, terminals excluded.  A literal in node position
      is a one-decision OBDD and counts; primes are encoding and do
      not.  This is the Sieling–Wegener count that
      [Boolfun.obdd_profile] computes from the truth table.
      @raise Invalid_argument if the manager's vtree is not
      right-linear (as do {!width}, {!size} and {!sift}). *)

  val width : manager -> t -> int
  (** Max of {!level_profile}: the OBDD width of Jha–Suciu/Razgon that
      the paper's pathwidth claims are stated in. *)

  val size : manager -> t -> int
  (** Sum of {!level_profile}: the number of OBDD decision nodes.
      {!Sdd.size} on the same node counts SDD elements instead: two per
      decision that is not a literal. *)

  val sift : manager -> t -> t
  (** Greedy dynamic reordering in place: try adjacent transpositions of
      the variable order top-down, keep the first one that strictly
      decreases {!size}, restart, and stop at a local minimum.  Each
      transposition is a rotate/swap/rotate of the vtree
      ({!rotate_left}, {!swap}, {!rotate_right}); a rejected candidate
      is transposed back.  The vtree stays right-linear; the order
      found is {!order}.  Returns the node now representing the root's
      function; like every dynamic edit it invalidates other handles. *)
end

val of_boolfun_naive : manager -> Boolfun.t -> t
(** Apply-compilation of the minterm DNF — exponential, for tests only.
    (The efficient semantic compiler is [Compile.sdd_of_boolfun] in
    [ctw_core].) *)

val to_boolfun : manager -> t -> Boolfun.t
(** Over the full vtree variable set (small vtrees only). *)

val eval : manager -> t -> Boolfun.assignment -> bool

val to_nnf_circuit : manager -> t -> Circuit.t
(** Exports the SDD as a deterministic structured NNF circuit (ANDs of
    fanin 2 structured by the vtree). *)

(** {1 Statistics} *)

val pp : manager -> Format.formatter -> t -> unit
