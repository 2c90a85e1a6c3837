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
    allocation: the node cap is checked exactly against
    {!num_nodes_allocated}, the clock / cancellation token / heap
    watermark at the budget's amortized interval.  On a trip the kernel
    raises [Budget.Exhausted] at a checkpoint where the manager is still
    consistent.  {!apply_move} and {!compact_roots} are transactional:
    they rebuild the live SDD into a fresh arena and only set the old
    one aside, so a trip — or any other exception — mid-pass puts the
    old arena back: the vtree, {!num_nodes_allocated}, {!compactions},
    every node id and every cache answer are as before the call.

    Node-cap semantics of that pass: during a vtree edit the cap counts
    the arena the edit started from plus the nodes apply builds to
    re-derive the affected decisions.  Copied nodes are not gated by the cap and are not
    counted in the [sdd.alloc] counter, attribution or the occupancy
    pulse.  Once the pass commits, {!num_nodes_allocated} is the new
    arena's size, so a capped climb of edits trips on the growth of the
    live SDD only.

    [compact_every] (default [max_int], i.e. never) arms generational
    compaction: when that many nodes have been allocated since the last
    compaction or edit, the checkpoints inside {!compile_circuit} (and
    the pipeline's clause loop) run {!compact_roots} on their live
    roots.

    A manager holds at most 2{^31} nodes: apply keys pack two node ids
    into one word and the caches store ids in 32 bits.  The allocation
    that would pass that bound raises [Invalid_argument].
    @raise Invalid_argument if [compact_every < 1]. *)

val vtree : manager -> Vtree.t

val num_nodes_allocated : manager -> int
(** Node slots in the arena, the two constants included.  Compile
    intermediates that became unreachable stay counted until the next
    compaction or vtree edit.  After a compaction it counts the live
    SDD and the literals; after an edit, those plus what the edit's
    re-derivations built. *)

val budget : manager -> Budget.t
val set_budget : manager -> Budget.t -> unit
(** Replace the manager's budget (e.g. release it after a successful
    compile, or install one before a long minimization). *)

(** {1 Generational compaction}

    The arena is append-only: apply's intermediates stay allocated after
    they become unreachable.  Compaction rebuilds the nodes reachable
    from the given roots, and every literal, into a fresh exact-fit
    arena.  It is the relocation pass a vtree edit runs, with the vtree
    unchanged: ids keep their relative order, so elements stay sorted
    by prime without a re-sort.
    Compaction {e invalidates every outstanding handle} except the roots
    it is given (same contract as a dynamic edit): pass in each handle
    you intend to keep and continue with the returned equivalents.  Each
    pass bumps {!compactions} and records one [sdd.compaction]
    {!Obs.event} (nodes relocated, words reclaimed, pause µs) whatever
    the collection switch. *)

val compact : manager -> t -> t
(** [compact m root] reclaims everything not reachable from [root]
    (literals and constants always survive) and returns the relocated
    root.  A budget trip, or any exception, mid-pass leaves the manager
    as it was. *)

val compact_roots : manager -> t array -> t array
(** Multi-root {!compact}: the whole array is kept live and returned
    relocated, positionally. *)

val maybe_compact : manager -> t -> t
(** {!compact} if the [compact_every] threshold is due, else the
    identity.  The checkpoint used by the compile loops. *)

val compact_due : manager -> bool
(** Whether the [compact_every] threshold is due: the test behind
    {!maybe_compact}, for checkpoints with several live roots.  A
    vtree edit restarts the count, since it leaves a compact arena. *)

val set_compact_every : manager -> int -> unit
(** Re-arm (or disarm with [max_int]) the compaction threshold.
    @raise Invalid_argument if the argument is [< 1]. *)

val compactions : manager -> int
(** Total compaction passes run by this manager: the generation of the
    current node ids, since only a compaction renumbers under a new
    generation — handles from an older one are invalid. *)

type cache_stat = {
  cache : string;
  lookups : int;  (** [hits + misses] *)
  hits : int;
  misses : int;
  entries : int;
}

val stats : manager -> cache_stat list
(** Hit/miss/size statistics of the manager's unique table and its four
    caches, in the order [sdd.unique], [sdd.and_cache], [sdd.or_cache],
    [sdd.neg_cache], [sdd.cond_cache].  The caches never evict, so the
    hit/miss sequence is a function of the calls made alone.  Each
    manager keeps its own tally, whatever [Obs.set_enabled] says. *)

val caches : unit -> cache_stat list
(** The run record's [caches] section: the tallies of every manager
    created with observability on in the current [Obs.generation] (dead
    managers and those of worker domains included), summed by name and
    sorted by name; [entries] sums the managers still alive.  [[]] when
    there is none.  {!census_all} reads the same registry. *)

(** The table type of the apply, negation and conditioning caches,
    exposed for its model test.  Keys are non-negative ints, values node
    ids in [\[0, 2{^31})]; open addressing with linear probing, at most
    3/4 full, doubling from 16 slots, never evicting. *)
module Cache_tbl : sig
  type t

  val create : unit -> t
  val find : t -> int -> int
  (** The value bound to the key, or [-1]. *)

  val replace : t -> int -> int -> unit
  val length : t -> int
  (** Keys bound. *)

  val iter : (int -> int -> unit) -> t -> unit
  (** Each binding once, in slot order. *)

  val words : t -> int
  (** Words held by the slots. *)
end

(** {1 Census} *)

type census = {
  allocated : int;  (** Node-store slots handed out (including consts). *)
  decisions : int;
  literals : int;
      (** Every slot below [allocated] is a constant, a decision or a
          literal: [allocated = 2 + decisions + literals]. *)
  elements : int;  (** Total prime/sub pairs across decisions. *)
  unique_entries : int;  (** Decisions interned in the unique table. *)
  unique_slots : int;
      (** Unique-table capacity: open addressing over node ids, kept at
          least twice [unique_entries]. *)
  apply_entries : int;  (** AND + OR cache entries. *)
  neg_entries : int;
  cond_entries : int;
  data_capacity : int;  (** Node-store (arena) capacity in slots. *)
  scratch_words : int;
      (** Capacity of the scratch stack the apply miss path builds its
          element views, products and compression groups on.  It grows
          to the deepest recursion seen and never shrinks; a budget trip
          leaves it as it was. *)
  cache_words : int;
      (** Words held by the slots of the four caches (AND, OR, negation,
          conditioning): each is a flat open-addressed table of
          1.5 words a slot, at most 3/4 full.  Not part of
          [approx_heap_words]. *)
  approx_heap_words : int;
      (** Estimated words held by the arena columns, the element
          buffer, the literal table, the unique table's slots (the
          table stores node ids only; its keys are the arena cells) and
          the scratch stack. *)
  bytes_per_node : int;  (** [8 * approx_heap_words / allocated]. *)
  compactions : int;
      (** Total compaction passes run: the generation of the node ids. *)
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
    trivial cases and the apply caches are shared by both.  A miss
    builds its element views, product and compressed decision on the
    manager's scratch stack (see {!census}'s [scratch_words]), so it
    allocates no lists; a [Budget.Exhausted] raised mid-apply leaves
    the stack as the call found it. *)

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
    the live manager.  The edit is the compaction pass with the move's
    vtree-id map: the nodes reachable from the caller's root, and every
    literal, are rebuilt into a fresh arena over the new vtree.  Only
    the decisions normalized to the edited vtree node (and, for
    rotations, to the rotated child) are re-derived by apply; every
    other node is copied with its vtree id renumbered, and the
    apply/negate/condition caches are forwarded through the relocation
    rather than dropped, so the invalidation is scoped to the touched
    vtree fragment.  Canonicity is preserved: after the edit, handle
    equality is again function equality for the new vtree.

    The edit changes [vtree m] and {e invalidates outstanding node
    handles}: each function takes the handle the caller cares about and
    returns its forwarded equivalent.  Nodes not reachable from that
    root are dropped, so the arena an edit leaves holds the live SDD,
    the literals and the nodes the re-derivations built, and a long
    chain of edits — the in-manager search applies and reverts
    hundreds — costs O(live SDD) per edit.  Reverting with [Vtree.inverse_move]
    restores the vtree (and, by canonicity, the represented functions
    and their sizes), not the node ids. *)

val apply_move : manager -> Vtree.move -> t -> t
(** [apply_move m mv root] applies the move to the manager's vtree and
    returns the node now representing [root]'s function.  On a budget
    trip (see {!manager} for what the node cap counts) or any other
    exception the manager is left exactly as before the call.
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
    the result is canonical: ⊥ primes are dropped, the primes sharing a
    sub are disjoined into one, and [[]], a single group [[(p, s); ...]]
    (all one sub [s]) and [[(p, ⊤); (¬p, ⊥)]] come back as [⊥], [s] and
    [p].  The elements are copied to the manager's scratch stack and
    built as {!conjoin}'s decisions are.  Used by compilers that produce valid
    partitions directly (e.g. the factorized sentential decisions of the
    paper), avoiding quadratic apply costs. *)

val import : dst:manager -> map:(Vtree.node -> Vtree.node) -> manager -> t -> t
(** [import ~dst ~map src root] rebuilds [root]'s function inside [dst],
    translating every vtree node of [src] through [map].  Requires the
    mapped fragment of [dst]'s vtree to have the same shape and
    variables as [src]'s vtree ({e unchecked}) — exactly what the
    offsets of {!Vtree.of_forest} provide — so independently compiled
    SDDs can be conjoined under one composed manager.  It is the loop
    that relocates nodes in {!compact} and {!apply_move}, writing into
    [dst]: one pass over [src]'s arena, each node reachable from
    [root] interned once; the result is canonical in [dst].  The copies
    are new nodes of [dst] and pass its budget gate. *)

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
