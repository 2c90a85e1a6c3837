(** Circuit-native compilation pipeline.

    One entry point from a Boolean circuit to a canonical SDD, chaining
    the paper's ingredients without ever tabulating a truth table: a
    heuristic tree decomposition of the circuit's gate graph (circuit
    treewidth, Section 3.1), the Lemma 1 vtree of that decomposition,
    bottom-up apply compilation, and in-manager dynamic vtree
    minimization.  This is the path the probabilistic-database
    evaluator and the CLI use for lineages beyond the tabulation
    limit.

    Compilation is governed by a {!Budget.t} and degrades gracefully:
    when the requested strategy trips the budget the pipeline steps down
    the ladder [`Search → `Treedec → `Balanced → `Right] and reports the
    step-down in {!result.degraded} instead of failing, so a hard
    instance under a budget still yields a valid (if larger) SDD.  A
    [`Pinned] vtree is a one-rung ladder: a trip on it is the error.

    A rung stays on a ladder only if it fits in at least 10% of the
    node-cap trips that reach it.  [bench/ladder_sweep.ml] measures
    this on generated circuits and lineages, capped at 0.25, 0.5, 0.75
    and 0.99 of the head rung's own need.  Fit / reached, pooled:
    - below [`Search]: [`Treedec] 118/280 (42%), [`Balanced] 70/162
      (43%), [`Right] 22/92 (24%);
    - below [`Treedec]: [`Balanced] 137/272 (50%), [`Right] 15/135
      (11%: 11 of the 15 fits are lineages of at most 20 variables, and
      none of 67 trips on [random_window] fit);
    - below [`Balanced]: [`Right] 59/280 (21%).
    A CNF component has no ladder (see {!compile_cnf}). *)

type vtree_strategy =
  [ `Right | `Balanced | `Treedec | `Search | `Pinned of Vtree.t ]
(** How the starting vtree is chosen:
    - [`Right] — right-linear over the circuit's variables (an OBDD-style
      order, the paper's Section 2.2 baseline);
    - [`Balanced] — balanced over the circuit's variables;
    - [`Treedec] — the Lemma 1 vtree of a heuristic tree decomposition
      of the circuit's gate graph (see {!treedec_vtree});
    - [`Search] — compile the [`Treedec], [`Balanced] and [`Right]
      candidates in parallel and keep the smallest SDD (deterministic:
      first minimum in that order, independent of [domains]).  Under a
      node-capped budget each candidate receives an equal share of the
      cap and tripped candidates are dropped individually;
    - [`Pinned vt] — exactly [vt] (it must cover the circuit's
      variables), with no fallback rung: a budget trip on it is an
      [Error].  The [`Obdd] backend right-linearizes it over its leaf
      order. *)

type result = {
  manager : Sdd.manager;
      (** Holds the compiled SDD.  Returned with an unlimited budget
          installed — the compile's budget does not outlive the
          compile; reinstall one with [Sdd.set_budget] if needed. *)
  root : Sdd.t;
      (** The compiled circuit: a canonical SDD (on a right-linear
          vtree, i.e. an OBDD, under [`Obdd]). *)
  strategy : vtree_strategy;
      (** The rung that actually produced the SDD — the requested
          strategy, or a lower one after degradation. *)
  backend : Backend.resolved;
      (** The backend that compiled the circuit — the requested one, or
          what [`Auto] resolved to. *)
  backend_reason : string;
      (** Why that backend was chosen (["requested"] for explicit
          tags). *)
  degraded : Budget.reason option;
      (** [None] for an unconstrained run.  [Some r] when the budget
          tripped along the way (a ladder step-down, or a minimization
          cut short) — the result is still a valid SDD of the input,
          just not the one an unbounded run would pick. *)
  minimize_steps : int;
      (** Improving moves taken by the minimization pass (0 when
          [minimize] was off). *)
}

val treedec_vtree : ?budget:Budget.t -> Circuit.t -> Vtree.t * int
(** The Lemma 1 vtree of the circuit ({!Lemma1.vtree_of_decomposition})
    built from the heuristic decomposition of its gate graph
    ({!Circuit.treewidth_upper}), with the width of that decomposition.
    [budget] is polled during the treewidth heuristics — on fill-heavy
    gate graphs they dominate a budgeted compile otherwise.
    @raise Budget.Exhausted on a trip. *)

val compile :
  ?budget:Budget.t ->
  ?vtree_strategy:vtree_strategy ->
  ?backend:Backend.tag ->
  ?minimize:bool ->
  ?domains:int ->
  ?compact_every:int ->
  Circuit.t ->
  (result, Ctwsdd_error.t) Stdlib.result
(** [compile c] builds the compiled form of [c] in a fresh manager.
    Defaults: [budget = Budget.unlimited], [vtree_strategy = `Treedec],
    [backend = `Sdd], [minimize = false].  [backend] selects the
    compilation target (see {!Backend}): [`Sdd] (canonical SDD, the
    historical behaviour), [`Obdd] (right-linear specialization — the
    ladder's vtrees contribute their variable order) or [`Auto]
    (resolved per workload; the choice and reason land in
    {!result.backend} / {!result.backend_reason}).  [minimize] requires
    the [`Sdd] backend ([Error (Invalid_input _)] otherwise — dynamic
    vtree edits would leave the OBDD's right-linear shape).  When
    [minimize] is set, the result is post-processed with
    {!Vtree_search.minimize_manager} at its default step limit, mutating
    the returned manager's vtree in place; under a budget the pass is
    anytime.  [domains] bounds the parallelism of the [`Search] strategy
    (default {!Obs.Worker.default_domains}).  [compact_every] arms the
    manager's generational compaction (see {!Sdd.manager}): the compile
    loop then reclaims dead apply intermediates at gate boundaries.

    [Error (Invalid_input _)] on a constant circuit (no variables —
    there is no vtree to build; callers should special-case constants);
    [Error (Timeout | Node_limit | Memory_limit | Cancelled)] only when
    even the last ladder rung tripped the budget.  A budget trip that a
    step-down absorbed is reported as [Ok] with {!result.degraded}
    set. *)

(** {1 SAT-scale CNF compilation}

    DIMACS inputs go through a dedicated path that scales past the
    circuit pipeline: count-preserving preprocessing
    ({!Cnf_preprocess.run}), connected-component decomposition of the
    primal graph ({!Cnf_preprocess.split}) with components compiled {e in
    parallel} on OCaml domains — each under an equal share of the node
    budget — and, within a component, one build: a fold along a tree
    decomposition of the component's primal graph.  Each bag, bottom-up,
    conjoins the clauses it hosts and joins them with its children's
    results, so every intermediate SDD covers one bag's subtree only.
    The fold runs on the Lemma 1 vtree of that decomposition, and a
    budget trip is the error.  The same fold on the right-linear vtree
    fit 4 of the 1,032 trips it was tried on (0.4%, below the 10%
    threshold; seeded k-tree CNFs, measured as for the circuit
    ladders), so the component has no lower rung. *)

type cnf_component = {
  k_manager : Sdd.manager;  (** Unlimited budget installed on return. *)
  k_root : Sdd.t;
  k_vars : int;
  k_clauses : int;
  k_count : Bigint.t;  (** Model count over the component's variables. *)
  k_size : int;
}

type cnf_result = {
  count : Bigint.t;
      (** Exact model count over the {e original} variable set:
          product of component counts × 2^free (free and forced
          variables from preprocessing are folded in). *)
  components : cnf_component list;
      (** Ordered by smallest original variable; empty iff the CNF is
          unsatisfiable or has no clauses left after preprocessing. *)
  free_vars : int;
  forced_vars : int;  (** Variables fixed by unit propagation. *)
  preprocessed : bool;
  cnf_backend : Backend.resolved;
      (** Backend that compiled every component ([`Auto] resolves to
          [`Sdd]). *)
  cnf_backend_reason : string;
  cnf_degraded : Budget.reason option;
      (** Always [None]: a component has no lower rung to degrade to, so
          a trip is an [Error].  Kept only because the benchmark program
          matches on it; it goes with the next change to the
          benchmark. *)
}

val compile_cnf :
  ?budget:Budget.t ->
  ?preprocess:bool ->
  ?backend:Backend.tag ->
  ?domains:int ->
  ?compact_every:int ->
  Dimacs.t ->
  (cnf_result, Ctwsdd_error.t) Stdlib.result
(** [compile_cnf d] compiles each connected component of [d] and
    multiplies the exact model counts.  Defaults:
    [budget = Budget.unlimited], [preprocess = true] (count-preserving
    level — pure-literal elimination is {e not} applied),
    [backend = `Sdd], [domains = min components
    (Obs.Worker.default_domains ())].  [backend] selects the
    per-component compilation target; [`Auto] resolves to [`Sdd], on
    the decomposition vtree the fold follows.
    {!conjoin_components} re-canonicalizes on import, so it is sound
    for either backend.  The budget's node allowance is
    split equally across components ({!Budget.split_nodes}); shared
    resources (clock, cancellation, memory) are polled by all.

    Per-component observability: spans and events carry the run id
    [<run>/c<seq>/k<i>], the [cnf.components] counter and
    [cnf.component_size] histogram are recorded, and each component
    emits a [pipeline.component] event.

    [Error _] when any component trips the budget: the component
    compiles on the Lemma 1 vtree only, so nothing absorbs a trip.
    [compact_every] arms generational
    compaction in every per-component manager; the fold then reclaims
    dead apply intermediates between bags. *)

val conjoin_components : cnf_result -> (Sdd.manager * Sdd.t) option
(** One manager holding the conjunction of all component SDDs, built by
    composing the component vtrees ({!Vtree.of_forest}) and importing
    each root ({!Sdd.import}) — the SDD of the whole CNF over the
    non-free variables.  [None] when there are no components (for an
    unsatisfiable input the caller can use [Sdd.false_] in any manager;
    for a clause-free input, [Sdd.true_]). *)

val compile_exn :
  ?budget:Budget.t ->
  ?vtree_strategy:vtree_strategy ->
  ?minimize:bool ->
  ?domains:int ->
  ?backend:Backend.tag ->
  ?compact_every:int ->
  Circuit.t ->
  Sdd.manager * Sdd.t
(** {!compile} with the historical signature.
    @raise Invalid_argument on a constant circuit.
    @raise Budget.Exhausted on any budget trip, degraded or not. *)
