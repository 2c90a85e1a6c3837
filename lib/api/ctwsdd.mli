(** The supported public surface of the library.

    Everything here is result-typed and budget-aware: pass a
    {!Budget.t} (wall-clock deadline, SDD node cap, heap watermark,
    cancellation token) and the engine either finishes, degrades
    gracefully (reported in the result), or returns a structured
    {!Error.t} — it never runs away and never dies with a backtrace on
    declared failure modes.

    {[
      let budget = Budget.create ~timeout:2.0 ~max_nodes:50_000 () in
      match Ctwsdd.compile ~budget ~vtree_strategy:`Search ~minimize:true c with
      | Ok { manager; root; degraded = None; _ } -> (* the full result *)
      | Ok { manager; root; degraded = Some r; _ } ->
        (* anytime: a valid SDD of [c], found within the budget *)
      | Error e -> prerr_endline (Ctwsdd.Error.to_string e)
    ]}

    Lower-level modules ([Sdd], [Vtree], [Boolfun], ...) remain
    available but their raising conventions are only normalized, not
    wrapped. *)

module Error = Ctwsdd_error
(** Structured errors: [Timeout | Node_limit | Memory_limit | Cancelled
    | Invalid_input of string], with {!Ctwsdd_error.exit_code} giving
    the CLI contract (3/4/5/6/7). *)

module Budget = Budget
(** Re-export of the resource-governance layer ({!Budget.create},
    {!Budget.cancel_now}, ...). *)

val compile :
  ?budget:Budget.t ->
  ?vtree_strategy:Pipeline.vtree_strategy ->
  ?backend:Backend.tag ->
  ?minimize:bool ->
  ?max_steps:int ->
  ?domains:int ->
  ?compact_every:int ->
  Circuit.t ->
  (Pipeline.result, Error.t) result
(** Compile a circuit — {!Pipeline.compile}: vtree from the requested
    strategy, graceful degradation down the [`Search → `Treedec →
    `Balanced → `Right] ladder on budget trips (a [`Pinned] vtree has
    no ladder: a trip on it is the error), optional anytime
    in-manager minimization, optional generational arena compaction
    ([compact_every]).  [backend] picks the compilation target
    ({!Backend}): [`Sdd] (default, canonical SDD), [`Obdd]
    (right-linear specialization) or [`Auto] (per-workload; the choice
    lands in {!Pipeline.result.backend}). *)

val compile_cnf :
  ?budget:Budget.t ->
  ?preprocess:bool ->
  ?backend:Backend.tag ->
  ?domains:int ->
  ?compact_every:int ->
  Dimacs.t ->
  (Pipeline.cnf_result, Error.t) result
(** SAT-scale DIMACS compilation — {!Pipeline.compile_cnf}:
    count-preserving preprocessing, connected components of the primal
    graph compiled in parallel (each under a split budget share), and
    within each component a fold along its tree decomposition (one SDD
    per bag, joined bottom-up) on the Lemma 1 vtree, stepping down to
    the right-linear vtree on a budget trip.  The result carries the
    exact model count over the original variables and the
    per-component SDDs ({!Pipeline.conjoin_components} combines them
    into one manager when a single SDD is needed). *)

val conjoin_components : Pipeline.cnf_result -> (Sdd.manager * Sdd.t) option
(** See {!Pipeline.conjoin_components}. *)

val prob :
  ?budget:Budget.t ->
  ?vtree:Vtree.t ->
  ?minimize:bool ->
  ?compact_every:int ->
  ?backend:Backend.tag ->
  Ucq.t ->
  Pdb.t ->
  (Prob.answer, Error.t) result
(** Exact probability of a union of conjunctive queries over a
    tuple-independent database, via the compiled lineage —
    {!Prob.via}.  [backend] defaults to [`Sdd]; [`Auto] resolves from
    the query's safety level (hierarchical → OBDD, inversion-free →
    treewidth-derived SDD, otherwise balanced SDD) and reports the
    choice in {!Prob.answer.backend}. *)

val model_count :
  ?budget:Budget.t ->
  ?vtree_strategy:Pipeline.vtree_strategy ->
  ?domains:int ->
  ?compact_every:int ->
  ?backend:Backend.tag ->
  Circuit.t ->
  (Bigint.t, Error.t) result
(** Exact model count of a circuit over its own variables: the
    {!compile} result, counted.  [backend] defaults to [`Auto], resolved
    as {!compile} resolves it ({!Backend.last_selection} reports the
    choice).  Constant circuits count without building a manager.  A
    degraded (anytime) compile still yields the exact count — only its
    representation is larger. *)

val minimize :
  ?budget:Budget.t ->
  ?max_steps:int ->
  ?domains:int ->
  Boolfun.t ->
  Vtree.t ->
  (Vtree.t Vtree_search.anytime, Error.t) result
(** Anytime hill-climb minimizing SDD size over local vtree moves,
    starting from the given vtree — {!Vtree_search.minimize_sdd_size}. *)

val compile_exn :
  ?budget:Budget.t ->
  ?vtree_strategy:Pipeline.vtree_strategy ->
  ?minimize:bool ->
  ?max_steps:int ->
  ?domains:int ->
  ?backend:Backend.tag ->
  ?compact_every:int ->
  Circuit.t ->
  Sdd.manager * Sdd.t
(** Raising variant of {!compile} ({!Pipeline.compile_exn}). *)

val model_count_exn :
  ?budget:Budget.t ->
  ?vtree_strategy:Pipeline.vtree_strategy ->
  ?domains:int ->
  ?compact_every:int ->
  ?backend:Backend.tag ->
  Circuit.t ->
  Bigint.t
(** Raising variant of {!model_count}. *)

val prob_exn :
  ?budget:Budget.t ->
  ?vtree:Vtree.t ->
  ?minimize:bool ->
  ?compact_every:int ->
  ?backend:Backend.tag ->
  Ucq.t ->
  Pdb.t ->
  Ratio.t * int
(** Raising variant of {!prob} ({!Prob.via_exn}). *)

val minimize_exn :
  ?budget:Budget.t ->
  ?max_steps:int ->
  ?domains:int ->
  Boolfun.t ->
  Vtree.t ->
  Vtree.t * int
(** Raising variant of {!minimize}
    ({!Vtree_search.minimize_sdd_size_exn}). *)
