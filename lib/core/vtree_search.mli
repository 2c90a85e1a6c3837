(** Vtree search by greedy local moves (rotations and swaps).

    The paper credits SDD compilers' practical succinctness to "the
    additional flexibility offered by variable trees compared to variable
    orders" [8, 26].  This module quantifies that flexibility: starting
    from any vtree, hill-climb through single rotations/swaps minimizing
    a score (SDD size by default).  Greedy and exact only in the limit —
    the ablation experiment compares it against the fixed constructions
    (right-linear, balanced, Lemma 1).

    {2 Parallelism}

    Candidate scoring and restarts fan out over OCaml domains.  Every
    entry point takes [?domains] (total worker budget, 1 = sequential);
    the default is the [CTWSDD_DOMAINS] environment variable when set to
    a positive integer, otherwise [Domain.recommended_domain_count ()].
    The search result is deterministic: candidates are scored in
    parallel but selected sequentially in move order, so any [domains]
    value returns the same vtree and score.  Worker metrics are merged
    into the calling domain via {!Obs.Worker}.

    {2 Anytime operation}

    Every search takes [?budget] (default {!Budget.unlimited}) and is
    {e anytime}: on a budget trip the climb stops cleanly at the last
    fully scored vtree and returns it with the {!anytime.degraded} flag
    set, never an exception.  Node-cap budgets degrade deterministically
    — the same budget yields the same degraded result for any [domains].
    The [*_exn] variants restore the historical raising signatures
    ([Budget.Exhausted] on degradation, which cannot happen with the
    default unlimited budget). *)

type 'a anytime = {
  best : 'a;  (** Best candidate found before the stop. *)
  score : int;
      (** Score of [best]; [max_int] in the corner case where the budget
          tripped before even the starting point was scored. *)
  steps : int;  (** Improving moves taken. *)
  degraded : Budget.reason option;
      (** [None]: ran to a local minimum (or [max_steps]).  [Some r]:
          the budget tripped and [best] is the best-so-far. *)
}
(** Result of an anytime search. *)

val minimize :
  ?budget:Budget.t ->
  ?max_steps:int ->
  ?domains:int ->
  ?cache_cap:int ->
  score:(Vtree.t -> int) ->
  Vtree.t ->
  Vtree.t anytime
(** Greedy steepest-descent over {!Vtree.local_moves}; stops at a local
    minimum, after [max_steps] (default 50) improving moves, or on a
    budget trip ([budget] is checked at step boundaries, and a
    [Budget.Exhausted] escaping [score] — e.g. from a budgeted manager
    inside {!sdd_size_score} — is absorbed the same way).  Scores of
    visited vtrees are cached per climb (keyed by {!Vtree.fingerprint},
    bounded by [cache_cap], default 8192 entries, FIFO eviction), so
    [score] must be deterministic; candidate scoring runs across
    [domains] domains. *)

val minimize_exn :
  ?budget:Budget.t ->
  ?max_steps:int ->
  ?domains:int ->
  ?cache_cap:int ->
  score:(Vtree.t -> int) ->
  Vtree.t ->
  Vtree.t * int
(** {!minimize} with the historical signature.
    @raise Budget.Exhausted on degradation. *)

val minimize_manager :
  ?budget:Budget.t ->
  ?max_steps:int ->
  ?cache_cap:int ->
  Sdd.manager ->
  Sdd.t ->
  Sdd.t anytime
(** The in-manager backend of {!minimize}: hill-climbs by applying each
    candidate move to the live manager with {!Sdd.apply_move}, reading
    {!Sdd.size} from the forwarded root, and reverting via
    {!Vtree.inverse_move} — no recompilation, no truth tables.
    Candidates come from {!Vtree.local_moves_with} in the
    {!Vtree.local_moves} order and the selection rule is the one used by
    {!minimize}, so for [score = sdd_size_score f] both backends follow
    the same trajectory and return the same final size (canonicity makes
    the per-candidate scores equal).  Mutates the manager's vtree and
    invalidates outstanding handles; returns the forwarded root and its
    size.  Sequential ([?domains] does not apply: edits share the
    manager).

    [budget] defaults to the manager's own budget and stays installed
    on the manager for the climb, so every edit polls it from inside
    the rebuild — {!Sdd.apply_move} is transactional and rolls back on
    a trip, which bounds the latency of a single candidate (a rotation
    on an adversarial SDD can blow up otherwise).  Candidate
    boundaries additionally check the allocated-node count.  Whatever
    the trip reason, the manager stays valid and [anytime.best]
    denotes the same function as the input root. *)

val minimize_manager_exn :
  ?budget:Budget.t ->
  ?max_steps:int ->
  ?cache_cap:int ->
  Sdd.manager ->
  Sdd.t ->
  Sdd.t * int
(** {!minimize_manager} with the historical signature.
    @raise Budget.Exhausted on degradation. *)

val sdd_size_score : ?budget:Budget.t -> Boolfun.t -> Vtree.t -> int
(** Size of the canonical SDD of the function for the vtree, compiled in
    a fresh manager carrying [budget] (so a node cap bounds each
    candidate compilation individually). *)

val sdw_score : ?budget:Budget.t -> Boolfun.t -> Vtree.t -> int
(** SDD width (Definition 5) of the function for the vtree. *)

val fw_score : Boolfun.t -> Vtree.t -> int
(** Factor width (Definition 2). *)

val minimize_sdd_size :
  ?budget:Budget.t ->
  ?max_steps:int ->
  ?domains:int ->
  ?cache_cap:int ->
  Boolfun.t ->
  Vtree.t ->
  Vtree.t anytime

val minimize_sdd_size_exn :
  ?budget:Budget.t ->
  ?max_steps:int ->
  ?domains:int ->
  ?cache_cap:int ->
  Boolfun.t ->
  Vtree.t ->
  Vtree.t * int

val best_known :
  ?budget:Budget.t ->
  ?max_steps:int ->
  ?domains:int ->
  Boolfun.t ->
  (Vtree.t anytime, Ctwsdd_error.t) result
(** Best SDD size over hill climbs started from the right-linear,
    balanced and two random vtrees of the function's variables.
    Restarts run in parallel (outer level), with remaining domain budget
    given to candidate scoring inside each climb; the result is
    identical for every [domains] value.  The aggregate is degraded as
    soon as any climb was; [Error (Invalid_input _)] on a constant
    function. *)

val best_known_exn :
  ?budget:Budget.t -> ?max_steps:int -> ?domains:int -> Boolfun.t -> Vtree.t * int
(** {!best_known} with the historical signature.
    @raise Invalid_argument on a constant function.
    @raise Budget.Exhausted on degradation. *)
