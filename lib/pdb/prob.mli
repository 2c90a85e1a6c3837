(** Probabilistic query evaluation through compiled lineages.

    The query-compilation pipeline of the paper's introduction: build the
    lineage circuit, compile it into a tractable form (OBDD or SDD), then
    read the probability off the compiled form in linear time.  A
    brute-force evaluator over subdatabases serves as ground truth.

    The SDD-backed evaluators take a {!Budget.t} and degrade through
    {!Pipeline.compile}'s ladder; results are reported through
    {!answer}, failures through {!Ctwsdd_error.t}.  The [*_exn] variants
    keep the historical raising tuple signatures. *)

type answer = {
  probability : Ratio.t;  (** Exact query probability. *)
  size : int;
      (** Size of the compiled representation (0 for a constant
          lineage, which needs no manager). *)
  backend : Backend.resolved;
      (** The backend that compiled the lineage — the requested one, or
          what [`Auto] resolved to from the query's safety level. *)
  degraded : Budget.reason option;
      (** Set when a budget trip forced a strategy step-down or cut a
          minimization short; the probability is still exact — only the
          compiled form is larger than an unbounded run's. *)
}

val brute : Ucq.t -> Pdb.t -> Ratio.t
(** Exact probability by enumerating subdatabases (2^|D|). *)

val via_obdd : Ucq.t -> Pdb.t -> (answer, Ctwsdd_error.t) result
(** {!via} with [~backend:`Obdd] on the right-linear vtree of the
    hierarchical variable order when the query is a hierarchical CQ,
    else of the sorted database variables: the arena OBDD
    ({!Sdd.Obdd}), unbudgeted.  The answer's [size] is {!Sdd.size},
    the same convention as every other backend (use
    {!Sdd.Obdd.size} for the decision-node count).  Unlike {!via} it
    leaves {!Backend.last_selection} alone, so it can cross-check
    another run.  A constant lineage (e.g. an empty database) returns
    size 0. *)

val via :
  ?budget:Budget.t ->
  ?vtree:Vtree.t ->
  ?minimize:bool ->
  ?compact_every:int ->
  ?backend:Backend.tag ->
  Ucq.t ->
  Pdb.t ->
  (answer, Ctwsdd_error.t) result
(** Evaluate through the backend-agnostic pipeline ({!Backend}).
    Default [backend = `Sdd]: inversion-free queries are compiled with
    {!Pipeline.compile} on a treewidth-derived vtree ([`Treedec]) — the
    paper's pipeline, exponentially better than a balanced vtree on
    bounded-treewidth lineages; queries with inversions keep the
    balanced vtree (their lineage treewidth grows, and the Lemma 1
    vtree degrades apply compilation there).  [`Auto] resolves from the
    query's safety level: hierarchical single-CQ queries compile to an
    OBDD on the hierarchical variable order
    ({!Qsafety.hierarchical_variable_order}), the rest as [`Sdd] does;
    the choice is recorded ({!Backend.last_selection}) and reported in
    {!answer.backend}.  [`Dnnf] is the counting-only non-canonical
    arena ({!Sdd.dnnf_manager}).  An explicit [vtree] is compiled as
    {!Pipeline.compile}'s [`Pinned] strategy, a ladder of one rung: a
    budget trip is then an [Error].  [minimize] runs the in-manager
    dynamic vtree search after compilation — anytime under a budget —
    and requires the [`Sdd] backend ([Error (Invalid_input _)]
    otherwise).  [compact_every] arms generational arena compaction on
    the compile's manager(s), as on {!Pipeline.compile}.  Constant
    lineages (no variables) return size 0 without building a
    manager. *)

val via_obdd_exn : Ucq.t -> Pdb.t -> Ratio.t * int
(** {!via_obdd} with the historical signature. *)

val via_exn :
  ?budget:Budget.t ->
  ?vtree:Vtree.t ->
  ?minimize:bool ->
  ?compact_every:int ->
  ?backend:Backend.tag ->
  Ucq.t ->
  Pdb.t ->
  Ratio.t * int
(** {!via} returning [(probability, size)].
    @raise Budget.Exhausted on any budget trip, degraded or not. *)
