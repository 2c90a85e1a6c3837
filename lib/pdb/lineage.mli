(** Query lineage (paper, Sections 1 and 4).

    The lineage [L(Q, D)] of a Boolean query over a database is the
    monotone Boolean function over the facts of [D] accepting exactly the
    subdatabases satisfying [Q].  It is produced here as a circuit — the
    form in which lineages arrive in practice (provenance circuits) —
    factored by two rules that hold for every UCQ(≠):

    - the lineage of [∃x φ] is the OR, over the constants [a] the
      database offers for [x], of the lineage of [φ\[a/x\]];
    - the lineage of a conjunction of variable-disjoint parts is the AND
      of their lineages.

    Each conjunct is split into components by shared variables, and each
    component eliminates the variable occurring in the most atoms
    ({!Qsafety.plan}); a component with an atom that no fact matches is
    false before any fact is named.  Theorem 3 bounds the SDD by the
    circuit's treewidth, so the form matters: for self-join-free
    hierarchical conjuncts it is the read-once form (every fact feeds
    one gate), where a DNF of the groundings has growing treewidth. *)

val circuit : Ucq.t -> Pdb.t -> Circuit.t
(** The lineage circuit over variables [Pdb.var_name fact]: exactly the
    facts that occur in some match of the query.  Cost: one pass naming
    the facts; then, for hierarchical conjuncts, linear in the facts
    times the query's depth, plus sorting the constants met at each
    level.  Elsewhere an atom's facts are split again for every constant
    of each enclosing variable the atom does not hold.
    @raise Invalid_argument if an inequality mentions a variable that no
    atom of its conjunct binds. *)

val boolfun : Ucq.t -> Pdb.t -> Boolfun.t
(** Tabulated lineage, over the variables of all facts of [D] (small
    databases only). *)

val brute_force : Ucq.t -> Pdb.t -> Boolfun.t
(** Independent reference implementation: evaluates [Q] on every
    subdatabase (exponential; validation only). *)

val variables : Pdb.t -> string list
(** The lineage variables of the database's facts, sorted. *)
