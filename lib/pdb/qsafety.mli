(** Syntactic safety analysis of queries.

    Hierarchical queries (Dalvi–Suciu): for every pair of variables of a
    conjunct, the sets of atoms containing them are comparable or
    disjoint.  For self-join-free conjunctive queries, hierarchical =
    safe = inversion-free, and the lineages compile to constant-width
    OBDDs under a hierarchical variable order; a non-hierarchical pair
    [R(x), S(x,y), T(y)] is exactly an inversion of length 1 (the
    building block of the paper's Theorem 5 workloads). *)

val atoms_of_var : Ucq.cq -> string -> int list
(** Indices of the atoms containing the variable. *)

val hierarchical_cq : Ucq.cq -> bool
val hierarchical : Ucq.t -> bool
(** Every conjunct is hierarchical. *)

val inversion_free : Ucq.t -> bool
(** Inversion-freeness surrogate implemented here: the query is a union
    of hierarchical, self-join-free conjuncts (exact for the query
    families used in the experiments; the full Dalvi–Suciu inversion test
    also tracks unification across conjuncts). *)

val witness_non_hierarchical : Ucq.cq -> (string * string) option
(** A pair of variables violating the hierarchy condition, if any. *)

val components : Ucq.atom list -> Ucq.atom list list
(** Connected components of atoms under shared variables. *)

val substitute : string -> string -> Ucq.atom -> Ucq.atom
(** [substitute x c atom] replaces the variable by the constant. *)

val hierarchical_variable_order : Ucq.cq -> Pdb.t -> string list option
(** For a hierarchical self-join-free conjunct: a lineage-variable order
    grouping facts by the root variable's values, under which the OBDD of
    the lineage has constant width, followed by the facts outside it,
    sorted.  [None] for non-hierarchical conjuncts.

    Cost: linear in the facts times the query depth (plus sorting the
    constants met at each level).  Each atom starts from the facts of
    its relation and arity that match its constants, each fact named
    once; each level splits every atom's facts in one pass by the
    constant at the root variable and recurses only on constants that
    occur there. *)
