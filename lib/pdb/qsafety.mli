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

(** {1 Elimination plans}

    The recursion the lineage builder and the hierarchical order share:
    split a conjunct into components by shared variables, eliminate one
    variable per component, and split again.  It depends only on the
    query, since a constant joins nothing. *)

type candidate = { args : string array; name : string }
(** A fact an atom may still match, with its lineage variable. *)

val named : Pdb.tuple list -> (string * candidate) list
(** Each fact with its relation, named once ({!Pdb.var_name}). *)

val candidates : (string * candidate) list -> Ucq.atom -> candidate list
(** [candidates named] indexes the named facts by relation
    ({!Pdb.index}); the lookup gives an atom's facts of its relation and
    arity that match its constants, in fact order. *)

type plan =
  | Ground of { atoms : int list; neqs : (Ucq.term * Ucq.term) list }
      (** A component without variables left: its atoms (numbered by
          their position in the conjunct) and inequalities are ground
          under the variables fixed above. *)
  | Root of {
      var : string;
      atoms : int list;  (** every atom of the component *)
      keyed : (int * int list) list;
          (** the atoms holding [var], with its positions *)
      subs : plan list;  (** the components once [var] is fixed *)
    }
      (** A connected component eliminating [var], the variable in the
          most atoms (the first in sorted order on a tie): the root, for
          hierarchical conjuncts. *)

val plan : Ucq.cq -> plan list
(** The conjunct's components, atoms and inequalities together.
    @raise Invalid_argument if an inequality mentions a variable bound
    by no atom. *)

val split_at : int list -> candidate list -> (string, candidate list) Hashtbl.t
(** [split_at pos cands] groups the candidates by the constant at the
    positions [pos] (non-empty), dropping those that carry different
    constants there; each bucket keeps fact order. *)

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
