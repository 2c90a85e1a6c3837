(** Knowledge-compilation-map queries over SDDs (Darwiche & Marquis).

    SDDs support, in polynomial time, the standard query suite: (weighted)
    model counting (in {!Sdd}), consistency, validity, clausal entailment,
    implicant checking, equivalence, and model enumeration.  These
    operations are what make compiling worthwhile: each is a short
    derivative of apply + canonicity. *)

val consistent : Sdd.manager -> Sdd.t -> bool
(** CO: satisfiability — constant time thanks to canonicity. *)

val valid : Sdd.manager -> Sdd.t -> bool
(** VA. *)

val entails : Sdd.manager -> Sdd.t -> Sdd.t -> bool
(** SE: [entails m f g] iff every model of [f] satisfies [g]. *)

val equivalent : Sdd.manager -> Sdd.t -> Sdd.t -> bool
(** EQ — constant time (canonicity). *)

val clause_entailed : Sdd.manager -> Sdd.t -> (string * bool) list -> bool
(** CE: the clause (disjunction of literals) is entailed. *)

val implicant : Sdd.manager -> Sdd.t -> (string * bool) list -> bool
(** IM: the term (conjunction of literals) implies the function. *)

val forget : Sdd.manager -> string list -> Sdd.t -> Sdd.t
(** FO: existential quantification of the given variables. *)

val models : ?limit:int -> Sdd.manager -> Sdd.t -> (string * bool) list list
(** ME: up to [limit] (default 64) total models over the vtree
    variables, lexicographically by the vtree's left-to-right variable
    order. *)

val restrict_term : Sdd.manager -> Sdd.t -> (string * bool) list -> Sdd.t
(** Condition on a term (iterated {!Sdd.condition}). *)
