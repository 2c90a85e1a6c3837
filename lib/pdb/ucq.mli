(** Unions of conjunctive queries, with and without inequalities
    (paper, Section 4).

    A Boolean UCQ(≠) is a disjunction of existentially closed
    conjunctions of relational atoms and inequalities between variables.
    Concrete syntax accepted by {!of_string}:

    {v R(x), S(x,y), T(y) | R(x), x != y, S(y,x) v}

    Lower-case identifiers are variables; identifiers starting with a
    digit or quote-free capitals inside atoms are treated as variables
    too — constants are written ['a] with a leading ['#'], e.g. [#1]. *)

type term = Var of string | Const of string

type atom = { rel : string; args : term list }

type cq = {
  atoms : atom list;
  neqs : (term * term) list;  (** inequalities [t ≠ t'] *)
}

type t = cq list  (** disjunction *)

val cq_variables : cq -> string list
val variables : t -> string list
val relations : t -> (string * int) list
(** Relation symbols with arities.
    @raise Invalid_argument on inconsistent arities. *)

val has_inequalities : t -> bool
val has_self_join : cq -> bool
(** Two atoms share a relation symbol. *)

(** {1 Parsing and printing} *)

val of_string : string -> t
(** @raise Invalid_argument on syntax errors. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** {1 Semantics} *)

val holds : t -> Pdb.tuple list -> bool
(** [holds q facts]: the Boolean query is true on the set of facts (the
    active domain is the constants of the facts). *)

val matchings : cq -> Pdb.tuple list -> (string * string) list list
(** All satisfying assignments (variable, constant) of the conjunct
    against the fact set; [holds] asks whether there is one.
    @raise Invalid_argument if an inequality mentions a variable bound by
    no atom. *)
