(** Tuple-independent probabilistic databases.

    A database is a finite set of facts, each carrying an independent
    probability of being present.  Each fact doubles as a Boolean
    variable of query lineages; {!var_name} fixes the naming scheme. *)

type tuple = { rel : string; args : string list }

type t = {
  facts : tuple list;
  prob : tuple -> Ratio.t;  (** probability of each fact *)
}

val tuple : string -> string list -> tuple

val var_name : tuple -> string
(** ["R(a,b)"] — the lineage variable of the fact. *)

val tuple_of_var : string -> tuple
(** Inverse of {!var_name}.  @raise Invalid_argument on bad syntax. *)

val make : (tuple * Ratio.t) list -> t
(** @raise Invalid_argument on duplicate facts or on a probability
    outside [\[0, 1\]]. *)

val uniform : Ratio.t -> tuple list -> t

val index : ('a -> string) -> 'a list -> string -> 'a list
(** [index key items] groups the items by [key] in one pass (say, facts
    by relation); the returned lookup gives a key's items in list order
    ([[]] for a key without any). *)

val active_domain : t -> string list

val subdatabases : t -> tuple list list
(** All subsets of facts (2^|D|; small databases only). *)

val prob_of_subset : t -> tuple list -> Ratio.t
(** Probability that exactly this subset of facts is present. *)

(** {1 Generators for the experiments} *)

val complete_rst : int -> t
(** Facts R(i), S(i,j), T(j) for i,j ∈ [n], all with probability 1/2 —
    the database family of the Jha–Suciu hardness construction for the
    non-hierarchical query R(x),S(x,y),T(y). *)

val chain_database : k:int -> int -> t
(** Facts R(i), S1(i,j), ..., Sk(i,j), T(j) for i,j ∈ [n] (probability
    1/2): the inversion-of-length-k workloads. *)

val pp_tuple : Format.formatter -> tuple -> unit
val pp : Format.formatter -> t -> unit
