(** Semantic Boolean functions, truth-table backed.

    A value of type {!t} is a total Boolean function over a finite, sorted
    set of named variables, represented extensionally by its truth table.
    All notions of Section 3 of the paper — cofactors, factors
    (Definition 1), factor width — are computed exactly on this
    representation.  Practical up to roughly 22 variables.

    Binary operations automatically lift both operands to the union of
    their variable sets, so e.g. [or_ (var "x") (var "y")] is the function
    x ∨ y over {x, y}. *)

type t

module Smap : Map.S with type key = string

type assignment = bool Smap.t

(** {1 Construction} *)

val const : string list -> bool -> t
(** Constant function over the given variable set (duplicates removed). *)

val tt : t
(** The constant true function over the empty variable set. *)

val ff : t
(** The constant false function over the empty variable set. *)

val var : string -> t
(** The identity function over the single variable. *)

val of_fun : string list -> (assignment -> bool) -> t
(** [of_fun vars f] tabulates [f] over all assignments of [vars]. *)

val of_fun_index : string list -> (int -> bool) -> t
(** Like {!of_fun}, but the callback receives the assignment {e index}
    directly: bit [j] of the index is the value of the [j]-th variable in
    the sorted order of [vars].  The allocation-free tabulation path for
    hot loops. *)

val of_models : string list -> assignment list -> t
(** Function true exactly on the listed assignments (restricted to
    [vars]; the models must assign every variable of [vars]). *)

val random : seed:int -> string list -> t
(** Uniformly random function over the variable set (deterministic in
    [seed]). *)

(** {1 Connectives} *)

val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val xor_ : t -> t -> t
val implies : t -> t -> t
val iff : t -> t -> t
val and_list : t list -> t
val or_list : t list -> t

(** {1 Inspection} *)

val variables : t -> string list
(** Sorted list of variables. *)

val num_vars : t -> int
val eval : t -> assignment -> bool
(** @raise Not_found if the assignment misses a variable of the function. *)

val eval_index : t -> int -> bool
(** [eval_index f i] is entry [i] of the truth table: the value of [f]
    on the assignment where bit [j] of [i] is the value of the [j]-th
    variable in the sorted order of [variables f].  O(1); the indexed
    counterpart of {!eval} for loops that would otherwise allocate an
    {!assignment} per iteration. *)

val is_const : t -> bool option
(** [Some b] if the function is constantly [b], [None] otherwise. *)

val equal : t -> t -> bool
(** Semantic equality: both functions are lifted to the union of their
    variable sets and compared extensionally. *)

val equal_strict : t -> t -> bool
(** Equality as functions over identical variable sets (false if the
    variable sets differ). *)

val compare_strict : t -> t -> int
(** Total order compatible with {!equal_strict} (for use in sets/maps). *)

val hash : t -> int

val count_models : t -> Bigint.t
val count_models_int : t -> int
val models : t -> assignment list
(** All satisfying assignments (use only for small functions). *)

val any_model : t -> assignment option
(** Some satisfying assignment, or [None] for the unsatisfiable function. *)

val depends_on : t -> string -> bool
(** True if flipping the variable can change the value. *)

val support : t -> string list
(** Variables the function semantically depends on. *)

(** {1 Variable manipulation} *)

val lift : t -> string list -> t
(** [lift f vars] views [f] as a function over [variables f ∪ vars]. *)

val restrict : t -> (string * bool) list -> t
(** Substitutes constants for variables and removes them from the
    variable set: the {e cofactor} of [f] induced by the partial
    assignment.  Variables not present are ignored. *)

val cofactor : t -> assignment -> t
(** Same as {!restrict}, from a map. *)

val exists_ : string -> t -> t
val forall : string -> t -> t
val rename : t -> (string * string) list -> t
(** Renames variables.  @raise Invalid_argument if the renaming causes a
    collision. *)

(** {1 Cofactors and factors (paper, Section 3.1)} *)

val cofactors_relative : t -> string list -> t list
(** [cofactors_relative f y] is the list of distinct cofactors of [f]
    relative to [variables f \ y], i.e. the distinct functions
    [F(b, X\Y)] as [b] ranges over the assignments of [Y ∩ X]
    (paper, Section 3.1).  Deterministic order. *)

val factors : t -> string list -> (t * t) list
(** [factors f y] is the list of pairs [(g, f')] where [g] is a factor of
    [f] relative to [y] (a function over [Y ∩ X], Definition 1) and [f']
    the corresponding cofactor over [X \ Y].  The [g]s partition the
    assignment space of [Y ∩ X] (eq. 10 of the paper). *)

val num_factors : t -> string list -> int
(** [List.length (factors f y)], computed without materializing models. *)

val factor_ids : t -> string list -> string array * int array * int array
(** [factor_ids f y] is [(yvars, ids, reps)]: the sorted array of
    [Y ∩ X] variables, the map from assignment indices over those
    variables to factor indices, and for each factor a representative
    assignment index — the partition data of {!factors} without
    materializing the factor functions (linear in the truth table even
    when there are exponentially many factors). *)

val factors_indexed : t -> string list -> (t * t) list * string array * int array
(** Like {!factors}, additionally returning the sorted array of
    [Y ∩ X] variables and the map from assignment indices over those
    variables (bit [j] of the index is the value of variable [j]) to the
    position of the containing factor in the list. *)

(** {1 Assignments} *)

val assignment_of_list : (string * bool) list -> assignment
val all_assignments : string list -> assignment list

(** {1 OBDD oracle} *)

val obdd_profile : t -> string list -> (string * int) list
(** [obdd_profile f order]: the number of nodes per level of the reduced
    OBDD of [f] under [order] (first = topmost), read off the truth
    table: level [i] holds one node per distinct cofactor of [f] over
    the prefix [x_1 .. x_(i-1)] that depends on [x_i] (Sieling and
    Wegener).  Shares no code with any apply, so it serves as an
    independent oracle for compiled OBDDs.  [order] must list every
    variable of [f]; exponential in their number. *)

(** {1 Formatting} *)

val pp : Format.formatter -> t -> unit
(** Prints the variable set and, for small functions, the minterms. *)

val to_string : t -> string
