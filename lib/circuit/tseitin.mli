(** Tseitin transformation of circuits to CNF.

    This is the route taken by Petke and Razgon (bound (3) of the paper):
    the Tseitin CNF [T(X, Z)] of a circuit [C(X)] introduces one fresh
    variable per gate and satisfies [C(X) ≡ ∃Z. T(X, Z)].  Its treewidth
    is linearly related to the circuit's.  We implement it both to test
    that relationship and to contrast the paper's direct compilation
    (whose size depends on [n], not on [|C|]). *)

type clause = (string * bool) list
(** Literals as (variable, polarity). *)

type cnf = { clauses : clause list; gate_vars : string list }

val transform : Circuit.t -> cnf
(** Gate variable for gate [i] is ["_g<i>"]; the output gate is asserted. *)

val to_circuit : cnf -> Circuit.t

val projected_models_agree : Circuit.t -> cnf -> bool
(** Checks [C(X) ≡ ∃Z. T(X,Z)] extensionally (small circuits only). *)
