(** Backend-agnostic compilation interface.

    The paper is a {e panorama}: SDD, OBDD and structured-deterministic
    NNF classes related under circuit treewidth/pathwidth bounds
    (Figures 1–3).  This module is the engine-side counterpart — one
    first-class-module signature ({!S}) over the manager, compile,
    counting, exact WMC, size/width census and stats, with two
    implementations that differ only in the manager they create (and
    the width they report); everything else is the shared {!Sdd} code,
    and {!Sdd.conjoin} picks its apply from the manager's vtree:

    - [`Sdd] — a canonical manager on the strategy's vtree;
    - [`Obdd] — a canonical manager on the right-linear vtree of that
      vtree's leaf order ({!Sdd.Obdd}), where apply is the ITE
      recursion and the width is the OBDD width of the pathwidth
      claims.

    Both managers are canonical: handle equality is function equality.

    [`Auto] resolves a backend per workload (pathwidth-shaped inputs →
    OBDD, treewidth-bounded and CNF → SDD); every resolution is
    recorded as a [backend.selected] metrics event and kept for the run
    record ({!last_selection}). *)

type tag = [ `Sdd | `Obdd | `Auto ]
type resolved = [ `Sdd | `Obdd ]

val name : tag -> string
(** ["sdd"], ["obdd"], ["auto"]. *)

val resolved_name : resolved -> string

val of_string : string -> (tag, Ctwsdd_error.t) result
(** Parses a backend name.  The error is the normalized
    [Invalid_input "unknown backend …"] every surface (API, CLI) shares. *)

val of_string_exn : string -> tag
(** @raise Ctwsdd_error.Error with the normalized message. *)

val require_minimizable : resolved -> unit
(** Dynamic vtree minimization moves the vtree away from the
    right-linear shape an OBDD needs, so only [`Sdd] results can be
    minimized.
    @raise Invalid_argument for any other backend (an [Invalid_input]
    under {!Ctwsdd_error.guard}). *)

(** The backend signature.  Both implementations share
    {!Sdd.manager}/{!Sdd.t} (an OBDD {e is} an SDD on a right-linear
    vtree), so the types are concrete and results from either backend
    flow into the generic census, postmortem and import machinery. *)
module type S = sig
  val backend : resolved
  val name : string

  val create_manager :
    ?budget:Budget.t -> ?compact_every:int -> Vtree.t -> Sdd.manager
  (** For [`Obdd] the vtree is right-linearized over its leaf order
      (so a treedec-derived vtree contributes its variable order). *)

  val compile_circuit : Sdd.manager -> Circuit.t -> Sdd.t
  val model_count : Sdd.manager -> Sdd.t -> Bigint.t

  val probability_ratio :
    Sdd.manager -> Sdd.t -> (string -> Ratio.t) -> Ratio.t
  (** Exact WMC, one linear walk over the arena (no NNF-circuit
      export). *)

  val size : Sdd.manager -> Sdd.t -> int
  val node_count : Sdd.manager -> Sdd.t -> int

  val width : Sdd.manager -> Sdd.t -> int
  (** SDD width (Definition 5) for [`Sdd]; OBDD width
      (nodes per level) for [`Obdd]. *)

  val stats : Sdd.manager -> (string * int) list
  (** Serial-friendly flat counters (cache hits/misses/entries),
      safe to read from any domain. *)
end

val impl : resolved -> (module S)

(** {1 Selection} *)

val resolve_circuit :
  ?budget:Budget.t -> tag -> Circuit.t -> resolved * string
(** Resolve a requested backend for a circuit workload, with the reason.
    Explicit tags resolve to themselves ("requested"); [`Auto] picks
    [`Obdd] when the natural linear layout's vertex-separation width
    stays within +2 of the treewidth bound (a pathwidth-shaped input,
    measured on the very order the OBDD compile uses), and [`Sdd]
    otherwise.  The resolution is recorded (event + {!last_selection}). *)

val resolve_cnf : tag -> resolved * string
(** Same for the CNF counting pipeline: [`Auto] resolves to [`Sdd],
    whose decomposition vtree is what the clause fold follows. *)

val note_selection : requested:tag -> chosen:resolved -> reason:string -> unit
(** Record a selection made by a caller that resolved the backend
    itself (e.g. the query evaluator's safety-based choice). *)

val last_selection : unit -> (string * string * string) option
(** [(requested, chosen, reason)] of the most recent resolution in this
    process — the run record's [backend] section. *)

val keep_selection : (unit -> 'a) -> 'a
(** Run [f] and restore {!last_selection} afterwards (also on an
    exception), so a cross-check compile leaves the run's own selection
    in place. *)
