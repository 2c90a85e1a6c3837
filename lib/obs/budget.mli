(** Resource governance for the compilation engine.

    The compilers are worst-case triple-exponential in treewidth
    (Theorem 3), and the UCQ lower bounds (Theorem 5) guarantee that
    some inputs {e must} blow up, so every expensive path takes a
    [Budget.t]: a wall-clock deadline, a per-manager SDD live-node cap,
    a major-heap memory watermark and a cooperative cancellation token
    shared across domains.  Kernels poll the budget at amortized
    checkpoints and raise {!Exhausted} when a limit trips; the anytime
    layers above ({!Vtree_search}, {!Pipeline}) catch it and return the
    best result found so far with a degraded flag, and the public
    result-typed API ([Ctwsdd]) converts it to [Ctwsdd_error.t].

    {2 Cost model}

    The default budget is {!unlimited}, whose [active] field is [false]:
    a polling site pays one load and one predictable branch, keeping
    disabled-mode overhead within the repository's 2% observability
    guard (see [bench/overhead.ml]).  With an active budget, the node
    cap is compared on every poll (it must be deterministic), while the
    clock, the cancellation token and the heap watermark are only
    consulted every [poll_interval] polls.

    {2 Determinism}

    Node-cap trips depend only on the polling sequence, so the same
    budget produces the same degraded result whatever the domain count —
    the parallel search layers rely on this.  Deadline and memory trips
    are inherently racy and should not be used where reproducibility
    matters.

    Every trip increments the [budget.trip.<reason>] counter and emits a
    [budget.trip] {!Obs.event}, so traces show why a compilation
    degraded; the trip also always lands in the {!Flight_recorder} ring
    (even with observability disabled), so postmortem dumps retain it. *)

type reason =
  | Timeout  (** The wall-clock deadline passed. *)
  | Node_limit  (** An SDD manager exceeded its live-node cap. *)
  | Memory_limit  (** The major heap grew past the watermark. *)
  | Cancelled  (** The shared cancellation token was set. *)

exception Exhausted of reason
(** Raised by polling sites when a limit trips.  Cooperative: kernels
    only raise at checkpoints where their data structures are
    consistent. *)

type t = {
  deadline : float;  (** Absolute [Unix.gettimeofday] time; [infinity] = none. *)
  max_nodes : int;  (** Per-manager allocated-node cap; [max_int] = none. *)
  max_memory_words : int;  (** Major-heap watermark; [max_int] = none. *)
  cancel : bool Atomic.t;  (** Cancellation token, shared across domains. *)
  active : bool;  (** [false] only for {!unlimited}: single-branch fast path. *)
  interval : int;  (** Polls between full (clock/token/heap) checks. *)
  tick : int Atomic.t;
      (** Countdown to the next full check.  Atomic so the amortized
          polling cadence stays exact when several domains share one
          budget — the component and search-candidate domains of the
          pipeline, each with its own manager (an uncapped
          {!split_nodes} returns the budget itself); an uncontended
          fetch-and-add is a couple of nanoseconds next to the
          allocation it gates. *)
}
(** The representation is exposed so hot paths can gate on [active] with
    a single load instead of a cross-module call.  Treat the fields as
    read-only outside this module (except through {!cancel_now}). *)

val unlimited : t
(** The inert budget: never trips, [active = false]. *)

val create :
  ?timeout:float ->
  ?max_nodes:int ->
  ?max_memory_words:int ->
  ?cancel:bool Atomic.t ->
  ?poll_interval:int ->
  unit ->
  t
(** [create ()] builds an active budget.  [timeout] is relative seconds
    from now (the deadline is fixed at creation); a negative or NaN
    [timeout] raises [Invalid_argument], as do negative caps.  [cancel] lets several
    budgets — or several domains — share one cancellation token;
    a fresh token is allocated otherwise.  [poll_interval] (default
    [256]) is the number of {!poll}s between full checks; lower it in
    tests that need a prompt deadline or cancellation trip. *)

val is_unlimited : t -> bool

val with_max_nodes : t -> int -> t
(** A copy with a (usually tighter) node cap, sharing the deadline and
    the cancellation token.  Used by the pipeline's search rung to split
    its allowance across candidate compilations. *)

val split_nodes : t -> int -> t
(** [split_nodes t k] is [with_max_nodes t (max_nodes / k)] (at least
    1); the identity on an unlimited or uncapped budget. *)

val current : unit -> t option
(** The most recently {!create}d (active) budget, if any.  Postmortem
    dumps fall back to it when no budget is passed explicitly, so a
    crash report can state the limits the run was operating under even
    from contexts that never saw the budget value. *)

val cancel_now : t -> unit
(** Set the cancellation token.  Safe from any domain; every computation
    polling a budget that shares the token stops at its next
    checkpoint. *)

val cancelled : t -> bool

val exhaust : reason -> 'a
(** Record the trip ([budget.trip.<reason>] counter and [budget.trip]
    event) and raise {!Exhausted}.  Exposed so subsystems with their own
    private limits (e.g. [Treewidth.exact_bb]'s node budget) report
    through the same channel. *)

val check : t -> unit
(** Full, unamortized check of the token, the deadline and the heap
    watermark (not the node cap — that is per-manager, see
    {!check_nodes}).  O(1); call at phase boundaries.  Each full check
    on an active budget also drops a [budget.poll] entry in the
    {!Flight_recorder} ring, so postmortems show how recently the
    budget was consulted. *)

val check_nodes : t -> int -> unit
(** [check_nodes t n] trips with {!Node_limit} when [n > max_nodes].
    Deterministic: no clock, no amortization. *)

val poll : t -> unit
(** Amortized checkpoint for hot loops: decrements [tick] and runs
    {!check} every [interval] calls. *)

val reason_to_string : reason -> string
(** ["timeout"], ["node_limit"], ["memory_limit"], ["cancelled"]. *)
