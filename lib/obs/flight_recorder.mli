(** Always-on flight recorder: a fixed-size, lock-free ring buffer of
    the most recent observability activity — structured events, span
    completions, budget polls and budget trips — retained even when the
    [Obs] aggregation switch and tracing are both off, so a postmortem
    written at the moment of failure can show what the engine was doing
    just before it tripped.

    {2 Cost model}

    The recorder is on by default and is designed to ride inside the
    repository's 2% disabled-mode overhead budget (re-derived by
    [bench/overhead.ml] on every CI run): one [record] is a clock read,
    two domain-local loads, one small allocation and one
    fetch-and-add — tens of nanoseconds — and the instrumented call
    sites (span completions, structured events, amortized budget
    checks) fire a few hundred times per compilation, not per node.
    Set {!set_enabled}[ false] to reduce every record to a single load
    and branch.

    {2 Concurrency}

    Writers from any domain share one ring: the write cursor is an
    [Atomic.t] claimed with fetch-and-add and each slot is overwritten
    with a fully-constructed immutable entry, so concurrent writers
    never block and a reader ({!tail}) always observes well-formed
    entries (when writers race, an entry may be superseded by a
    newer one — acceptable for a crash recorder, which only promises
    the recent past).

    {2 Run attribution}

    The recorder also owns the process {e run ID} and per-request
    overrides ({!run_id}, {!with_run_id}): every entry is stamped with
    the run ID current on its recording domain, so concurrent
    compilations multiplexed over one process (the future serve mode)
    stay distinguishable in the ring and in postmortems.  [Obs]
    re-exports these under the same names. *)

type kind =
  | Event  (** A structured [Obs.event]. *)
  | Span  (** A span completion; [dur_s] is its wall-clock duration. *)
  | Budget_poll  (** A full (unamortized) [Budget.check] on an active budget. *)
  | Budget_trip  (** A [Budget.exhaust]; the reason is in [args]. *)
  | Note  (** Anything else (occupancy pulses, subsystem markers). *)

val kind_to_string : kind -> string
(** ["event"], ["span"], ["budget_poll"], ["budget_trip"], ["note"]. *)

type entry = {
  kind : kind;
  name : string;
  ts : float;  (** Absolute [Unix.gettimeofday] seconds. *)
  tid : int;  (** Track id of the recording domain (0 = main). *)
  run : string;  (** Run ID current on the recording domain. *)
  dur_s : float;  (** Span duration; [0.] for instant kinds. *)
  args : (string * string) list;  (** Small, pre-stringified payload. *)
}

(** {1 Switch} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val enabled_ref : bool ref
(** The raw switch, exposed so hot paths can gate a record with a single
    load-and-branch.  Treat as read-only; use {!set_enabled} to flip. *)

(** {1 Recording} *)

val record : ?dur_s:float -> ?args:(string * string) list -> kind -> string -> unit
(** Append one entry (no-op when disabled).  Never blocks, never
    allocates beyond the entry itself; once the ring is full each append
    overwrites the oldest entry. *)

val capacity : unit -> int

val set_capacity : int -> unit
(** Resize the ring (rounded up to a power of two, at least 16) and
    clear it.  The default is 4096 entries. *)

val ring_env : unit -> (int option, string) result
(** The [CTWSDD_RING] capacity override, validated with the same
    strictness as [CTWSDD_DOMAINS]: [Ok None] when unset,
    [Ok (Some n)] for a positive integer (pass to {!set_capacity}),
    [Error msg] for zero, negative or unparsable values.  The CLI turns
    the error into a usage failure (exit 124) before any work starts. *)

val recorded : unit -> int
(** Total entries ever recorded since the last {!clear} — entries beyond
    {!capacity} have been overwritten. *)

val overwritten : unit -> int
(** [max 0 (recorded () - capacity ())]: how many entries the ring has
    already forgotten. *)

val clear : unit -> unit

val tail : ?max:int -> unit -> entry list
(** The retained window, oldest first ([max] truncates to the newest
    [max] entries). *)

(** {1 Run and request IDs} *)

val run_id : unit -> string
(** The run ID current on this domain: the innermost {!with_run_id}
    override if any, the process-wide ID otherwise. *)

val set_run_id : string -> unit
(** Replace the process-wide run ID (all domains without an override
    observe the new value). *)

val fresh_run_id : unit -> string
(** A new unique ID ([r-<hex time>-<pid>-<seq>]); does not install it. *)

val with_run_id : string -> (unit -> 'a) -> 'a
(** Run [f] with a per-domain run-ID override (nestable,
    exception-safe).  Everything recorded inside — flight entries,
    [Obs] events — is stamped with the override, giving per-request
    attribution when one process serves many compilations. *)

(** {1 Domain track ids} *)

val current_tid : unit -> int
(** Stable per-domain track id: 0 for the main domain, fresh positive
    ids for spawned workers.  Shared with [Obs]'s trace exporter. *)
