(** Observability: hierarchical timed spans, monotonic counters, gauges,
    log-scale histograms, cache statistics, GC telemetry, and a
    flight-recorder ring holding span completions, structured events and
    budget activity for the compilation pipeline.

    The aggregating instrumentation is designed to be effectively free
    when disabled (the default): every aggregating instrument ([incr],
    [hist_record], the span tree, …) first checks a single boolean and
    becomes a no-op, so hot paths pay one predictable branch.  Per-cache
    statistics ({!Cache}) are plain field increments on a record owned
    by the instrumented structure and are always maintained — they cost
    a couple of stores next to a hash-table probe that dwarfs them.  The
    {!Attribution} cost-center profiler shares the master switch
    ({!set_enabled} arms both).

    Metrics are exported as the JSON sections ({!sections}) of the
    [ctwsdd-run/v1] run record that [Run_record] assembles; its text
    report ([Run_record.pp], the CLI's [--stats]) is rendered from them.

    The {!Ring} is the one store for individual occurrences: every span
    completion, {!event}, budget poll and budget trip lands there
    whatever the switch.  The record's [events] and [ring] sections, the
    Chrome [trace_event] file ({!write_trace}) that loads in Perfetto /
    chrome://tracing with one track per OCaml domain, and a dump's
    [ring.entries] tail are all rendered from it.  The ring holds 4096
    entries with collection off and 2{^18} while collecting; beyond that
    the oldest entries are overwritten and counted.  See EXPERIMENTS.md
    for the schema reference. *)

(** {1 Enabling} *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Arm or disarm the master switch.  Also flips
    [Attribution.enabled_ref], so one call arms the classic instruments
    and the cost-center profiler together, and sizes the {!Ring}: 2{^18}
    entries while collecting, 4096 otherwise (a resize empties it). *)

val enabled_ref : bool ref
(** The raw master switch, exposed so hot paths can gate a probe with a
    single load-and-branch ([if !Obs.enabled_ref then ...]) instead of a
    cross-module call.  Treat as read-only; use {!set_enabled} to flip. *)

val reset : unit -> unit
(** Forget all recorded counters, gauges, histograms, spans and
    registered caches, empty the {!Ring}, and rebase the GC baseline and
    trace epoch.  Does not change the enabled flag.  Open
    spans are kept on the stack (their enclosing [span] calls still pop
    correctly) but their timings are discarded with the old tree. *)

val hard_reset : unit -> unit
(** Everything {!reset} does, plus: the calling domain's DLS metric
    state is replaced wholesale (histograms, spans, the cache registry —
    so not even table identities leak between back-to-back library
    uses) and a fresh run ID is minted.  Call at the top of each
    independent run (the CLI does, per subcommand).  Leaves the enabled
    flag alone. *)

(** {1 Run and request attribution}

    A process-wide generated run ID, overridable per request with
    {!with_run_id}.  Ring entries are stamped with the ID current on
    their recording domain; the parallel search layers forward the
    spawning domain's ID into their workers, so one request's activity
    carries one ID across domains. *)

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
    exception-safe). *)

(** {1 Counters and gauges} *)

val incr : ?by:int -> string -> unit
(** Add [by] (default 1) to the named monotonic counter.  No-op when
    disabled. *)

val counter_value : string -> int
(** Current value of a counter; 0 if never incremented. *)

val counters : unit -> (string * int) list
(** All counters, sorted by name. *)

val gauge_set : string -> int -> unit
(** Set the named gauge to the given value.  No-op when disabled. *)

val gauge_max : string -> int -> unit
(** Raise the named gauge to the given value if larger (peak tracking).
    No-op when disabled. *)

val gauge_value : string -> int option
val gauges : unit -> (string * int) list

(** {1 Histograms} *)

module Histogram : sig
  type t
  (** A log-scale (power-of-two bucket) histogram over non-negative
      integers: constant-size state, O(1) record, exact count/sum/min/
      max, percentile estimates within one power of two.  Negative
      samples clamp to 0. *)

  val create : string -> t
  val name : t -> string
  val count : t -> int
  val sum : t -> int

  val record : ?n:int -> t -> int -> unit
  (** [record ~n h v] adds [n] (default 1) samples of value [v]. *)

  val merge : t -> t -> unit
  (** [merge dst src] folds [src]'s samples into [dst]. *)

  val percentile : t -> float -> int
  (** [percentile h p] for [p] in [0..100]: the upper bound of the
      bucket where the cumulative count reaches [p]%, clamped to the
      observed range.  0 on an empty histogram. *)

  type snapshot = {
    hist : string;
    count : int;
    sum : int;
    min_value : int;
    max_value : int;
    p50 : int;
    p90 : int;
    p99 : int;
    buckets : (int * int) list;
        (** Non-empty buckets as [(upper_bound, count)], ascending. *)
  }

  val snapshot : t -> snapshot
end

val hist_record : ?n:int -> string -> int -> unit
(** Record [n] (default 1) samples of a value into the named global
    histogram, creating it on first use.  No-op when disabled. *)

val hist_value : string -> Histogram.snapshot option
(** Snapshot of a named histogram; [None] if never recorded. *)

val histograms : unit -> Histogram.snapshot list
(** All histograms (including those absorbed from worker domains),
    sorted by name. *)

(** {1 Cache statistics} *)

module Cache : sig
  type t = {
    name : string;
    mutable hits : int;
    mutable misses : int;
    size_fn : unit -> int;
  }
  (** Hit/miss statistics for one lookup structure (a hash table).  The
      record is owned by the instrumented structure; [hit]/[miss] are
      unconditional field increments.  The representation is exposed so
      hot paths can bump the fields directly (the [hit]/[miss] helpers
      are cross-module calls that the compiler may not inline).  When
      observability is enabled at creation time the cache is also
      registered with the global exporter. *)

  val create : ?size:(unit -> int) -> string -> t
  (** [create ~size name] makes a fresh statistics record.  [size] is
      polled at export time (e.g. [fun () -> Hashtbl.length tbl]). *)

  val name : t -> string
  val hit : t -> unit
  val miss : t -> unit
  val hits : t -> int
  val misses : t -> int

  val lookups : t -> int
  (** [hits + misses], by construction. *)

  val size : t -> int
  (** Current entry count as reported by the [size] callback. *)

  type snapshot = {
    cache : string;
    lookups : int;
    hits : int;
    misses : int;
    entries : int;
  }

  val snapshot : t -> snapshot
end

val caches : unit -> Cache.snapshot list
(** Snapshots of all registered caches, aggregated by name (several SDD
    managers register the same cache names; their statistics are
    summed), sorted by name. *)

(** {1 Spans} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] and accumulates the duration and
    {!Gc.quick_stat} deltas (allocation, collections) into the span tree
    under the currently open span (spans nest).  Re-entering the same
    name under the same parent accumulates into one node.  Every call,
    enabled or not, records one [Span] completion in the {!Ring} on the
    calling domain's track.  Exception-safe: the span is closed even if
    [f] raises.  When disabled no tree or GC probe is touched. *)

type span_tree = {
  span : string;
  calls : int;
  total_s : float;  (** Wall-clock seconds, summed over calls. *)
  gc_minor_words : float;  (** Minor-heap words allocated inside. *)
  gc_major_words : float;
  gc_promoted_words : float;
  gc_minor_collections : int;
  gc_major_collections : int;
  children : span_tree list;
}

val span_roots : unit -> span_tree list
(** The forest of recorded top-level spans, in first-entry order. *)

val span_depth : unit -> int
(** Number of currently open spans (0 outside any [span]). *)

(** {1 JSON} *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact, valid JSON.  Non-finite floats serialize as [null]. *)

  val of_string : string -> (t, string) result
  (** Minimal strict parser (objects, arrays, strings with escapes,
      numbers, [true]/[false]/[null]); sufficient for round-tripping
      [to_string] output. *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] otherwise. *)
end

(** {1 Flight-recorder ring}

    A fixed-size, lock-free ring of the most recent span completions,
    structured events, budget polls, budget trips and notes, recorded
    whatever the master switch.  Writers from any domain share it: the
    write cursor is claimed with fetch-and-add and each slot receives a
    fully built immutable entry, so writers never block and {!Ring.tail}
    always observes well-formed entries.  One record is a clock read,
    two domain-local loads, one small allocation and one fetch-and-add;
    the instrumented call sites fire a few hundred times per
    compilation, not per node. *)

module Ring : sig
  type kind =
    | Event  (** A structured {!event}. *)
    | Span  (** A span completion; [dur_s] is its wall-clock duration. *)
    | Budget_poll  (** A full (unamortized) [Budget.check] on an active budget. *)
    | Budget_trip  (** A [Budget.exhaust]; the reason is in [args]. *)
    | Note  (** Anything else (occupancy pulses, subsystem markers). *)

  type entry = {
    kind : kind;
    name : string;
    ts : float;  (** Absolute [Unix.gettimeofday] seconds at recording. *)
    tid : int;  (** Track id of the recording domain (0 = main). *)
    run : string;  (** Run ID current on the recording domain. *)
    dur_s : float;  (** Span duration; [0.] for instant kinds. *)
    args : (string * Json.t) list;
  }

  val record : ?dur_s:float -> ?args:(string * Json.t) list -> kind -> string -> unit
  (** Append one entry.  Never blocks; once the ring is full each append
      overwrites the oldest entry. *)

  val capacity : unit -> int

  val set_capacity : int -> unit
  (** Resize the ring (rounded up to a power of two, at least 16) and
      empty it.  {!set_enabled} sets the production capacity; this is
      for tests that need a small ring to overflow. *)

  val recorded : unit -> int
  (** Total entries recorded since the ring was last emptied — entries
      beyond {!capacity} have been overwritten. *)

  val overwritten : unit -> int
  (** [max 0 (recorded () - capacity ())]. *)

  val tail : ?max:int -> unit -> entry list
  (** The retained window, oldest first ([max] truncates to the newest
      [max] entries). *)
end

(** {1 Structured events} *)

val event : string -> (string * Json.t) list -> unit
(** Record a named, timestamped structured event (search-trajectory
    steps, pipeline decisions) as an [Event] entry in the {!Ring},
    whatever the master switch. *)

val events : unit -> Ring.entry list
(** The [Event] and [Budget_trip] entries retained in the {!Ring} (from
    every domain), sorted by timestamp: the [events] section of the
    run record and the instants of the Chrome trace. *)

(** {1 Worker domains}

    All aggregated metric state (counters, gauges, histograms, span
    trees, the cache registry) is domain-local: a freshly spawned
    domain starts with empty tables, so instruments never contend across
    domains.  Code that fans work out to [Domain.spawn] workers wraps
    each worker body in {!Worker.capture} and, after joining, feeds
    every capture to {!Worker.absorb} so the workers' metrics are merged
    into the calling domain:

    {[
      let d = Domain.spawn (fun () -> Obs.Worker.capture work) in
      let result, cap = Domain.join d in
      Obs.Worker.absorb cap
    ]}

    Ring entries need no merge: workers write the shared {!Ring}
    directly, stamped with their own track id. *)

module Worker : sig
  type captured
  (** Frozen metric state of one unit of work: counters, gauges, cache
      snapshots, histograms, attribution rows and the span forest
      recorded while it ran. *)

  val capture : (unit -> 'a) -> 'a * captured
  (** [capture f] runs [f] against fresh, empty metric state and returns
      its result together with everything it recorded; the previous
      state of the calling domain is restored afterwards (also if [f]
      raises, in which case the partial capture is discarded).  Safe to
      call in any domain, including nested under another [capture]. *)

  val absorb : captured -> unit
  (** Merge a capture into the calling domain's state: counters add,
      gauges take the maximum, cache snapshots are accumulated into the
      {!caches} aggregation, histograms merge by name, span trees are grafted
      under the currently open span, summing durations of same-named
      spans — the same rule {!span} applies to repeat entries — and
      attribution rows merge by cost center ([Attribution.absorb]).
      Absorb captures only after joining their workers (typically in
      the main domain). *)

  val domains_env : unit -> (int option, string) result
  (** The [CTWSDD_DOMAINS] override, validated: [Ok None] when unset,
      [Ok (Some n)] for a positive integer, [Error msg] for zero,
      negative or unparsable values.  The CLI checks this before any
      work starts so misconfiguration is a usage error, not a crash. *)

  val default_domains : unit -> int
  (** The domain count used when a caller passes no explicit [~domains]:
      the validated [CTWSDD_DOMAINS] override, or
      [Domain.recommended_domain_count ()].  Raises [Invalid_argument]
      on a garbage or non-positive override (see {!domains_env}). *)

  val parallel_map : domains:int -> ('a -> 'b) -> 'a list -> 'b list
  (** Order-preserving parallel map over up to [domains] domains with
      atomic work stealing.  The calling domain participates ([d]
      domains spawn [d - 1] workers); each worker runs under {!capture}
      and is absorbed after its join, so the instrumented totals are
      independent of the schedule.  Every worker is joined even on
      failure and the first exception is re-raised.  [domains <= 1] (or
      a singleton list) degrades to [List.map].

      When enabled, the parallel region is additionally accounted for:
      the spawn-to-join window runs under a ["worker.parallel_map"]
      span (per-item spans from main and absorbed workers land as its
      children), the peak domain count is kept in the
      ["worker.parallel_map.domains"] gauge, each worker's item count
      feeds the ["worker.items"] counter (["worker.steals"] for items
      executed by spawned domains), and per-worker busy/idle wall time
      is recorded in the ["worker.busy_us"] / ["worker.idle_us"]
      histograms — the inputs to the explain report's critical-path and
      Amdahl analysis. *)
end

(** {1 Export} *)

val sections : ?dump:bool -> unit -> (string * Json.t) list
(** The metric sections of the run record, in order: [counters],
    [gauges], [caches], [histograms], [spans] (with per-span [gc]
    sub-objects), [events] (see {!events}; [ts_s] is seconds since the
    last {!reset}, each with its [run] attribution), [gc] (deltas since
    {!reset} plus current/top heap words) and [ring] (capacity,
    recorded and overwritten counts, plus the track ids, rendered trace
    events and instants of the Chrome trace).  With [~dump:true] (default
    [false]) [gc] adds the fields of a full {!Gc.stat} and [ring] adds
    [entries], the retained tail as
    [{kind, name, ts_unix_s, tid, run, dur_s, args}] objects. *)

val write_atomic : string -> string -> (unit, string) result
(** [write_atomic path contents] writes [contents] to a sibling temporary
    file and renames it over [path], so readers never see a torn file.
    [Error msg] on I/O failure; nothing is left behind. *)

val trace_json : unit -> Json.t
(** The {!Ring} rendered as a Chrome [trace_event] document:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}] with complete
    ([ph:"X"]) events for span completions, starting at [ts - dur_s],
    instant ([ph:"i"]) events for structured events and budget trips,
    and [ph:"M"] metadata naming one track per OCaml domain ([main],
    [domain-N]).  Polls and notes are not rendered.  Timestamps are
    microseconds since the earliest rendered event.  Loads in Perfetto
    and chrome://tracing. *)

val write_trace : string -> (unit, string) result
(** [write_trace path] writes {!trace_json} to [path] with
    {!write_atomic}. *)
