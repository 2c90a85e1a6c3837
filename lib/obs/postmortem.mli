(** Postmortem dumps: a self-contained JSON snapshot of everything the
    process knows at the moment of failure, written atomically to a
    configurable path.

    A dump ([ctwsdd-postmortem/v1]) bundles the trip/crash [reason], the
    run ID, the {!Obs.Ring} tail (what the engine was doing just
    before), the full [ctwsdd-metrics/v4] snapshot (counters, gauges,
    histograms, events, spans — the aggregated sections are empty when
    observability was off, the ring tail and events still tell the
    story), the complete
    {!Gc.stat}, the active {!Budget.t} state, a top-level [attribution]
    field (the cost-center rows of {!Obs.attribution_section}, surfaced
    outside [metrics] so postmortem consumers need not dig), and a
    census of every live SDD manager (node/tombstone/garbage-word
    counts, generation and compaction totals, unique-table occupancy,
    estimated bytes per node) collected through registered providers
    as [sdd_manager_<i>] objects.

    The CLI writes one on any budget trip, on an uncaught exception, and
    on [SIGUSR1] ({!install_sigusr1}), so long-lived runs can be
    inspected from outside without killing them. *)

val schema_version : string
(** ["ctwsdd-postmortem/v1"]. *)

val add_census_provider : (unit -> (string * Obs.Json.t) list) -> unit
(** Register a callback contributing named JSON census objects to every
    subsequent dump (e.g. [Sdd] registers one enumerating its live
    managers).  Providers must not raise; a raising provider is reported
    inside the dump rather than aborting it. *)

val default_path : unit -> string
val set_default_path : string -> unit
(** Where dumps land when {!write} gets no explicit [path]; initially
    ["ctwsdd-postmortem.json"] in the working directory. *)

val json :
  ?budget:Budget.t -> ?detail:string -> reason:string -> unit -> Obs.Json.t
(** The dump document.  [reason] is free-form but the CLI uses the
    budget vocabulary (["timeout"], ["node_limit"], ...) plus
    ["uncaught_exception"] and ["sigusr1"].  [budget] defaults to
    {!Budget.current}. *)

val write :
  ?budget:Budget.t ->
  ?path:string ->
  ?detail:string ->
  reason:string ->
  unit ->
  string
(** Render {!json} and atomically replace [path] (default
    {!default_path}; temporary file + rename).  Returns the path
    written.  Never raises: on I/O failure a warning goes to stderr and
    the path is still returned — a failing postmortem must not mask the
    original error. *)

val install_sigusr1 : unit -> unit
(** Install a [SIGUSR1] handler that calls {!write}
    [~reason:"sigusr1"] to the current {!default_path}.  Idempotent. *)
