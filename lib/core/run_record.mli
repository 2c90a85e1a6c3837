(** The run record: one [ctwsdd-run/v1] JSON document per run.

    Every output that describes a run is this document: the CLI's
    [--trace FILE], the bench harness's [BENCH_<ids>.json] and the dump
    written on a budget trip, an uncaught exception or [SIGUSR1].  The
    CLI's [--stats] prints its text report ({!pp}).

    Layout, each fact once: [schema], [run_id], the caller's [extra]
    fields, [reason] and [detail] ([null] except in a dump), [backend]
    (requested/chosen/reason of the last {!Backend} resolution, [null]
    when none), the {!Obs.sections} ([counters], [gauges], then [caches]
    from {!Sdd.caches}, then [histograms], [spans], [events], [gc],
    [ring]), [attribution] (the cost-center rows by descending self time),
    [explain] ([wall_s], [attributed_s], [bags], [parallelism],
    [critical_path]), [budget] (the active {!Budget.t}, [null] when none)
    and [managers] (one {!Sdd.census} per manager).  A dump adds the ring's
    retained [entries] and the full {!Gc.stat} fields.  EXPERIMENTS.md
    lists every field.

    The record is a pure read of the recorded state: build it after the
    work, in the same process, with observability enabled for the whole
    window when the aggregated sections matter. *)

val schema_version : string
(** ["ctwsdd-run/v1"]. *)

val json :
  ?extra:(string * Obs.Json.t) list ->
  ?censuses:Sdd.census list ->
  ?budget:Budget.t ->
  ?reason:string ->
  ?detail:string ->
  unit ->
  Obs.Json.t
(** The record.  [censuses] (default [Sdd.census_all ()]) are the
    managers listed under [managers] and the denominator of
    [explain.bags.coverage]; pass a compile's own managers when other
    live managers would dilute the coverage.  [budget] defaults to
    {!Budget.current}.  Passing [reason] makes the record a dump. *)

val write : string -> Obs.Json.t -> (unit, string) result
(** [write path record] writes a {!json} record to [path] with
    {!Obs.write_atomic}. *)

val pp : Format.formatter -> Obs.Json.t -> unit
(** The text report of a record, a pure function of it: the ten heaviest
    cost centers, the ten top bags by node growth (bag width against
    log₂ nodes, where the treewidth bound shows per bag), the
    parallelism summary against its Amdahl bound, the critical path, the
    span tree (calls, time, allocation), caches, histograms, the GC line,
    counters and gauges.  Empty sections say so rather than
    disappearing. *)

(** {1 Dumps} *)

val dump_path : unit -> string

val set_dump_path : string -> unit
(** Where {!dump} writes; initially ["ctwsdd-postmortem.json"] in the
    working directory. *)

val dump : ?detail:string -> reason:string -> unit -> (unit, string) result
(** Write the record with [reason] to {!dump_path}.  [reason] is
    free-form; the CLI uses the budget vocabulary (["timeout"],
    ["node_limit"], ...) plus ["uncaught_exception"] and ["sigusr1"].
    Never raises: a failing dump must not mask the failure it reports. *)

val install_sigusr1 : unit -> unit
(** Make [SIGUSR1] write a {!dump} with reason ["sigusr1"], so a live
    run can be inspected from outside; a failed write is reported on
    stderr.  No-op on platforms without [SIGUSR1]. *)
