(** The [ctwsdd explain] report: one compile's attribution and
    parallelism picture, collected from the ambient [Obs] /
    [Attribution] state and rendered as human text or as a versioned
    [ctwsdd-explain/v2] JSON document.

    The report answers the questions the raw metrics can't: {e where}
    the exponential was paid (ranked cost centers; top bags by node
    growth, with per-bag width against log₂(nodes) so the paper's
    treewidth bound is empirically visible per bag), and how close the
    parallel sections (one manager per domain: components, search
    candidates) came to their Amdahl bound (critical path, busy vs
    region wall clock, steal counts).

    Collect {e after} the compile finishes, in the same process, with
    observability enabled for the whole window ([Obs.set_enabled true]
    before compiling) — the report is a pure read of recorded state. *)

val schema_version : string
(** ["ctwsdd-explain/v2"]; v2 dropped v1's lock-statistics section. *)

type t

val collect : ?top:int -> ?censuses:Sdd.census list -> unit -> t
(** Build a report from the current domain's recorded state.  [top]
    bounds the ranked tables (default 10).  [censuses] are the managers
    whose live-node totals the per-bag attributed nodes are checked
    against (default [Sdd.census_all ()]); pass the compile's component
    managers when later managers would dilute the coverage ratio. *)

val to_json : t -> Obs.Json.t
(** The [ctwsdd-explain/v2] document: [schema], [run_id], [backend]
    (requested/chosen/reason of the last {!Backend} resolution, [null]
    when none was recorded), [wall_s]
    (root-inclusive seconds of pipeline centers), [attributed_s] (sum
    of self times over all centers — equal to [wall_s] up to float
    rounding for single-domain runs), [cost_centers] (every row,
    sorted by descending self time), [bags] ([top] ranked by nodes,
    with [bag_nodes] / [census_allocated] / [coverage]) and [parallelism] ([regions], [domains],
    [region_s], [busy_s], [achieved_speedup], [serial_fraction],
    [amdahl_bound], [items], [steals], and the [critical_path] from
    the heaviest span root following the heaviest child). *)

val pp : Format.formatter -> t -> unit
(** Human rendering: ranked cost-center table, top bags (width vs
    log₂ nodes), parallelism/Amdahl summary
    and the critical path.  Sections with nothing recorded say so
    rather than disappearing, so a report on a sequential run still
    shows the full anatomy. *)

val write : t -> string -> unit
(** [write t path] writes {!to_json} to [path] (["-"] is {e not}
    special here; the CLI reserves that for telemetry). *)
