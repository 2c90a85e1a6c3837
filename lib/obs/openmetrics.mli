(** OpenMetrics / Prometheus text exporter for the [Obs] state.

    {!render} serializes the calling domain's current counters, gauges,
    caches, histograms, GC statistics and flight-recorder counters as
    OpenMetrics text (a strict superset of the Prometheus exposition
    format: `# TYPE` metadata, escaped label values, a final `# EOF`).
    Metric names are fixed families ([ctwsdd_counter_total],
    [ctwsdd_gauge], [ctwsdd_cache_*], [ctwsdd_histogram_*],
    [ctwsdd_gc], [ctwsdd_attr_*], ...) with the dynamic instrument name
    carried in a [name]/[cache]/[stat] label, so a scrape config needs
    no per-instrument rules; the run ID rides on [ctwsdd_run_info].
    Attribution cost centers export as [ctwsdd_attr_self_seconds_total],
    [ctwsdd_attr_nodes_total], [ctwsdd_attr_apply_misses_total] and
    [ctwsdd_attr_compaction_pause_us_total], labelled by [kind] and
    [center].

    {!write} is atomic ({!Obs.write_atomic}), so a reader of the file
    never observes a torn snapshot.  The CLI writes one snapshot at exit
    ([--telemetry-out FILE]). *)

val render : unit -> string
(** The current metrics state as an OpenMetrics text document,
    terminated by `# EOF`. *)

val write : string -> (unit, string) result
(** [write path] renders and atomically replaces [path]
    ({!Obs.write_atomic}).  [write "-"] instead prints the snapshot to
    stdout and flushes, so telemetry can be piped ([--telemetry-out -]).
    [Error msg] on I/O failure. *)

val escape_label : string -> string
(** OpenMetrics label-value escaping ([\\] → [\\\\], ["] → [\\"],
    newline → [\\n]); exposed for tests. *)
