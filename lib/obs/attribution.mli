(** Attribution profiler: charges elapsed time, allocated nodes and
    elements, apply-cache misses and compaction pauses to {e semantic}
    cost centers — vtree nodes, treewidth bags, CNF clauses, connected
    components, pipeline rungs — via an ambient cost-center stack.

    The classic telemetry (spans, counters, histograms) answers "how
    long did the compile take"; attribution answers "{e where} was the
    exponential paid": which treewidth bag grew the node count, which
    clause's conjunction missed the apply cache, which vtree move the
    minimizer spent its budget on.

    {2 Cost model}

    Same discipline as the rest of [lib/obs]: with the switch off every
    entry point is a single load and branch ({!with_center} additionally
    one closure call), re-certified by [bench/overhead.ml] under the
    repository's 2% disabled-mode bound.  Enabled, a charge walks the
    ambient stack (depth ≤ 4 in practice) bumping mutable fields of
    records resolved once at {!with_center} time — no hashing on the
    per-node path.

    {2 Concurrency}

    All state is domain-local ([Domain.DLS]): workers under
    [Obs.Worker.capture] start from a fresh empty state and their rows
    are merged into the parent at the join ({!export} / {!absorb}), so
    attributed totals are independent of the parallel schedule, exactly
    like counters and histograms.

    {2 Accounting invariant}

    Time is {e self} (exclusive) time: a center is charged its elapsed
    wall time minus the time spent in centers nested inside it, and the
    inclusive time of stack-bottom enters is accumulated separately
    ({!row.root_s}).  Summing [time_s] over all rows therefore
    reconstructs the root windows exactly — the consistency check the CI
    explain smoke enforces.  Counter charges (nodes, elements, misses,
    pauses) go to {e every} center on the stack, so a bag's node total
    includes the clauses conjoined inside it and bag totals partition
    the allocations of the clause loop. *)

(** {1 Switch} *)

val enabled_ref : bool ref
(** Raw switch for hot-path gating (a single load and branch).  Flipped
    by [Obs.set_enabled] alongside the metrics switch; treat as
    read-only and use {!set_enabled} to change it directly. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Cost centers} *)

type center
(** A cost-center identity: a kind (["vnode"], ["bag"], ["clause"],
    ["component"], ["rung"], ["pipeline"]) and a label.  Centers with
    equal kind and label accumulate into one row. *)

val vnode : int -> center
(** A vtree node (dynamic-edit targets in [Vtree_search]). *)

val bag : component:int -> int -> center
(** Treewidth bag [b] (post-order position) of CNF component [k];
    labelled ["k<k>/b<b>"]. *)

val clause : component:int -> int -> center
(** Clause [i] (build order: the bags' post-order) of CNF component
    [k]. *)

val component : int -> center
(** Connected CNF component [k]. *)

val rung : string -> center
(** A degradation-ladder rung (["search"], ["treedec"], ["right"],
    ...) or a named phase (["minimize"]). *)

val pipeline : string -> center
(** A top-level compile window (["compile"], ["compile_cnf"]).  The
    explain report treats the root-inclusive time of [pipeline] rows as
    the attribution wall clock. *)

val with_center : center -> (unit -> 'a) -> 'a
(** [with_center c f] runs [f] with [c] pushed on this domain's
    cost-center stack (exception-safe).  Disabled: calls [f] directly.
    Enabled: one clock read on entry and one on exit; the elapsed time
    is charged to [c] (self) and to the parent's child-time. *)

(** {1 Charges}

    All no-ops when disabled or when [n = 0]; otherwise charged to every
    center on the current domain's stack (and to the implicit
    ["unattributed"] row when the stack is empty). *)

val charge_nodes : int -> unit
(** SDD nodes allocated (hooked into [Sdd]'s allocators). *)

val charge_elements : int -> unit
(** Decision elements (prime/sub pairs) allocated. *)

val charge_apply_miss : unit -> unit
(** An apply-cache (AND/OR) miss — one recursive apply actually ran. *)

val charge_compaction_pause : int -> unit
(** Microseconds of a generational-compaction stop-the-world pause. *)

val set_width : int -> unit
(** Record the treewidth-bag width (max-merged) on the innermost center,
    so the explain report can plot per-bag width against log₂(nodes). *)

(** {1 Export and merge} *)

type row = {
  kind : string;
  label : string;
  time_s : float;  (** Self (exclusive) seconds. *)
  root_s : float;  (** Inclusive seconds of stack-bottom enters. *)
  nodes : int;
  elements : int;
  apply_misses : int;
  compaction_pause_us : int;
  enters : int;
  width : int;  (** Bag width (0 when never set). *)
}

val rows : unit -> row list
(** This domain's accumulated rows, sorted by descending self time. *)

val export : unit -> row list
(** {!rows}, unsorted — what [Obs.Worker.capture] ships to the parent. *)

val absorb : row list -> unit
(** Merge captured worker rows into this domain's state (sums counters
    and times, max-merges widths).  Not gated on the switch: a capture
    taken while enabled must survive a disable before the join. *)

val fresh : unit -> unit
(** Replace this domain's state with an empty one (fresh stack, no
    rows).  Called by [Obs.reset] / [Obs.Worker.fresh_state]. *)

type state
(** Opaque per-domain state, for save/restore around
    [Obs.Worker.capture]. *)

val current_state : unit -> state
val install_state : state -> unit
