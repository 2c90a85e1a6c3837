(* Backend-agnostic compilation interface: one first-class-module
   signature over the three compilation targets of the paper's panorama
   (canonical SDD, OBDD as its right-linear ITE specialization, and the
   counting-only non-canonical d-DNNF arena), plus the per-workload
   [`Auto] resolution with its audit trail (metrics event and the run
   record's [backend] section). *)

type tag = [ `Sdd | `Obdd | `Dnnf | `Auto ]
type resolved = [ `Sdd | `Obdd | `Dnnf ]

let name = function
  | `Sdd -> "sdd"
  | `Obdd -> "obdd"
  | `Dnnf -> "dnnf"
  | `Auto -> "auto"

let resolved_name (b : resolved) = name (b :> tag)

let of_string = function
  | "sdd" -> Ok `Sdd
  | "obdd" -> Ok `Obdd
  | "dnnf" -> Ok `Dnnf
  | "auto" -> Ok `Auto
  | s ->
    Error
      (Ctwsdd_error.Invalid_input
         (Printf.sprintf "unknown backend %S (expected sdd, obdd, dnnf or auto)"
            s))

let of_string_exn s =
  match of_string s with Ok t -> t | Error e -> Ctwsdd_error.throw e

let require_minimizable (b : resolved) =
  if b <> `Sdd then
    Ctwsdd_error.throw
      (Ctwsdd_error.Invalid_input
         (Printf.sprintf "minimize is supported only by the sdd backend (got %s)"
            (resolved_name b)))

module type S = sig
  val backend : resolved
  val name : string

  val create_manager :
    ?budget:Budget.t -> ?compact_every:int -> Vtree.t -> Sdd.manager

  val compile_circuit : Sdd.manager -> Circuit.t -> Sdd.t
  val model_count : Sdd.manager -> Sdd.t -> Bigint.t

  val probability_ratio :
    Sdd.manager -> Sdd.t -> (string -> Ratio.t) -> Ratio.t

  val size : Sdd.manager -> Sdd.t -> int
  val node_count : Sdd.manager -> Sdd.t -> int
  val width : Sdd.manager -> Sdd.t -> int
  val stats : Sdd.manager -> (string * int) list
end

(* The compile/query/census surface every backend shares verbatim: the
   manager is what differs, and [Sdd.conjoin] picks its apply from it. *)
module Shared = struct
  let compile_circuit = Sdd.compile_circuit
  let model_count = Sdd.model_count
  let probability_ratio = Sdd.probability_ratio
  let size = Sdd.size
  let node_count = Sdd.node_count

  let stats m =
    List.concat_map
      (fun (s : Obs.Cache.snapshot) ->
        [
          (s.Obs.Cache.cache ^ ".hits", s.Obs.Cache.hits);
          (s.Obs.Cache.cache ^ ".misses", s.Obs.Cache.misses);
          (s.Obs.Cache.cache ^ ".entries", s.Obs.Cache.entries);
        ])
      (Sdd.stats m)
    @ [ ("sdd.nodes_allocated", Sdd.num_nodes_allocated m) ]
end

module Sdd_backend = struct
  include Shared

  let backend : resolved = `Sdd
  let name = "sdd"
  let create_manager ?budget ?compact_every vt = Sdd.manager ?budget ?compact_every vt
  let width = Sdd.width
end

module Obdd_backend = struct
  include Shared

  let backend : resolved = `Obdd
  let name = "obdd"

  (* Whatever vtree the strategy ladder proposes contributes its
     variable order; the manager itself is right-linear, so apply runs
     the ITE recursion and the OBDD width census is well-defined. *)
  let create_manager ?budget ?compact_every vt =
    Sdd.Obdd.manager ?budget ?compact_every (Vtree.leaf_order vt)

  let width = Sdd.Obdd.width
end

module Dnnf_backend = struct
  include Shared

  let backend : resolved = `Dnnf
  let name = "dnnf"

  let create_manager ?budget ?compact_every vt =
    Sdd.dnnf_manager ?budget ?compact_every vt

  let width = Sdd.width
end

let impl : resolved -> (module S) = function
  | `Sdd -> (module Sdd_backend)
  | `Obdd -> (module Obdd_backend)
  | `Dnnf -> (module Dnnf_backend)

(* ------------------------------------------------------------------ *)
(* Selection                                                           *)
(* ------------------------------------------------------------------ *)

(* (requested, chosen, reason) of the latest resolution: the run record
   reads it after the fact, so a
   plain atomic is enough — concurrent compiles last-write-win, which
   matches "what was this process doing" semantics. *)
let selection : (string * string * string) option Atomic.t = Atomic.make None
let last_selection () = Atomic.get selection

let keep_selection f =
  let saved = Atomic.get selection in
  Fun.protect ~finally:(fun () -> Atomic.set selection saved) f

let note_selection ~requested ~(chosen : resolved) ~reason =
  Atomic.set selection (Some (name requested, resolved_name chosen, reason));
  Obs.incr ("backend." ^ resolved_name chosen);
  if !Obs.enabled_ref then
    Obs.event "backend.selected"
      [
        ("requested", Obs.Json.String (name requested));
        ("chosen", Obs.Json.String (resolved_name chosen));
        ("reason", Obs.Json.String reason);
      ]

(* The [`Auto] heuristic for circuits mirrors the paper's panorama:
   when a {e linear} layout has vertex-separation width close to the
   treewidth bound, the input is pathwidth-shaped and Razgon's bound
   makes OBDDs competitive; otherwise only the treewidth bound holds
   and that reaches SDDs, not OBDDs (Theorem 3 vs the OBDD lower
   bounds).

   The layout matters, and no single one fits every shape.
   Gate-creation order is the natural layout of bottom-up builds
   (parity accumulators measure at separation 3), but it puts the
   output collector of CNF-style circuits {e last}, so every clause
   gate has a later neighbor and chains degenerate to ~n.  A DFS
   {e preorder} from the output fixes exactly that — hub gates come
   before their fan-in, a star contributes +1 to every bag instead of
   holding all its leaves live — but scatters the per-level variables
   of a deep accumulator spine.  The probe takes the min over both
   natural layouts: pathwidth-shaped inputs measure O(1) under at
   least one of them, while genuinely tree/grid-shaped circuits
   (ladders, windows, ISA) stay large under both. *)
let path_layout_width c =
  let g = Circuit.underlying_graph c in
  let n = Circuit.size c in
  let rank = Array.make n max_int in
  let next = ref 0 in
  let visit i =
    if rank.(i) = max_int then begin
      rank.(i) <- !next;
      incr next;
      true
    end
    else false
  in
  let rec dfs i =
    if visit i then
      match Circuit.gate c i with
      | Circuit.Var _ | Circuit.Const _ -> ()
      | Circuit.Not j -> dfs j
      | Circuit.And js | Circuit.Or js -> List.iter dfs js
  in
  dfs (Circuit.output c);
  for i = 0 to n - 1 do
    ignore (visit i)
  done;
  let vs = Ugraph.vertices g in
  let preorder = List.sort (fun a b -> compare rank.(a) rank.(b)) vs in
  let width_of order = Treedec.width (Treedec.path_decomposition_of_order g order) in
  min (width_of vs) (width_of preorder)

let resolve_circuit ?budget ?(counting_only = false) (requested : tag) c =
  let chosen, reason =
    match requested with
    | #resolved as b -> (b, "requested")
    | `Auto ->
      if counting_only then
        (`Dnnf, "counting-only workload: skip canonicity, count the d-DNNF")
      else begin
        let w, _ = Circuit.treewidth_upper ?budget c in
        let pw = path_layout_width c in
        if pw <= w + 2 then
          ( `Obdd,
            Printf.sprintf
              "path layout of width %d (treewidth bound %d): OBDD order" pw w
          )
        else
          ( `Sdd,
            Printf.sprintf
              "treewidth-bounded (width %d, path layout %d): SDD vtree" w pw )
      end
  in
  note_selection ~requested ~chosen ~reason;
  (chosen, reason)

let resolve_cnf (requested : tag) =
  let chosen, reason =
    match requested with
    | #resolved as b -> (b, "requested")
    | `Auto -> (`Dnnf, "counting-only CNF workload: count the d-DNNF")
  in
  note_selection ~requested ~chosen ~reason;
  (chosen, reason)
