type answer = {
  probability : Ratio.t;
  size : int;
  backend : Backend.resolved;
  degraded : Budget.reason option;
}

let brute q db =
  List.fold_left
    (fun acc subset ->
      if Ucq.holds q subset then Ratio.add acc (Pdb.prob_of_subset db subset)
      else acc)
    Ratio.zero (Pdb.subdatabases db)

let weight_fun db v = db.Pdb.prob (Pdb.tuple_of_var v)

let default_order q db =
  match q with
  | [ cq ] ->
    (match Qsafety.hierarchical_variable_order cq db with
     | Some order -> order
     | None -> Lineage.variables db)
  | _ -> Lineage.variables db

(* A lineage with no variables is a constant (empty database, or a query
   decided without touching any tuple); there is no vtree to build, so
   short-circuit before the pipeline. *)
let constant_lineage c =
  if Circuit.variables c = [] then
    Some (if Circuit.eval c Boolfun.Smap.empty then Ratio.one else Ratio.zero)
  else None

(* Either a constant probability or a compiled manager/root with the
   budget-degradation flag.  Raises (for the guard in the callers) when
   even the degradation ladder could not finish.  An explicit vtree is
   pinned: no ladder to fall back on, so a budget trip on it escapes.
   Otherwise the treewidth-derived vtree is the paper's route for
   inversion-free queries (bounded-treewidth lineages, quasipolynomial
   SDDs).  Outside that class the lineage treewidth grows and
   apply-compilation on the Lemma 1 vtree explodes on instances a
   balanced vtree handles easily, so keep the balanced start there. *)
let compile_lineage (chosen : Backend.resolved) ?budget ?vtree ?minimize
    ?compact_every q db =
  let c = Lineage.circuit q db in
  match constant_lineage c with
  | Some p -> Error p
  | None ->
    let vtree_strategy =
      match vtree with
      | Some vt -> `Pinned vt
      | None -> if Qsafety.inversion_free q then `Treedec else `Balanced
    in
    (match
       Pipeline.compile ?budget ~vtree_strategy
         ~backend:(chosen :> Backend.tag) ?minimize ?compact_every c
     with
     | Error e -> Ctwsdd_error.throw e
     | Ok r -> Ok (r.Pipeline.manager, r.Pipeline.root, r.Pipeline.degraded))

(* No vtree for an empty order: such a lineage is constant and
   [compile_lineage] never reaches a manager. *)
let linear_vtree = function [] -> None | order -> Some (Vtree.right_linear order)

(* Query-level backend resolution: the dichotomy levels of the paper's
   introduction map onto compilation targets.  Hierarchical queries have
   OBDD lineages on the hierarchical variable order; inversion-free
   queries have treewidth-bounded lineages, i.e. SDDs via the Lemma 1
   vtree; beyond that the canonical SDD on a balanced vtree is the
   robust default. *)
let resolve_query (backend : Backend.tag) ?vtree q db =
  match backend with
  | #Backend.resolved as b -> (b, "requested", vtree)
  | `Auto ->
    (match vtree with
     | Some _ -> (`Sdd, "explicit vtree: canonical SDD on it", vtree)
     | None ->
       (match q with
        | [ cq ] ->
          (match Qsafety.hierarchical_variable_order cq db with
           | Some order ->
             ( `Obdd,
               "hierarchical query: OBDD on the hierarchical order",
               linear_vtree order )
           | None ->
             if Qsafety.inversion_free q then
               (`Sdd, "inversion-free query: treewidth-bounded SDD", None)
             else (`Sdd, "query with inversions: balanced-vtree SDD", None))
        | _ ->
          if Qsafety.inversion_free q then
            (`Sdd, "inversion-free query: treewidth-bounded SDD", None)
          else (`Sdd, "query with inversions: balanced-vtree SDD", None)))

let evaluate chosen ?budget ?vtree ?minimize ?compact_every q db =
  match compile_lineage chosen ?budget ?vtree ?minimize ?compact_every q db with
  | Error p -> { probability = p; size = 0; backend = chosen; degraded = None }
  | Ok (m, node, degraded) ->
    let (module B : Backend.S) = Backend.impl chosen in
    {
      probability = B.probability_ratio m node (weight_fun db);
      size = B.size m node;
      backend = chosen;
      degraded;
    }

let via ?budget ?vtree ?minimize ?compact_every ?(backend = `Sdd) q db =
  Ctwsdd_error.guard @@ fun () ->
  let chosen, reason, vtree = resolve_query backend ?vtree q db in
  Backend.note_selection ~requested:backend ~chosen ~reason;
  if minimize = Some true then Backend.require_minimizable chosen;
  let a = evaluate chosen ?budget ?vtree ?minimize ?compact_every q db in
  (* The pipeline re-notes its (explicit) selection; restore the
     query-level reason so [ctwsdd explain] shows why. *)
  Backend.note_selection ~requested:backend ~chosen ~reason;
  a

(* [via ~backend:`Obdd] on the pinned order, minus the selection
   record: a cross-check must not overwrite the run's own choice, so the
   selection the pipeline notes is rolled back. *)
let via_obdd q db =
  Ctwsdd_error.guard @@ fun () ->
  Backend.keep_selection @@ fun () ->
  evaluate `Obdd ?vtree:(linear_vtree (default_order q db)) q db

let via_sdd ?budget ?vtree ?minimize ?compact_every ?backend q db =
  via ?budget ?vtree ?minimize ?compact_every ?backend q db

let via_dnnf ?budget ?minimize ?compact_every q db =
  via ?budget ?minimize ?compact_every ~backend:`Dnnf q db

let unpack = function
  | Error e -> Ctwsdd_error.throw e
  | Ok { degraded = Some r; _ } -> raise (Budget.Exhausted r)
  | Ok a -> (a.probability, a.size)

let via_obdd_exn q db = unpack (via_obdd q db)

let via_sdd_exn ?budget ?vtree ?minimize ?compact_every ?backend q db =
  unpack (via_sdd ?budget ?vtree ?minimize ?compact_every ?backend q db)

let via_dnnf_exn ?budget ?minimize ?compact_every q db =
  unpack (via_dnnf ?budget ?minimize ?compact_every q db)
