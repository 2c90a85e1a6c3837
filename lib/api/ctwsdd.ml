module Error = Ctwsdd_error
module Budget = Budget

let compile = Pipeline.compile
let compile_exn = Pipeline.compile_exn
let compile_cnf = Pipeline.compile_cnf
let conjoin_components = Pipeline.conjoin_components
let prob = Prob.via
let prob_exn = Prob.via_exn

(* The count read off any backend's output is exact — including
   degraded anytime results, whose representation is merely larger. *)
let model_count ?budget ?vtree_strategy ?domains ?compact_every
    ?(backend = `Auto) c =
  Error.guard @@ fun () ->
  if Circuit.variables c = [] then
    if Circuit.eval c Boolfun.Smap.empty then Bigint.one else Bigint.zero
  else
    match
      Pipeline.compile ?budget ?vtree_strategy ~backend ?domains
        ?compact_every c
    with
    | Error e -> Error.throw e
    | Ok r -> Sdd.model_count r.Pipeline.manager r.Pipeline.root

let model_count_exn ?budget ?vtree_strategy ?domains ?compact_every ?backend c
    =
  match
    model_count ?budget ?vtree_strategy ?domains ?compact_every ?backend c
  with
  | Ok n -> n
  | Error e -> Error.throw e

let minimize ?budget ?max_steps ?domains f vt =
  Error.guard @@ fun () ->
  Vtree_search.minimize_sdd_size ?budget ?max_steps ?domains f vt

let minimize_exn ?budget ?max_steps ?domains f vt =
  Vtree_search.minimize_sdd_size_exn ?budget ?max_steps ?domains f vt
