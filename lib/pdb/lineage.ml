let variables db = List.sort compare (List.map Pdb.var_name db.Pdb.facts)

module B = Circuit.Builder

(* The lineage of one conjunct along its plan, [None] for ⊥.
   [cands.(i)] holds the facts atom [i] may still match under the
   constants fixed so far, and [env] those constants by variable.  A
   [Root] narrows its keyed atoms for each constant in turn and puts
   their lists back when done, since the same atoms are read again under
   the next constant of an enclosing root. *)
let conjunct b candidates (cq : Ucq.cq) =
  let plans = Qsafety.plan cq in
  let cands = Array.of_list (List.map candidates cq.Ucq.atoms) in
  let value env = function Ucq.Const c -> c | Ucq.Var v -> List.assoc v env in
  let empty i = cands.(i) = [] in
  (* A component with an atom that has no candidate, or a false
     inequality, is ⊥ before any of its facts is named. *)
  let dead env = function
    | Qsafety.Ground { atoms; neqs } ->
      List.exists empty atoms
      || List.exists (fun (s, t) -> String.equal (value env s) (value env t)) neqs
    | Qsafety.Root { atoms; _ } -> List.exists empty atoms
  in
  let rec conj env plans =
    if List.exists (dead env) plans then None else gates env [] plans
  and gates env acc = function
    | [] -> Some (B.and_ b acc)
    | Qsafety.Ground { atoms; _ } :: plans ->
      gates env
        (List.fold_left
           (fun acc i ->
             List.fold_left
               (fun acc (c : Qsafety.candidate) -> B.var b c.name :: acc)
               acc cands.(i))
           acc atoms)
        plans
    | Qsafety.Root { var; keyed; subs; _ } :: plans ->
      let saved = List.map (fun (i, _) -> cands.(i)) keyed in
      let split =
        List.map (fun (i, pos) -> (i, Qsafety.split_at pos cands.(i))) keyed
      in
      (* The constants every keyed atom still has a fact for. *)
      let consts =
        match split with
        | [] -> []
        | (_, t) :: rest ->
          List.sort String.compare
            (Hashtbl.fold
               (fun k _ acc ->
                 if List.for_all (fun (_, t) -> Hashtbl.mem t k) rest then
                   k :: acc
                 else acc)
               t [])
      in
      let disjuncts =
        List.filter_map
          (fun k ->
            List.iter (fun (i, t) -> cands.(i) <- Hashtbl.find t k) split;
            conj ((var, k) :: env) subs)
          consts
      in
      List.iter2 (fun (i, _) l -> cands.(i) <- l) keyed saved;
      if disjuncts = [] then None
      else gates env (B.or_ b disjuncts :: acc) plans
  in
  conj [] plans

let circuit q db =
  Obs.span "lineage.circuit" @@ fun () ->
  let b = B.create () in
  let candidates = Qsafety.candidates (Qsafety.named db.Pdb.facts) in
  let c =
    B.build b (B.or_ b (List.filter_map (conjunct b candidates) q))
  in
  if Obs.enabled () then begin
    Obs.gauge_max "lineage.gates" (Circuit.size c);
    Obs.gauge_max "lineage.tuple_vars" (List.length (Circuit.variables c))
  end;
  c

let boolfun q db = Boolfun.lift (Circuit.to_boolfun (circuit q db)) (variables db)

let brute_force q db =
  let vars = variables db in
  Boolfun.of_fun vars (fun asg ->
      let present =
        List.filter (fun fact -> Boolfun.Smap.find (Pdb.var_name fact) asg) db.Pdb.facts
      in
      Ucq.holds q present)
