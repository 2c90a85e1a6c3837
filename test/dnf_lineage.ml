(* The lineage as a DNF: one AND per match of a conjunct, all ORed
   together.  This was [Lineage.circuit] before it factored the lineage
   one variable at a time; it stays as the reference the factored
   builder must equal as a function, and as a fixture with one wide Or
   gate of And terms.  The matches come from a scan of every fact per
   atom, sharing no code with [Ucq.matchings]. *)

(* All matches of the conjunct, atom by atom, each atom scanning every
   fact. *)
let matchings (cq : Ucq.cq) facts =
  let resolve env = function
    | Ucq.Const c -> Some c
    | Ucq.Var v -> List.assoc_opt v env
  in
  let rec go env = function
    | [] ->
      let value t =
        match resolve env t with
        | Some c -> c
        | None -> invalid_arg "Ucq: inequality over unbound variable"
      in
      if List.for_all (fun (a, b) -> value a <> value b) cq.Ucq.neqs then
        [ env ]
      else []
    | (atom : Ucq.atom) :: rest ->
      List.concat_map
        (fun (fact : Pdb.tuple) ->
          if fact.Pdb.rel <> atom.Ucq.rel
             || List.length fact.Pdb.args <> List.length atom.Ucq.args
          then []
          else begin
            let rec unify env ts cs =
              match (ts, cs) with
              | [], [] -> Some env
              | t :: ts, c :: cs ->
                (match t with
                 | Ucq.Const k -> if k = c then unify env ts cs else None
                 | Ucq.Var v ->
                   (match List.assoc_opt v env with
                    | Some k -> if k = c then unify env ts cs else None
                    | None -> unify ((v, c) :: env) ts cs))
              | _ -> None
            in
            match unify env atom.Ucq.args fact.Pdb.args with
            | Some env' -> go env' rest
            | None -> []
          end)
        facts
  in
  go [] cq.Ucq.atoms

let circuit q db =
  let b = Circuit.Builder.create () in
  let ground env (a : Ucq.atom) =
    Pdb.var_name
      (Pdb.tuple a.Ucq.rel
         (List.map
            (function
              | Ucq.Const c -> c | Ucq.Var v -> List.assoc v env)
            a.Ucq.args))
  in
  let disjuncts =
    List.concat_map
      (fun (cq : Ucq.cq) ->
        List.map
          (fun env ->
            Circuit.Builder.and_ b
              (List.map (Circuit.Builder.var b)
                 (List.sort_uniq compare (List.map (ground env) cq.Ucq.atoms))))
          (matchings cq db.Pdb.facts))
      q
  in
  Circuit.Builder.build b (Circuit.Builder.or_ b disjuncts)
