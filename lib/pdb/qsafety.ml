let atoms_of_var cq x =
  List.mapi (fun i a -> (i, a)) cq.Ucq.atoms
  |> List.filter_map (fun (i, (a : Ucq.atom)) ->
         if List.exists (fun t -> t = Ucq.Var x) a.Ucq.args then Some i else None)

(* Each variable of the conjunct with the atoms containing it, and the
   comparability test of the hierarchy condition. *)
let var_atom_sets cq =
  List.map (fun x -> (x, atoms_of_var cq x)) (Ucq.cq_variables cq)

let subset a b = List.for_all (fun i -> List.mem i b) a
let meets a b = List.exists (fun i -> List.mem i b) a

let hierarchical_cq cq =
  let sets = var_atom_sets cq in
  List.for_all
    (fun (_, sx) ->
      List.for_all
        (fun (_, sy) -> (not (meets sx sy)) || subset sx sy || subset sy sx)
        sets)
    sets

let hierarchical q = List.for_all hierarchical_cq q

let inversion_free q =
  List.for_all (fun cq -> hierarchical_cq cq && not (Ucq.has_self_join cq)) q

let witness_non_hierarchical cq =
  let rec find = function
    | [] -> None
    | (x, sx) :: rest ->
      (match
         List.find_opt
           (fun (_, sy) ->
             meets sx sy && (not (subset sx sy)) && not (subset sy sx))
           rest
       with
       | Some (y, _) -> Some (x, y)
       | None -> find rest)
  in
  find (var_atom_sets cq)

(* ------------------------------------------------------------------ *)
(* Hierarchical variable order for lineages                            *)
(* ------------------------------------------------------------------ *)

let atom_vars (a : Ucq.atom) =
  List.concat_map (function Ucq.Var v -> [ v ] | Ucq.Const _ -> []) a.Ucq.args

(* Connected components under shared variables, [vars_of] giving each
   item's variables; each group keeps its items in input order.  The
   order's [plan] groups numbered atoms with it. *)
let components_by vars_of items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let vars = Array.map vars_of arr in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else begin
      parent.(i) <- find parent.(i);
      parent.(i)
    end
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if List.exists (fun v -> List.mem v vars.(j)) vars.(i) then begin
        let ri = find i and rj = find j in
        if ri <> rj then parent.(ri) <- rj
      end
    done
  done;
  let groups = Hashtbl.create 8 in
  Array.iteri
    (fun i a ->
      let r = find i in
      match Hashtbl.find_opt groups r with
      | Some l -> l := a :: !l
      | None -> Hashtbl.add groups r (ref [ a ]))
    arr;
  Hashtbl.fold (fun _ l acc -> List.rev !l :: acc) groups []

let components atoms = components_by atom_vars atoms

let substitute x c (a : Ucq.atom) =
  {
    a with
    Ucq.args =
      List.map
        (function Ucq.Var v when v = x -> Ucq.Const c | t -> t)
        a.Ucq.args;
  }

(* A fact that still matches its atom's constants, with its lineage
   variable. *)
type candidate = { args : string array; name : string }

(* The order's recursion follows the query alone: which atoms form a
   component, its root variable, where the root occurs in each atom, and
   the components once the root is fixed to a constant — the same for
   every constant, since a constant joins nothing.  Atoms are numbered
   by their position in the conjunct. *)
type plan =
  | Ground of int list
  | Root of (int * int list) list * plan list

let rec plan items =
  let item_vars (_, a) = atom_vars a in
  List.map
    (fun comp ->
      let vars = List.sort_uniq compare (List.concat_map item_vars comp) in
      if vars = [] then Ground (List.map fst comp)
      else begin
        (* Connected hierarchical conjuncts have a root variable
           occurring in every atom. *)
        let root =
          List.find
            (fun x -> List.for_all (fun a -> List.mem x (item_vars a)) comp)
            vars
        in
        let positions (a : Ucq.atom) =
          List.concat
            (List.mapi
               (fun i t -> if t = Ucq.Var root then [ i ] else [])
               a.Ucq.args)
        in
        (* Any constant stands for the root's value here: only the
           variables left shape the sub-plan. *)
        Root
          ( List.map (fun (i, a) -> (i, positions a)) comp,
            plan (List.map (fun (i, a) -> (i, substitute root root a)) comp) )
      end)
    (components_by item_vars items)

let rec agree args k = function
  | [] -> true
  | i :: pos -> String.equal args.(i) k && agree args k pos

(* Candidates keyed by the constant at [pos] (every position must carry
   the same one), each bucket in fact order. *)
let split_at pos cands =
  let first = List.hd pos in
  let buckets = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let k = c.args.(first) in
      if agree c.args k pos then
        Hashtbl.replace buckets k
          (c :: Option.value ~default:[] (Hashtbl.find_opt buckets k)))
    (List.rev cands);
  buckets

let rec push_names acc = function
  | [] -> acc
  | c :: cands -> push_names (c.name :: acc) cands

(* Prepends the order's names to [acc], last first.  [cands.(i)] holds
   the facts atom [i] may still match under the constants fixed so far;
   a [Root] overwrites its atoms' entries for each constant in turn, and
   no other plan reads them.  Only constants some candidate carries at
   the root add names, so the walk skips the rest of the domain. *)
let rec emit cands acc = function
  | [] -> acc
  | Ground atoms :: plans ->
    let acc = List.fold_left (fun acc i -> push_names acc cands.(i)) acc atoms in
    emit cands acc plans
  | Root (atoms, subs) :: plans ->
    let split = List.map (fun (i, pos) -> (i, split_at pos cands.(i))) atoms in
    let consts =
      List.sort_uniq compare
        (List.concat_map
           (fun (_, b) -> Hashtbl.fold (fun k _ acc -> k :: acc) b [])
           split)
    in
    let rec fix k = function
      | [] -> ()
      | (i, b) :: split ->
        cands.(i) <- Option.value ~default:[] (Hashtbl.find_opt b k);
        fix k split
    in
    let acc =
      List.fold_left
        (fun acc k ->
          fix k split;
          emit cands acc subs)
        acc consts
    in
    emit cands acc plans

let hierarchical_variable_order cq db =
  if (not (hierarchical_cq cq)) || Ucq.has_self_join cq then None
  else begin
    let named = List.map (fun f -> (f, Pdb.var_name f)) db.Pdb.facts in
    let facts_of = Pdb.index (fun ((f : Pdb.tuple), _) -> f.Pdb.rel) named in
    let candidates (a : Ucq.atom) =
      let arity = List.length a.Ucq.args in
      List.filter_map
        (fun ((f : Pdb.tuple), name) ->
          if
            List.length f.Pdb.args = arity
            && List.for_all2
                 (fun t c ->
                   match t with Ucq.Const k -> k = c | Ucq.Var _ -> true)
                 a.Ucq.args f.Pdb.args
          then Some { args = Array.of_list f.Pdb.args; name }
          else None)
        (facts_of a.Ucq.rel)
    in
    let atoms = List.mapi (fun i a -> (i, a)) cq.Ucq.atoms in
    let main =
      List.rev
        (emit (Array.of_list (List.map candidates cq.Ucq.atoms)) [] (plan atoms))
    in
    let in_main = Hashtbl.create (List.length main) in
    List.iter (fun v -> Hashtbl.replace in_main v ()) main;
    let rest =
      List.filter_map
        (fun (_, name) -> if Hashtbl.mem in_main name then None else Some name)
        named
    in
    Some (main @ List.sort compare rest)
  end
