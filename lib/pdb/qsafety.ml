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
(* Elimination plans                                                   *)
(* ------------------------------------------------------------------ *)

let atom_vars (a : Ucq.atom) =
  List.concat_map (function Ucq.Var v -> [ v ] | Ucq.Const _ -> []) a.Ucq.args

(* Connected components under shared variables, [vars_of] giving each
   item's variables; each group keeps its items in input order.  The
   elimination [plan] groups a conjunct's atoms and inequalities with
   it. *)
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

type candidate = { args : string array; name : string }

let named facts =
  List.map
    (fun (f : Pdb.tuple) ->
      (f.Pdb.rel, { args = Array.of_list f.Pdb.args; name = Pdb.var_name f }))
    facts

let candidates named =
  let facts_of = Pdb.index fst named in
  fun (a : Ucq.atom) ->
    let arity = List.length a.Ucq.args in
    let rec fits args i = function
      | [] -> true
      | Ucq.Const k :: ts -> String.equal args.(i) k && fits args (i + 1) ts
      | Ucq.Var _ :: ts -> fits args (i + 1) ts
    in
    List.filter_map
      (fun (_, c) ->
        if Array.length c.args = arity && fits c.args 0 a.Ucq.args then Some c
        else None)
      (facts_of a.Ucq.rel)

type plan =
  | Ground of { atoms : int list; neqs : (Ucq.term * Ucq.term) list }
  | Root of {
      var : string;
      atoms : int list;
      keyed : (int * int list) list;
      subs : plan list;
    }

type item = Atom of int * Ucq.atom | Neq of Ucq.term * Ucq.term

(* The recursion follows the query alone: which items form a component
   once the variables in [fixed] are, the variable it eliminates, where
   that variable occurs in each atom, and the components below — the
   same for every constant, since a constant joins nothing.  Atoms are
   numbered by their position in the conjunct. *)
let rec plan_items fixed items =
  let free = List.filter (fun v -> not (List.mem v fixed)) in
  let item_vars = function
    | Atom (_, a) -> free (atom_vars a)
    | Neq (s, t) ->
      free (List.concat_map (function Ucq.Var v -> [ v ] | Ucq.Const _ -> []) [ s; t ])
  in
  List.map
    (fun comp ->
      let atoms =
        List.filter_map (function Atom (i, _) -> Some i | Neq _ -> None) comp
      in
      match List.sort_uniq compare (List.concat_map item_vars comp) with
      | [] ->
        Ground
          {
            atoms;
            neqs =
              List.filter_map
                (function Neq (s, t) -> Some (s, t) | Atom _ -> None)
                comp;
          }
      | vars ->
        let holds x = function
          | Atom (_, (a : Ucq.atom)) -> List.mem (Ucq.Var x) a.Ucq.args
          | Neq _ -> false
        in
        (* The variable in the most atoms, the first in sorted order on
           a tie.  A connected hierarchical conjunct has a root variable
           occurring in every atom, so that is the root. *)
        let root, n =
          List.fold_left
            (fun (r, n) x ->
              let k = List.length (List.filter (holds x) comp) in
              if k > n then (x, k) else (r, n))
            ("", 0) vars
        in
        if n = 0 then
          invalid_arg "Qsafety.plan: inequality over a variable no atom binds";
        let positions (a : Ucq.atom) =
          List.concat
            (List.mapi
               (fun i t -> if t = Ucq.Var root then [ i ] else [])
               a.Ucq.args)
        in
        Root
          {
            var = root;
            atoms;
            keyed =
              List.filter_map
                (function
                  | Atom (i, a) as it when holds root it -> Some (i, positions a)
                  | _ -> None)
                comp;
            subs = plan_items (root :: fixed) comp;
          })
    (components_by item_vars items)

let plan (cq : Ucq.cq) =
  plan_items []
    (List.mapi (fun i a -> Atom (i, a)) cq.Ucq.atoms
    @ List.map (fun (s, t) -> Neq (s, t)) cq.Ucq.neqs)

let rec agree args k = function
  | [] -> true
  | i :: pos -> String.equal args.(i) k && agree args k pos

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

(* ------------------------------------------------------------------ *)
(* Hierarchical variable order for lineages                            *)
(* ------------------------------------------------------------------ *)

let rec push_names acc = function
  | [] -> acc
  | c :: cands -> push_names (c.name :: acc) cands

(* Prepends the order's names to [acc], last first.  [cands.(i)] holds
   the facts atom [i] may still match under the constants fixed so far;
   a [Root] overwrites its atoms' entries for each constant in turn, and
   no other plan reads them (every atom of a hierarchical component
   holds its root).  Only constants some candidate carries at the root
   add names, so the walk skips the rest of the domain. *)
let rec emit cands acc = function
  | [] -> acc
  | Ground { atoms; _ } :: plans ->
    let acc = List.fold_left (fun acc i -> push_names acc cands.(i)) acc atoms in
    emit cands acc plans
  | Root { keyed; subs; _ } :: plans ->
    let split = List.map (fun (i, pos) -> (i, split_at pos cands.(i))) keyed in
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
    let named = named db.Pdb.facts in
    let candidates = candidates named in
    (* The order ignores inequalities: they only remove models. *)
    let main =
      List.rev
        (emit
           (Array.of_list (List.map candidates cq.Ucq.atoms))
           [] (plan { cq with Ucq.neqs = [] }))
    in
    let in_main = Hashtbl.create (List.length main) in
    List.iter (fun v -> Hashtbl.replace in_main v ()) main;
    let rest =
      List.filter_map
        (fun (_, c) -> if Hashtbl.mem in_main c.name then None else Some c.name)
        named
    in
    Some (main @ List.sort compare rest)
  end
