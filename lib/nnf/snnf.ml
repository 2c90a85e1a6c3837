module SSet = Set.Make (String)

let is_nnf = Circuit.is_nnf

(* Variable set of every subcircuit, bottom-up. *)
let var_sets c =
  let n = Circuit.size c in
  let sets = Array.make n SSet.empty in
  for i = 0 to n - 1 do
    sets.(i) <-
      (match Circuit.gate c i with
       | Circuit.Var v -> SSet.singleton v
       | Circuit.Const _ -> SSet.empty
       | Circuit.Not j -> sets.(j)
       | Circuit.And js | Circuit.Or js ->
         List.fold_left (fun acc j -> SSet.union acc sets.(j)) SSet.empty js)
  done;
  sets

let is_decomposable c =
  let sets = var_sets c in
  let rec pairwise_disjoint = function
    | [] -> true
    | j :: rest ->
      List.for_all (fun j' -> SSet.disjoint sets.(j) sets.(j')) rest
      && pairwise_disjoint rest
  in
  let ok = ref true in
  for i = 0 to Circuit.size c - 1 do
    match Circuit.gate c i with
    | Circuit.And js -> if not (pairwise_disjoint js) then ok := false
    | _ -> ()
  done;
  !ok

let is_deterministic c =
  let vars = Circuit.variables c in
  let n = Circuit.size c in
  let funs = Array.make n Boolfun.ff in
  for i = 0 to n - 1 do
    funs.(i) <-
      (match Circuit.gate c i with
       | Circuit.Var v -> Boolfun.var v
       | Circuit.Const b -> Boolfun.const [] b
       | Circuit.Not j -> Boolfun.not_ funs.(j)
       | Circuit.And js -> Boolfun.and_list (List.map (fun j -> funs.(j)) js)
       | Circuit.Or js -> Boolfun.or_list (List.map (fun j -> funs.(j)) js))
  done;
  (* Determinism is defined viewing subcircuits over var(C): lift before
     intersecting. *)
  let ok = ref true in
  for i = 0 to n - 1 do
    match Circuit.gate c i with
    | Circuit.Or js ->
      let rec pairwise = function
        | [] -> ()
        | j :: rest ->
          List.iter
            (fun j' ->
              let inter =
                Boolfun.and_
                  (Boolfun.lift funs.(j) vars)
                  (Boolfun.lift funs.(j') vars)
              in
              if Boolfun.count_models_int inter <> 0 then ok := false)
            rest;
          pairwise rest
      in
      pairwise js
    | _ -> ()
  done;
  !ok

(* The two children of an AND gate are unordered; a node structures the
   gate if the children's variables fit its (left, right) subtrees in
   either orientation. *)
let structuring_node_of vt left_vars right_vars =
  let fits v =
    let below node set =
      SSet.for_all
        (fun x ->
          match Vtree.leaf_of_var vt x with
          | leaf -> Vtree.is_ancestor vt node leaf
          | exception Not_found -> false)
        set
    in
    (not (Vtree.is_leaf vt v))
    && ((below (Vtree.left vt v) left_vars && below (Vtree.right vt v) right_vars)
        || (below (Vtree.left vt v) right_vars && below (Vtree.right vt v) left_vars))
  in
  List.find_opt fits (Vtree.nodes vt)

let structuring_nodes c vt =
  let sets = var_sets c in
  let acc = ref [] in
  for i = 0 to Circuit.size c - 1 do
    match Circuit.gate c i with
    | Circuit.And [ a; b ] ->
      (match structuring_node_of vt sets.(a) sets.(b) with
       | Some v -> acc := (i, v) :: !acc
       | None -> raise Not_found)
    | _ -> ()
  done;
  List.rev !acc

let is_structured_by c vt =
  let sets = var_sets c in
  let ok = ref true in
  for i = 0 to Circuit.size c - 1 do
    match Circuit.gate c i with
    | Circuit.And [ a; b ] ->
      if structuring_node_of vt sets.(a) sets.(b) = None then ok := false
    | Circuit.And _ -> ok := false
    | _ -> ()
  done;
  !ok

let is_d_sdnnf c vt = is_nnf c && is_structured_by c vt && is_deterministic c

(* ------------------------------------------------------------------ *)
(* Linear-time counting (valid on decomposable deterministic NNFs)     *)
(* ------------------------------------------------------------------ *)

let model_count c =
  let sets = var_sets c in
  let n = Circuit.size c in
  let counts = Array.make n Bigint.zero in
  for i = 0 to n - 1 do
    counts.(i) <-
      (match Circuit.gate c i with
       | Circuit.Var _ -> Bigint.one
       | Circuit.Const true -> Bigint.one
       | Circuit.Const false -> Bigint.zero
       | Circuit.Not j ->
         (* NNF: literal; one model over its single variable. *)
         ignore j;
         Bigint.one
       | Circuit.And js -> Bigint.product (List.map (fun j -> counts.(j)) js)
       | Circuit.Or js ->
         Bigint.sum
           (List.map
              (fun j ->
                let gap = SSet.cardinal sets.(i) - SSet.cardinal sets.(j) in
                Bigint.mul (Bigint.pow2 gap) counts.(j))
              js))
  done;
  let out = Circuit.output c in
  let gap = List.length (Circuit.variables c) - SSet.cardinal sets.(out) in
  Bigint.mul (Bigint.pow2 gap) counts.(out)

let weighted one zero add mul lit_weight c =
  let n = Circuit.size c in
  let probs = Array.make n zero in
  for i = 0 to n - 1 do
    probs.(i) <-
      (match Circuit.gate c i with
       | Circuit.Var v -> lit_weight v true
       | Circuit.Const true -> one
       | Circuit.Const false -> zero
       | Circuit.Not j ->
         (match Circuit.gate c j with
          | Circuit.Var v -> lit_weight v false
          | Circuit.Const b -> if b then zero else one
          | _ -> invalid_arg "Snnf.probability: not an NNF")
       | Circuit.And js -> List.fold_left (fun acc j -> mul acc probs.(j)) one js
       | Circuit.Or js -> List.fold_left (fun acc j -> add acc probs.(j)) zero js)
  done;
  probs.(Circuit.output c)

let probability c w =
  weighted 1.0 0.0 ( +. ) ( *. )
    (fun v pos -> if pos then w v else 1.0 -. w v)
    c

let probability_ratio c w =
  weighted Ratio.one Ratio.zero Ratio.add Ratio.mul
    (fun v pos -> if pos then w v else Ratio.sub Ratio.one (w v))
    c
