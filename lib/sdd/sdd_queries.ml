let consistent m node = not (Sdd.is_false m node)
let valid m node = Sdd.is_true m node

let entails m f g = Sdd.is_false m (Sdd.conjoin m f (Sdd.negate m g))
let equivalent _ f g = Sdd.equal f g

let clause_entailed m node clause =
  let c =
    Sdd.disjoin_list m (List.map (fun (v, s) -> Sdd.literal m v s) clause)
  in
  entails m node c

let implicant m node term =
  let t =
    Sdd.conjoin_list m (List.map (fun (v, s) -> Sdd.literal m v s) term)
  in
  entails m t node

let restrict_term m node term =
  List.fold_left (fun acc (v, s) -> Sdd.condition m acc v s) node term

let forget m vars node =
  List.fold_left
    (fun acc v ->
      Sdd.disjoin m (Sdd.condition m acc v false) (Sdd.condition m acc v true))
    node vars

let models ?(limit = 64) m node =
  let vars = Vtree.leaf_order (Sdd.vtree m) in
  let out = ref [] in
  let count = ref 0 in
  let rec go assigned node = function
    | [] -> if !count < limit && Sdd.is_true m node then begin
        incr count;
        out := List.rev assigned :: !out
      end
    | v :: rest ->
      if !count < limit then begin
        let f = Sdd.condition m node v false in
        if not (Sdd.is_false m f) then go ((v, false) :: assigned) f rest;
        let t = Sdd.condition m node v true in
        if (not (Sdd.is_false m t)) && !count < limit then
          go ((v, true) :: assigned) t rest
      end
  in
  go [] node vars;
  List.rev !out
