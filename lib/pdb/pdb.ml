type tuple = { rel : string; args : string list }

type t = { facts : tuple list; prob : tuple -> Ratio.t }

let tuple rel args = { rel; args }

let var_name t = String.concat "" [ t.rel; "("; String.concat "," t.args; ")" ]

(* A fact names its relation and each constant with a non-empty string;
   a nullary fact [R()] has no constants. *)
let check_tuple fn t =
  if t.rel = "" || List.exists (fun a -> a = "") t.args then
    let what = if t.rel = "" then "relation name" else "constant" in
    invalid_arg (Printf.sprintf "%s: empty %s in %s" fn what (var_name t))

let tuple_of_var s =
  match String.index_opt s '(' with
  | None -> invalid_arg "Pdb.tuple_of_var: missing parenthesis"
  | Some i ->
    if String.length s = 0 || s.[String.length s - 1] <> ')' then
      invalid_arg "Pdb.tuple_of_var: missing closing parenthesis";
    let rel = String.sub s 0 i in
    let inner = String.sub s (i + 1) (String.length s - i - 2) in
    let args = if inner = "" then [] else String.split_on_char ',' inner in
    let t = { rel; args } in
    check_tuple "Pdb.tuple_of_var" t;
    t

let make entries =
  let facts = List.map fst entries in
  let sorted = List.sort_uniq compare facts in
  if List.length sorted <> List.length facts then
    invalid_arg "Pdb.make: duplicate facts";
  (* Sorted, a relation's facts are adjacent, so two arities meet. *)
  let rec check_arities = function
    | p :: (t :: _ as rest) ->
      if p.rel = t.rel && List.compare_lengths p.args t.args <> 0 then
        invalid_arg
          (Printf.sprintf "Pdb.make: %s used with arities %d and %d" t.rel
             (List.length p.args) (List.length t.args));
      check_arities rest
    | _ -> ()
  in
  List.iter (check_tuple "Pdb.make") sorted;
  check_arities sorted;
  List.iter
    (fun (t, p) ->
      if Ratio.sign p < 0 || Ratio.compare p Ratio.one > 0 then
        invalid_arg
          (Printf.sprintf "Pdb.make: probability %s of %s is outside [0, 1]"
             (Ratio.to_string p) (var_name t)))
    entries;
  let table = Hashtbl.create (List.length entries) in
  List.iter (fun (t, p) -> Hashtbl.replace table t p) entries;
  {
    facts;
    prob =
      (fun t ->
        match Hashtbl.find_opt table t with
        | Some p -> p
        | None -> Ratio.zero);
  }

let uniform p facts = make (List.map (fun t -> (t, p)) facts)

let index key items =
  let table = Hashtbl.create 8 in
  List.iter
    (fun x ->
      let k = key x in
      Hashtbl.replace table k
        (x :: Option.value ~default:[] (Hashtbl.find_opt table k)))
    (List.rev items);
  fun k -> Option.value ~default:[] (Hashtbl.find_opt table k)

let active_domain db =
  List.sort_uniq compare (List.concat_map (fun t -> t.args) db.facts)

let subdatabases db =
  List.fold_left
    (fun acc fact -> acc @ List.map (fun s -> fact :: s) acc)
    [ [] ] db.facts

let prob_of_subset db subset =
  List.fold_left
    (fun acc fact ->
      let p = db.prob fact in
      if List.mem fact subset then Ratio.mul acc p
      else Ratio.mul acc (Ratio.sub Ratio.one p))
    Ratio.one db.facts

let half = Ratio.of_ints 1 2

let complete_rst n =
  let d = List.init n (fun i -> string_of_int (i + 1)) in
  let facts =
    List.map (fun i -> tuple "R" [ i ]) d
    @ List.concat_map (fun i -> List.map (fun j -> tuple "S" [ i; j ]) d) d
    @ List.map (fun j -> tuple "T" [ j ]) d
  in
  uniform half facts

let chain_database ~k n =
  let d = List.init n (fun i -> string_of_int (i + 1)) in
  let facts =
    List.map (fun i -> tuple "R" [ i ]) d
    @ List.concat_map
        (fun p ->
          List.concat_map
            (fun i -> List.map (fun j -> tuple (Printf.sprintf "S%d" p) [ i; j ]) d)
            d)
        (List.init k (fun p -> p + 1))
    @ List.map (fun j -> tuple "T" [ j ]) d
  in
  uniform half facts

let pp_tuple ppf t = Format.pp_print_string ppf (var_name t)

let pp ppf db =
  Format.fprintf ppf "@[<v>database (%d facts):@," (List.length db.facts);
  List.iter
    (fun t ->
      Format.fprintf ppf "  %a : %a@," pp_tuple t Ratio.pp (db.prob t))
    db.facts;
  Format.fprintf ppf "@]"
