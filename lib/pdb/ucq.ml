type term = Var of string | Const of string

type atom = { rel : string; args : term list }

type cq = { atoms : atom list; neqs : (term * term) list }

type t = cq list

let term_vars = function Var v -> [ v ] | Const _ -> []

let cq_variables cq =
  List.sort_uniq compare
    (List.concat_map (fun a -> List.concat_map term_vars a.args) cq.atoms
    @ List.concat_map (fun (a, b) -> term_vars a @ term_vars b) cq.neqs)

let variables q = List.sort_uniq compare (List.concat_map cq_variables q)

let relations q =
  let table = Hashtbl.create 8 in
  List.iter
    (fun cq ->
      List.iter
        (fun a ->
          let arity = List.length a.args in
          match Hashtbl.find_opt table a.rel with
          | Some ar when ar <> arity ->
            invalid_arg
              (Printf.sprintf "Ucq.relations: %s used with arities %d and %d"
                 a.rel ar arity)
          | Some _ -> ()
          | None -> Hashtbl.add table a.rel arity)
        cq.atoms)
    q;
  List.sort compare (Hashtbl.fold (fun r a acc -> (r, a) :: acc) table [])

let has_inequalities q = List.exists (fun cq -> cq.neqs <> []) q

let has_self_join cq =
  let rels = List.map (fun a -> a.rel) cq.atoms in
  List.length (List.sort_uniq compare rels) <> List.length rels

(* ------------------------------------------------------------------ *)
(* Parsing / printing                                                  *)
(* ------------------------------------------------------------------ *)

let pp_term ppf = function
  | Var v -> Format.pp_print_string ppf v
  | Const c -> Format.fprintf ppf "#%s" c

let pp_atom ppf a =
  Format.fprintf ppf "%s(%s)" a.rel
    (String.concat "," (List.map (Format.asprintf "%a" pp_term) a.args))

let pp_cq ppf cq =
  let parts =
    List.map (Format.asprintf "%a" pp_atom) cq.atoms
    @ List.map
        (fun (a, b) -> Format.asprintf "%a != %a" pp_term a pp_term b)
        cq.neqs
  in
  Format.pp_print_string ppf (String.concat ", " parts)

let pp ppf q =
  Format.pp_print_string ppf
    (String.concat " | " (List.map (Format.asprintf "%a" pp_cq) q))

let to_string q = Format.asprintf "%a" pp q

let of_string s =
  let parse_term t =
    let t = String.trim t in
    if t = "" then invalid_arg "Ucq.of_string: empty term"
    else if t.[0] = '#' then Const (String.sub t 1 (String.length t - 1))
    else Var t
  in
  let parse_cq part =
    (* Split on commas at depth 0 (commas inside parentheses separate
       atom arguments). *)
    let chunks = ref [] in
    let buf = Buffer.create 16 in
    let depth = ref 0 in
    String.iter
      (fun c ->
        match c with
        | '(' ->
          incr depth;
          Buffer.add_char buf c
        | ')' ->
          decr depth;
          Buffer.add_char buf c
        | ',' when !depth = 0 ->
          chunks := Buffer.contents buf :: !chunks;
          Buffer.clear buf
        | c -> Buffer.add_char buf c)
      part;
    chunks := Buffer.contents buf :: !chunks;
    let chunks = List.rev_map String.trim !chunks in
    let atoms = ref [] and neqs = ref [] in
    List.iter
      (fun chunk ->
        if chunk = "" then invalid_arg "Ucq.of_string: empty conjunct"
        else begin
          match
            let re_split sub =
              (* naive substring split *)
              let len = String.length sub in
              let rec find i =
                if i + len > String.length chunk then None
                else if String.sub chunk i len = sub then Some i
                else find (i + 1)
              in
              find 0
            in
            re_split "!="
          with
          | Some i ->
            let a = parse_term (String.sub chunk 0 i) in
            let b =
              parse_term (String.sub chunk (i + 2) (String.length chunk - i - 2))
            in
            neqs := (a, b) :: !neqs
          | None ->
            (match String.index_opt chunk '(' with
             | None -> invalid_arg ("Ucq.of_string: bad atom: " ^ chunk)
             | Some i ->
               if chunk.[String.length chunk - 1] <> ')' then
                 invalid_arg ("Ucq.of_string: missing ): " ^ chunk);
               let rel = String.trim (String.sub chunk 0 i) in
               if rel = "" then invalid_arg "Ucq.of_string: empty relation name";
               let inner = String.sub chunk (i + 1) (String.length chunk - i - 2) in
               let args =
                 if String.trim inner = "" then []
                 else List.map parse_term (String.split_on_char ',' inner)
               in
               atoms := { rel; args } :: !atoms)
        end)
      chunks;
    if !atoms = [] then invalid_arg "Ucq.of_string: conjunct without atoms";
    { atoms = List.rev !atoms; neqs = List.rev !neqs }
  in
  let parts = String.split_on_char '|' s in
  if List.for_all (fun p -> String.trim p = "") parts then
    invalid_arg "Ucq.of_string: empty query";
  List.map parse_cq parts

(* ------------------------------------------------------------------ *)
(* Semantics                                                           *)
(* ------------------------------------------------------------------ *)

(* All homomorphisms from the cq into the fact set, atom by atom, each
   atom reading the facts of its relation in fact order, so the
   matchings come in that order too.  Only [holds] reads them, on
   brute-force sizes. *)
let matchings cq facts =
  let facts_of = Pdb.index (fun (f : Pdb.tuple) -> f.Pdb.rel) facts in
  let value env = function
    | Const c -> c
    | Var v ->
      (match List.assoc_opt v env with
       | Some c -> c
       | None -> invalid_arg "Ucq: inequality over unbound variable")
  in
  let rec go env = function
    | [] ->
      (* Check inequalities (all variables are bound by atoms; unbound
         inequality variables make the query ill-formed). *)
      if List.for_all (fun (a, b) -> value env a <> value env b) cq.neqs then
        [ env ]
      else []
    | atom :: rest ->
      List.concat_map
        (fun (fact : Pdb.tuple) ->
          (* unify argument lists *)
          let rec unify env ts cs =
            match (ts, cs) with
            | [], [] -> Some env
            | t :: ts, c :: cs ->
              (match t with
               | Const k -> if k = c then unify env ts cs else None
               | Var v ->
                 (match List.assoc_opt v env with
                  | Some k -> if k = c then unify env ts cs else None
                  | None -> unify ((v, c) :: env) ts cs))
            | _ -> None
          in
          match unify env atom.args fact.Pdb.args with
          | Some env' -> go env' rest
          | None -> [])
        (facts_of atom.rel)
  in
  go [] cq.atoms

let holds q facts = List.exists (fun cq -> matchings cq facts <> []) q
