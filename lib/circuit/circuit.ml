type gate =
  | Var of string
  | Const of bool
  | Not of int
  | And of int list
  | Or of int list

type t = { gates : gate array; output : int }

(* ------------------------------------------------------------------ *)
(* Builder with hash-consing                                           *)
(* ------------------------------------------------------------------ *)

module Builder = struct
  type b = {
    mutable gates : gate list; (* reversed *)
    mutable count : int;
    cons : (gate, int) Hashtbl.t;
  }

  let create () = { gates = []; count = 0; cons = Hashtbl.create 64 }

  let push b g =
    match Hashtbl.find_opt b.cons g with
    | Some id -> id
    | None ->
      let id = b.count in
      b.gates <- g :: b.gates;
      b.count <- b.count + 1;
      Hashtbl.add b.cons g id;
      id

  let check b i =
    if i < 0 || i >= b.count then invalid_arg "Circuit.Builder: dangling wire"

  let var b v = push b (Var v)
  let const b c = push b (Const c)

  let not_ b i =
    check b i;
    push b (Not i)

  let norm_args b args =
    List.iter (check b) args;
    List.sort_uniq compare args

  let and_ b args =
    match norm_args b args with
    | [] -> const b true
    | [ i ] -> i
    | args -> push b (And args)

  let or_ b args =
    match norm_args b args with
    | [] -> const b false
    | [ i ] -> i
    | args -> push b (Or args)

  let build b out =
    check b out;
    let gates = Array.of_list (List.rev b.gates) in
    (* Garbage-collect gates not reachable from the output. *)
    let n = Array.length gates in
    let reach = Array.make n false in
    let rec mark i =
      if not reach.(i) then begin
        reach.(i) <- true;
        match gates.(i) with
        | Var _ | Const _ -> ()
        | Not j -> mark j
        | And js | Or js -> List.iter mark js
      end
    in
    mark out;
    let remap = Array.make n (-1) in
    let kept = ref [] in
    let next = ref 0 in
    for i = 0 to n - 1 do
      if reach.(i) then begin
        remap.(i) <- !next;
        incr next;
        let g =
          match gates.(i) with
          | (Var _ | Const _) as g -> g
          | Not j -> Not remap.(j)
          | And js -> And (List.map (fun j -> remap.(j)) js)
          | Or js -> Or (List.map (fun j -> remap.(j)) js)
        in
        kept := g :: !kept
      end
    done;
    { gates = Array.of_list (List.rev !kept); output = remap.(out) }
end

let of_gates gates output =
  let n = Array.length gates in
  if output < 0 || output >= n then invalid_arg "Circuit.of_gates: bad output";
  Array.iteri
    (fun i g ->
      let check j =
        if j < 0 || j >= i then
          invalid_arg "Circuit.of_gates: wire violates topological order"
      in
      match g with
      | Var _ | Const _ -> ()
      | Not j -> check j
      | And js | Or js ->
        if js = [] then invalid_arg "Circuit.of_gates: empty gate";
        List.iter check js)
    gates;
  { gates; output }

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let size c = Array.length c.gates
let output c = c.output
let gate c i = c.gates.(i)

let variables c =
  let vs = ref [] in
  Array.iter (function Var v -> vs := v :: !vs | _ -> ()) c.gates;
  List.sort_uniq compare !vs

let num_vars c = List.length (variables c)

let fanin c i =
  match c.gates.(i) with
  | Var _ | Const _ -> []
  | Not j -> [ j ]
  | And js | Or js -> js

let fanout_counts c =
  let counts = Array.make (size c) 0 in
  Array.iteri
    (fun _ g ->
      match g with
      | Var _ | Const _ -> ()
      | Not j -> counts.(j) <- counts.(j) + 1
      | And js | Or js -> List.iter (fun j -> counts.(j) <- counts.(j) + 1) js)
    c.gates;
  counts

let is_nnf c =
  Array.for_all
    (function
      | Not j -> (match c.gates.(j) with Var _ | Const _ -> true | _ -> false)
      | _ -> true)
    c.gates

(* ------------------------------------------------------------------ *)
(* Semantics                                                           *)
(* ------------------------------------------------------------------ *)

let eval c a =
  let n = size c in
  let vals = Array.make n false in
  for i = 0 to n - 1 do
    vals.(i) <-
      (match c.gates.(i) with
       | Var v -> Boolfun.Smap.find v a
       | Const b -> b
       | Not j -> not vals.(j)
       | And js -> List.for_all (fun j -> vals.(j)) js
       | Or js -> List.exists (fun j -> vals.(j)) js)
  done;
  vals.(c.output)

let to_boolfun c =
  let n = size c in
  let vars = variables c in
  let funs = Array.make n Boolfun.ff in
  for i = 0 to n - 1 do
    funs.(i) <-
      (match c.gates.(i) with
       | Var v -> Boolfun.var v
       | Const b -> Boolfun.const [] b
       | Not j -> Boolfun.not_ funs.(j)
       | And js -> Boolfun.and_list (List.map (fun j -> funs.(j)) js)
       | Or js -> Boolfun.or_list (List.map (fun j -> funs.(j)) js))
  done;
  (* Lift to the full variable set in case the output ignores some vars. *)
  Boolfun.lift funs.(c.output) vars

let equivalent c d = Boolfun.equal (to_boolfun c) (to_boolfun d)

(* ------------------------------------------------------------------ *)
(* Transformations                                                     *)
(* ------------------------------------------------------------------ *)

let to_nnf c =
  let b = Builder.create () in
  let n = size c in
  (* memo.(i) holds (positive, negative) translations of gate i. *)
  let memo = Array.make n None in
  let rec pos i =
    match memo.(i) with
    | Some (p, _) -> p
    | None ->
      let p = compute_pos i in
      let ng = neg_aux i in
      memo.(i) <- Some (p, ng);
      p
  and neg i =
    match memo.(i) with
    | Some (_, ng) -> ng
    | None ->
      let p = compute_pos i in
      let ng = neg_aux i in
      memo.(i) <- Some (p, ng);
      ng
  and compute_pos i =
    match c.gates.(i) with
    | Var v -> Builder.var b v
    | Const v -> Builder.const b v
    | Not j -> neg j
    | And js -> Builder.and_ b (List.map pos js)
    | Or js -> Builder.or_ b (List.map pos js)
  and neg_aux i =
    match c.gates.(i) with
    | Var v -> Builder.not_ b (Builder.var b v)
    | Const v -> Builder.const b (not v)
    | Not j -> pos j
    | And js -> Builder.or_ b (List.map neg js)
    | Or js -> Builder.and_ b (List.map neg js)
  in
  let out = pos c.output in
  Builder.build b out

let simplify c =
  let b = Builder.create () in
  let n = size c in
  (* Each gate simplifies to a constant or to a builder node. *)
  let memo : [ `Const of bool | `Node of int ] option array = Array.make n None in
  let rec go i =
    match memo.(i) with
    | Some r -> r
    | None ->
      let r =
        match c.gates.(i) with
        | Var v -> `Node (Builder.var b v)
        | Const v -> `Const v
        | Not j ->
          (match go j with
           | `Const v -> `Const (not v)
           | `Node j' -> `Node (Builder.not_ b j'))
        | And js ->
          let rs = List.map go js in
          if List.exists (fun r -> r = `Const false) rs then `Const false
          else begin
            let nodes =
              List.filter_map (function `Node k -> Some k | `Const _ -> None) rs
            in
            match nodes with
            | [] -> `Const true
            | _ -> `Node (Builder.and_ b nodes)
          end
        | Or js ->
          let rs = List.map go js in
          if List.exists (fun r -> r = `Const true) rs then `Const true
          else begin
            let nodes =
              List.filter_map (function `Node k -> Some k | `Const _ -> None) rs
            in
            match nodes with
            | [] -> `Const false
            | _ -> `Node (Builder.or_ b nodes)
          end
      in
      memo.(i) <- Some r;
      r
  in
  let out =
    match go c.output with
    | `Const v -> Builder.const b v
    | `Node k -> k
  in
  Builder.build b out

let rename_vars c pairs =
  let gates =
    Array.map
      (function
        | Var v ->
          Var (match List.assoc_opt v pairs with Some w -> w | None -> v)
        | g -> g)
      c.gates
  in
  { c with gates }

(* ------------------------------------------------------------------ *)
(* Import                                                              *)
(* ------------------------------------------------------------------ *)

let literal b (v, polarity) =
  let x = Builder.var b v in
  if polarity then x else Builder.not_ b x

let of_cnf clauses =
  let b = Builder.create () in
  let cs = List.map (fun cl -> Builder.or_ b (List.map (literal b) cl)) clauses in
  Builder.build b (Builder.and_ b cs)

let of_dnf terms =
  let b = Builder.create () in
  let ts = List.map (fun t -> Builder.and_ b (List.map (literal b) t)) terms in
  Builder.build b (Builder.or_ b ts)

let of_boolfun_dnf f =
  let vars = Boolfun.variables f in
  let terms =
    List.map
      (fun m -> List.map (fun v -> (v, Boolfun.Smap.find v m)) vars)
      (Boolfun.models f)
  in
  if terms = [] then of_dnf [] else of_dnf terms

(* ------------------------------------------------------------------ *)
(* Circuit treewidth                                                   *)
(* ------------------------------------------------------------------ *)

let underlying_graph c =
  let g = Ugraph.create (size c) in
  Array.iteri
    (fun i gt ->
      match gt with
      | Var _ | Const _ -> ()
      | Not j -> Ugraph.add_edge g i j
      | And js | Or js -> List.iter (fun j -> Ugraph.add_edge g i j) js)
    c.gates;
  g

let treewidth_upper ?budget c =
  Treewidth.decompose ?budget
    Elimination.[ Min_fill; Min_degree ]
    (underlying_graph c)

let treewidth_exact ?(max_gates = 18) c =
  Treewidth.exact ~max_vertices:max_gates (underlying_graph c)

let pathwidth_exact ?(max_gates = 18) c =
  Treewidth.pathwidth_exact ~max_vertices:max_gates (underlying_graph c)

(* ------------------------------------------------------------------ *)
(* Text format                                                         *)
(* ------------------------------------------------------------------ *)

let to_string c =
  let buf = Buffer.create 256 in
  let rec go i =
    match c.gates.(i) with
    | Var v -> Buffer.add_string buf v
    | Const true -> Buffer.add_string buf "true"
    | Const false -> Buffer.add_string buf "false"
    | Not j ->
      Buffer.add_string buf "(not ";
      go j;
      Buffer.add_char buf ')'
    | And js ->
      Buffer.add_string buf "(and";
      List.iter (fun j -> Buffer.add_char buf ' '; go j) js;
      Buffer.add_char buf ')'
    | Or js ->
      Buffer.add_string buf "(or";
      List.iter (fun j -> Buffer.add_char buf ' '; go j) js;
      Buffer.add_char buf ')'
  in
  go c.output;
  Buffer.contents buf

type token = Lparen | Rparen | Atom of string

let tokenize s =
  let toks = ref [] in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
     | ' ' | '\t' | '\n' | '\r' -> incr i
     | '(' -> toks := Lparen :: !toks; incr i
     | ')' -> toks := Rparen :: !toks; incr i
     | _ ->
       let start = !i in
       while
         !i < n
         && (match s.[!i] with
             | ' ' | '\t' | '\n' | '\r' | '(' | ')' -> false
             | _ -> true)
       do
         incr i
       done;
       toks := Atom (String.sub s start (!i - start)) :: !toks)
  done;
  List.rev !toks

let of_string s =
  let b = Builder.create () in
  let rec parse toks =
    match toks with
    | [] -> invalid_arg "Circuit.of_string: unexpected end of input"
    | Atom "true" :: rest -> (Builder.const b true, rest)
    | Atom "false" :: rest -> (Builder.const b false, rest)
    | Atom v :: rest -> (Builder.var b v, rest)
    | Lparen :: Atom op :: rest ->
      let rec args acc toks =
        match toks with
        | Rparen :: rest -> (List.rev acc, rest)
        | _ ->
          let e, rest = parse toks in
          args (e :: acc) rest
      in
      let es, rest = args [] rest in
      let node =
        match op with
        | "not" ->
          (match es with
           | [ e ] -> Builder.not_ b e
           | _ -> invalid_arg "Circuit.of_string: not takes one argument")
        | "and" -> Builder.and_ b es
        | "or" -> Builder.or_ b es
        | _ -> invalid_arg ("Circuit.of_string: unknown operator " ^ op)
      in
      (node, rest)
    | Lparen :: _ -> invalid_arg "Circuit.of_string: operator expected"
    | Rparen :: _ -> invalid_arg "Circuit.of_string: unexpected )"
  in
  match parse (tokenize s) with
  | out, [] -> Builder.build b out
  | _, _ -> invalid_arg "Circuit.of_string: trailing input"

let pp ppf c = Format.pp_print_string ppf (to_string c)
