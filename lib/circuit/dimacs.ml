type t = { num_vars : int; clauses : int list list }

let var_name i = Printf.sprintf "v%04d" i

(* Real DIMACS files separate tokens with any mix of spaces and tabs,
   and Windows-edited ones carry '\r' before the newline, so tokenize on
   the full whitespace class rather than just ' '. *)
let tokens line =
  let is_ws c = c = ' ' || c = '\t' || c = '\r' in
  let n = String.length line in
  let out = ref [] in
  let start = ref (-1) in
  for i = 0 to n - 1 do
    if is_ws line.[i] then begin
      if !start >= 0 then out := String.sub line !start (i - !start) :: !out;
      start := -1
    end
    else if !start < 0 then start := i
  done;
  if !start >= 0 then out := String.sub line !start (n - !start) :: !out;
  List.rev !out

let parse text =
  let lines = String.split_on_char '\n' text in
  let num_vars = ref (-1) in
  let num_clauses = ref (-1) in
  let clauses = ref [] in
  let current = ref [] in
  let stop = ref false in
  let malformed msg = invalid_arg ("Dimacs.parse: " ^ msg) in
  List.iter
    (fun line ->
      let line = String.trim line in
      if !stop || line = "" || line.[0] = 'c' then ()
      else if line.[0] = '%' then
        (* SATLIB convention: a lone '%' ends the clause section; the
           trailing "0" line (and anything else) after it is a footer,
           not an empty clause. *)
        stop := true
      else if line.[0] = 'p' then begin
        match tokens line with
        | [ "p"; "cnf"; v; c ] ->
          (match (int_of_string_opt v, int_of_string_opt c) with
           | Some v, Some c when v >= 0 && c >= 0 ->
             num_vars := v;
             num_clauses := c
           | _ -> malformed "bad header numbers")
        | _ -> malformed "bad problem line"
      end
      else begin
        if !num_vars < 0 then malformed "clause before the problem line";
        List.iter
          (fun tok ->
            match int_of_string_opt tok with
            | None -> malformed ("bad literal: " ^ tok)
            | Some 0 ->
              clauses := List.rev !current :: !clauses;
              current := []
            | Some l ->
              (* Not [abs l]: [abs min_int] is [min_int], negative. *)
              if l < - !num_vars || l > !num_vars then
                malformed "literal out of range";
              current := l :: !current)
          (tokens line)
      end)
    lines;
  if !current <> [] then clauses := List.rev !current :: !clauses;
  if !num_vars < 0 then malformed "missing problem line";
  let clauses = List.rev !clauses in
  if List.length clauses <> !num_clauses then
    malformed
      (Printf.sprintf "expected %d clauses, found %d" !num_clauses
         (List.length clauses));
  { num_vars = !num_vars; clauses }

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse s

let print t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" t.num_vars (List.length t.clauses));
  List.iter
    (fun clause ->
      List.iter (fun l -> Buffer.add_string buf (string_of_int l ^ " ")) clause;
      Buffer.add_string buf "0\n")
    t.clauses;
  Buffer.contents buf

let to_circuit t =
  Circuit.of_cnf
    (List.map
       (fun clause -> List.map (fun l -> (var_name (abs l), l > 0)) clause)
       t.clauses)

let free_var_count t =
  let n = Stdlib.max 0 t.num_vars in
  let used = Array.make n false in
  List.iter
    (List.iter (fun l ->
         if l <> 0 && l >= -n && l <= n then used.(abs l - 1) <- true))
    t.clauses;
  Array.fold_left (fun k u -> if u then k else k + 1) 0 used

let of_clauses named =
  let index = Hashtbl.create 16 in
  let names = Hashtbl.create 16 in
  let next = ref 0 in
  let id v =
    match Hashtbl.find_opt index v with
    | Some i -> i
    | None ->
      incr next;
      Hashtbl.add index v !next;
      Hashtbl.add names !next v;
      !next
  in
  let clauses =
    List.map
      (List.map (fun (v, polarity) ->
           let i = id v in
           if polarity then i else -i))
      named
  in
  ({ num_vars = !next; clauses }, fun i -> Hashtbl.find names i)
