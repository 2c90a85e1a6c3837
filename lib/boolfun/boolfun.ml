module Smap = Map.Make (String)

type assignment = bool Smap.t

(* Truth table layout: [vars] is sorted and duplicate-free; entry [i] of
   the table is the value of the function on the assignment where
   [vars.(j)] receives bit [j] of [i]. *)
type t = { vars : string array; tbl : Bytes.t }

let max_table_vars = 26

let table_size n = ((1 lsl n) + 7) / 8

let get_bit tbl i = (Char.code (Bytes.get tbl (i lsr 3)) lsr (i land 7)) land 1 = 1

let set_bit tbl i b =
  let byte = Char.code (Bytes.get tbl (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte' = if b then byte lor mask else byte land lnot mask in
  Bytes.set tbl (i lsr 3) (Char.chr byte')

let check_num_vars fn n =
  if n > max_table_vars then
    invalid_arg
      (Printf.sprintf "Boolfun.%s: %d variables exceed the truth-table limit (%d)"
         fn n max_table_vars)

let normalize_vars vars = Array.of_list (List.sort_uniq compare vars)

(* Zero out the padding bits above 2^n in the last byte, so that
   Bytes.equal is extensional equality. *)
let mask_padding n tbl =
  let total = 1 lsl n in
  let used_in_last = total land 7 in
  if used_in_last <> 0 && Bytes.length tbl > 0 then begin
    let last = Bytes.length tbl - 1 in
    let keep = (1 lsl used_in_last) - 1 in
    Bytes.set tbl last (Char.chr (Char.code (Bytes.get tbl last) land keep))
  end

let make vars tbl =
  mask_padding (Array.length vars) tbl;
  { vars; tbl }

let const vars b =
  let vars = normalize_vars vars in
  let n = Array.length vars in
  check_num_vars "const" n;
  let tbl = Bytes.make (table_size n) (if b then '\xff' else '\x00') in
  make vars tbl

let tt = const [] true
let ff = const [] false

let var x =
  let tbl = Bytes.make 1 '\x00' in
  set_bit tbl 1 true;
  make [| x |] tbl

let variables f = Array.to_list f.vars
let num_vars f = Array.length f.vars

let index_of_assignment vars (a : assignment) =
  let idx = ref 0 in
  Array.iteri (fun j v -> if Smap.find v a then idx := !idx lor (1 lsl j)) vars;
  !idx

let assignment_of_index vars i =
  let a = ref Smap.empty in
  Array.iteri (fun j v -> a := Smap.add v ((i lsr j) land 1 = 1) !a) vars;
  !a

let of_fun vars f =
  let vars = normalize_vars vars in
  let n = Array.length vars in
  check_num_vars "of_fun" n;
  let tbl = Bytes.make (table_size n) '\x00' in
  for i = 0 to (1 lsl n) - 1 do
    if f (assignment_of_index vars i) then set_bit tbl i true
  done;
  make vars tbl

let of_models vars ms =
  let vars = normalize_vars vars in
  let n = Array.length vars in
  check_num_vars "of_models" n;
  let tbl = Bytes.make (table_size n) '\x00' in
  List.iter (fun m -> set_bit tbl (index_of_assignment vars m) true) ms;
  make vars tbl

let random ~seed vars =
  let vars = normalize_vars vars in
  let n = Array.length vars in
  check_num_vars "random" n;
  let st = Random.State.make [| seed; n; 104729 |] in
  let tbl = Bytes.init (table_size n) (fun _ -> Char.chr (Random.State.int st 256)) in
  make vars tbl

let eval f a = get_bit f.tbl (index_of_assignment f.vars a)

let eval_index f i = get_bit f.tbl i

let of_fun_index vars f =
  let vars = normalize_vars vars in
  let n = Array.length vars in
  check_num_vars "of_fun_index" n;
  let tbl = Bytes.make (table_size n) '\x00' in
  for i = 0 to (1 lsl n) - 1 do
    if f i then set_bit tbl i true
  done;
  make vars tbl

(* Lift f to a (sorted) superset of its variables. *)
let lift_to_array f vars' =
  if f.vars = vars' then f
  else begin
    let n' = Array.length vars' in
    check_num_vars "lift" n';
    (* bit j' of a new index corresponds to vars'.(j'); find for each old
       var its position in vars'. *)
    let old_pos =
      Array.map
        (fun v ->
          let rec find j =
            if j >= n' then invalid_arg "Boolfun.lift: not a superset"
            else if vars'.(j) = v then j
            else find (j + 1)
          in
          find 0)
        f.vars
    in
    let tbl = Bytes.make (table_size n') '\x00' in
    for i' = 0 to (1 lsl n') - 1 do
      let i = ref 0 in
      Array.iteri (fun j p -> if (i' lsr p) land 1 = 1 then i := !i lor (1 lsl j)) old_pos;
      if get_bit f.tbl !i then set_bit tbl i' true
    done;
    make vars' tbl
  end

let lift f vars =
  let union =
    Array.of_list
      (List.sort_uniq compare (Array.to_list f.vars @ vars))
  in
  lift_to_array f union

let align f g =
  let union =
    Array.of_list
      (List.sort_uniq compare (Array.to_list f.vars @ Array.to_list g.vars))
  in
  (lift_to_array f union, lift_to_array g union)

let lognot n tbl =
  let r = Bytes.map (fun c -> Char.chr (lnot (Char.code c) land 0xff)) tbl in
  mask_padding n r;
  r

let not_ f = { f with tbl = lognot (Array.length f.vars) f.tbl }

let bytewise op a b =
  Bytes.init (Bytes.length a) (fun i ->
      Char.chr (op (Char.code (Bytes.get a i)) (Char.code (Bytes.get b i)) land 0xff))

let binop op f g =
  let f, g = align f g in
  make f.vars (bytewise op f.tbl g.tbl)

let and_ = binop ( land )
let or_ = binop ( lor )
let xor_ = binop ( lxor )
let implies f g = or_ (not_ f) g
let iff f g = not_ (xor_ f g)

let and_list = function [] -> tt | f :: rest -> List.fold_left and_ f rest
let or_list = function [] -> ff | f :: rest -> List.fold_left or_ f rest

let popcount_byte =
  Array.init 256 (fun b ->
      let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
      go b 0)

let count_models_int f =
  Bytes.fold_left (fun acc c -> acc + popcount_byte.(Char.code c)) 0 f.tbl

let count_models f = Bigint.of_int (count_models_int f)

let is_const f =
  let n = count_models_int f in
  if n = 0 then Some false
  else if n = 1 lsl Array.length f.vars then Some true
  else None

let equal_strict f g = f.vars = g.vars && Bytes.equal f.tbl g.tbl

let compare_strict f g =
  let c = compare f.vars g.vars in
  if c <> 0 then c else Bytes.compare f.tbl g.tbl

let equal f g =
  let f, g = align f g in
  Bytes.equal f.tbl g.tbl

let hash f = Hashtbl.hash (f.vars, Bytes.to_string f.tbl)

let any_model f =
  let n = Array.length f.vars in
  let rec find i =
    if i >= 1 lsl n then None
    else if get_bit f.tbl i then Some (assignment_of_index f.vars i)
    else find (i + 1)
  in
  find 0

let models f =
  let n = Array.length f.vars in
  let acc = ref [] in
  for i = (1 lsl n) - 1 downto 0 do
    if get_bit f.tbl i then acc := assignment_of_index f.vars i :: !acc
  done;
  !acc

(* Restrict the variables at the given table positions to fixed bits,
   producing a function over the remaining variables. *)
let restrict_positions f fixed =
  (* fixed : (position, bool) list, positions distinct *)
  let n = Array.length f.vars in
  let fixed_mask = List.fold_left (fun m (p, _) -> m lor (1 lsl p)) 0 fixed in
  let fixed_bits =
    List.fold_left (fun m (p, b) -> if b then m lor (1 lsl p) else m) 0 fixed
  in
  let keep = ref [] in
  for j = n - 1 downto 0 do
    if fixed_mask land (1 lsl j) = 0 then keep := j :: !keep
  done;
  let keep = Array.of_list !keep in
  let n' = Array.length keep in
  let vars' = Array.map (fun j -> f.vars.(j)) keep in
  let tbl = Bytes.make (table_size n') '\x00' in
  for i' = 0 to (1 lsl n') - 1 do
    let i = ref fixed_bits in
    Array.iteri (fun j' j -> if (i' lsr j') land 1 = 1 then i := !i lor (1 lsl j)) keep;
    if get_bit f.tbl !i then set_bit tbl i' true
  done;
  make vars' tbl

let restrict f bindings =
  let fixed =
    List.filter_map
      (fun (v, b) ->
        let rec find j =
          if j >= Array.length f.vars then None
          else if f.vars.(j) = v then Some (j, b)
          else find (j + 1)
        in
        find 0)
      (List.sort_uniq compare bindings)
  in
  if fixed = [] then f else restrict_positions f fixed

let cofactor f a = restrict f (Smap.bindings a)

let exists_ v f =
  if not (Array.exists (( = ) v) f.vars) then f
  else or_ (restrict f [ (v, false) ]) (restrict f [ (v, true) ])

let forall v f =
  if not (Array.exists (( = ) v) f.vars) then f
  else and_ (restrict f [ (v, false) ]) (restrict f [ (v, true) ])

let depends_on f v =
  Array.exists (( = ) v) f.vars
  && not (Bytes.equal (restrict f [ (v, false) ]).tbl (restrict f [ (v, true) ]).tbl)

let support f = List.filter (depends_on f) (variables f)

let rename f pairs =
  let map v = match List.assoc_opt v pairs with Some w -> w | None -> v in
  let new_names = Array.map map f.vars in
  let sorted = List.sort_uniq compare (Array.to_list new_names) in
  if List.length sorted <> Array.length new_names then
    invalid_arg "Boolfun.rename: name collision";
  (* Build over the sorted new variable set by permuting table bits. *)
  let vars' = Array.of_list sorted in
  let n = Array.length vars' in
  let pos_of_new = Hashtbl.create n in
  Array.iteri (fun j v -> Hashtbl.add pos_of_new v j) vars';
  let perm = Array.map (fun v -> Hashtbl.find pos_of_new (map v)) f.vars in
  let tbl = Bytes.make (table_size n) '\x00' in
  for i = 0 to (1 lsl n) - 1 do
    if get_bit f.tbl i then begin
      let i' = ref 0 in
      Array.iteri (fun j p -> if (i lsr j) land 1 = 1 then i' := !i' lor (1 lsl p)) perm;
      set_bit tbl !i' true
    end
  done;
  make vars' tbl

(* ------------------------------------------------------------------ *)
(* Cofactors and factors relative to a variable set (Section 3.1)      *)
(* ------------------------------------------------------------------ *)

(* Split table positions into those whose variable is in [y] and the rest. *)
let split_positions f y =
  let yset = List.fold_left (fun s v -> Smap.add v () s) Smap.empty y in
  let inside = ref [] and outside = ref [] in
  for j = Array.length f.vars - 1 downto 0 do
    if Smap.mem f.vars.(j) yset then inside := j :: !inside
    else outside := j :: !outside
  done;
  (Array.of_list !inside, Array.of_list !outside)

(* Group the assignments of Y∩X by the cofactor they induce.  Returns a
   list of (list of y-indices, cofactor-table) in first-seen order. *)
let group_by_cofactor f y =
  let ypos, zpos = split_positions f y in
  let ny = Array.length ypos and nz = Array.length zpos in
  let groups : (string, int * int list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let next_id = ref 0 in
  let ids = Array.make (1 lsl ny) 0 in
  for yi = 0 to (1 lsl ny) - 1 do
    let base = ref 0 in
    Array.iteri
      (fun j p -> if (yi lsr j) land 1 = 1 then base := !base lor (1 lsl p))
      ypos;
    let cof = Bytes.make (table_size nz) '\x00' in
    for zi = 0 to (1 lsl nz) - 1 do
      let i = ref !base in
      Array.iteri
        (fun j p -> if (zi lsr j) land 1 = 1 then i := !i lor (1 lsl p))
        zpos;
      if get_bit f.tbl !i then set_bit cof zi true
    done;
    let key = Bytes.to_string cof in
    (match Hashtbl.find_opt groups key with
     | Some (id, members) ->
       members := yi :: !members;
       ids.(yi) <- id
     | None ->
       let members = ref [ yi ] in
       Hashtbl.add groups key (!next_id, members);
       ids.(yi) <- !next_id;
       incr next_id;
       order := (key, members, yi) :: !order)
  done;
  let yvars = Array.map (fun p -> f.vars.(p)) ypos in
  let zvars = Array.map (fun p -> f.vars.(p)) zpos in
  (yvars, zvars, List.rev !order, ids)

let factors_indexed f y =
  let yvars, zvars, groups, ids = group_by_cofactor f y in
  let ny = Array.length yvars in
  let pairs =
    List.map
      (fun (cof_key, members, _) ->
        let g_tbl = Bytes.make (table_size ny) '\x00' in
        List.iter (fun yi -> set_bit g_tbl yi true) !members;
        let g = make yvars g_tbl in
        let cof = make zvars (Bytes.of_string cof_key) in
        (g, cof))
      groups
  in
  (pairs, yvars, ids)

let factor_ids f y =
  let yvars, _, groups, ids = group_by_cofactor f y in
  (yvars, ids, Array.of_list (List.map (fun (_, _, rep) -> rep) groups))

let factors f y =
  let pairs, _, _ = factors_indexed f y in
  pairs

let cofactors_relative f y =
  let _, zvars, groups, _ = group_by_cofactor f y in
  List.map (fun (cof_key, _, _) -> make zvars (Bytes.of_string cof_key)) groups

let num_factors f y =
  let _, _, groups, _ = group_by_cofactor f y in
  List.length groups

(* ------------------------------------------------------------------ *)
(* Assignments and printing                                            *)
(* ------------------------------------------------------------------ *)

let assignment_of_list l =
  List.fold_left (fun a (v, b) -> Smap.add v b a) Smap.empty l

let all_assignments vars =
  let vars = Array.of_list (List.sort_uniq compare vars) in
  let n = Array.length vars in
  check_num_vars "all_assignments" n;
  List.init (1 lsl n) (fun i -> assignment_of_index vars i)

(* Sieling–Wegener: the reduced OBDD has one x_i-node per distinct
   subfunction f|x_1..x_(i-1)=a that depends on x_i.  Cofactors over the
   same prefix share their variable set, so tables compare as functions. *)
let obdd_profile f order =
  let f = lift f order in
  let rec levels prefix = function
    | [] -> []
    | x :: rest ->
      let nodes = Hashtbl.create 16 in
      List.iter
        (fun a ->
          let g = cofactor f a in
          if depends_on g x then Hashtbl.replace nodes g.tbl ())
        (all_assignments prefix);
      (x, Hashtbl.length nodes) :: levels (x :: prefix) rest
  in
  levels [] order

let pp ppf f =
  let n = Array.length f.vars in
  Format.fprintf ppf "@[<h>fun(%s)"
    (String.concat "," (Array.to_list f.vars));
  if n <= 6 then begin
    Format.fprintf ppf " minterms:";
    for i = 0 to (1 lsl n) - 1 do
      if get_bit f.tbl i then Format.fprintf ppf " %d" i
    done
  end
  else Format.fprintf ppf " #models=%d" (count_models_int f);
  Format.fprintf ppf "@]"

let to_string f = Format.asprintf "%a" pp f
