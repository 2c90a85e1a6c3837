type node = int

type shape = L of string | N of shape * shape

type t = {
  left : int array;          (* -1 for leaves *)
  right : int array;
  parent : int array;        (* -1 for the root *)
  depth : int array;
  var : string array;        (* "" for internal nodes *)
  leaves : string array;     (* leaf variables, in-order *)
  lo : int array;            (* leftmost leaf position in the subtree *)
  hi : int array;            (* rightmost leaf position in the subtree *)
  root : int;
  leaf_of_var : (string, int) Hashtbl.t;
  right_linear : bool;  (* every left child is a leaf *)
}

let of_shape shape =
  let count = ref 0 in
  let rec count_nodes = function
    | L _ -> incr count
    | N (a, b) ->
      incr count;
      count_nodes a;
      count_nodes b
  in
  count_nodes shape;
  let n = !count in
  let left = Array.make n (-1) in
  let right = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let depth = Array.make n 0 in
  let var = Array.make n "" in
  let lo = Array.make n 0 in
  let hi = Array.make n 0 in
  let leaves = Array.make ((n + 1) / 2) "" in
  let leaf_tbl = Hashtbl.create ((n + 1) / 2) in
  let next_id = ref 0 in
  let next_leaf_pos = ref 0 in
  (* Assign ids in pre-order so children have larger ids than parents;
     record in-order leaf intervals. *)
  let rec build d = function
    | L v ->
      if Hashtbl.mem leaf_tbl v then
        invalid_arg "Vtree.of_shape: duplicate variables";
      let id = !next_id in
      incr next_id;
      depth.(id) <- d;
      var.(id) <- v;
      leaves.(!next_leaf_pos) <- v;
      lo.(id) <- !next_leaf_pos;
      hi.(id) <- !next_leaf_pos;
      incr next_leaf_pos;
      Hashtbl.add leaf_tbl v id;
      id
    | N (a, b) ->
      let id = !next_id in
      incr next_id;
      depth.(id) <- d;
      let la = build (d + 1) a in
      let rb = build (d + 1) b in
      left.(id) <- la;
      right.(id) <- rb;
      parent.(la) <- id;
      parent.(rb) <- id;
      lo.(id) <- lo.(la);
      hi.(id) <- hi.(rb);
      id
  in
  let root = build 0 shape in
  let rec right_linear = function
    | L _ -> true
    | N (L _, b) -> right_linear b
    | N (N _, _) -> false
  in
  {
    left; right; parent; depth; var; leaves; lo; hi; root;
    leaf_of_var = leaf_tbl;
    right_linear = right_linear shape;
  }

let check_nonempty_unique fn vars =
  if vars = [] then invalid_arg ("Vtree." ^ fn ^ ": empty variable list");
  let seen = Hashtbl.create (List.length vars) in
  List.iter
    (fun v ->
      if Hashtbl.mem seen v then
        invalid_arg ("Vtree." ^ fn ^ ": duplicate variables");
      Hashtbl.add seen v ())
    vars

let right_linear vars =
  check_nonempty_unique "right_linear" vars;
  let rec go = function
    | [] -> assert false
    | [ v ] -> L v
    | v :: rest -> N (L v, go rest)
  in
  of_shape (go vars)

let left_linear vars =
  check_nonempty_unique "left_linear" vars;
  match vars with
  | [] -> assert false
  | v :: rest -> of_shape (List.fold_left (fun acc w -> N (acc, L w)) (L v) rest)

let balanced vars =
  check_nonempty_unique "balanced" vars;
  let rec go vars n =
    if n = 1 then (L (List.hd vars), List.tl vars)
    else begin
      let half = n / 2 in
      let l, rest = go vars half in
      let r, rest = go rest (n - half) in
      (N (l, r), rest)
    end
  in
  let s, rest = go vars (List.length vars) in
  assert (rest = []);
  of_shape s

let random ~seed vars =
  check_nonempty_unique "random" vars;
  let st = Random.State.make [| seed; List.length vars; 2654435761 |] in
  let arr = Array.of_list vars in
  (* Fisher-Yates shuffle *)
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  let rec shape l r =
    (* random shape over arr[l..r] *)
    if l = r then L arr.(l)
    else begin
      let split = l + Random.State.int st (r - l) in
      N (shape l split, shape (split + 1) r)
    end
  in
  of_shape (shape 0 (Array.length arr - 1))

let enumerate vars =
  check_nonempty_unique "enumerate" vars;
  (* All ways to build an ordered binary tree over a set of variables:
     recursively split the set into a nonempty left block and right block
     (all subsets), recurse.  Leaf order matters for vtrees only through
     the left/right structure, and Y_v sets are what the paper's widths
     depend on; we enumerate all ordered set-partition shapes. *)
  let rec go = function
    | [ v ] -> [ L v ]
    | vars ->
      let n = List.length vars in
      let arr = Array.of_list vars in
      let shapes = ref [] in
      (* Nonempty proper sub-bitmask = left block; fix arr.(0) in the left
         block to avoid double-counting mirrored partitions?  No: ordered
         trees distinguish left/right, so enumerate all. *)
      for mask = 1 to (1 lsl n) - 2 do
        let lvars = ref [] and rvars = ref [] in
        for i = n - 1 downto 0 do
          if mask land (1 lsl i) <> 0 then lvars := arr.(i) :: !lvars
          else rvars := arr.(i) :: !rvars
        done;
        List.iter
          (fun ls ->
            List.iter (fun rs -> shapes := N (ls, rs) :: !shapes) (go !rvars))
          (go !lvars)
      done;
      !shapes
  in
  List.map of_shape (go vars)

let root t = t.root
let num_nodes t = Array.length t.left
let num_leaves t = Hashtbl.length t.leaf_of_var

let nodes t =
  (* in-order: left, node, right *)
  let acc = ref [] in
  let rec go v =
    if t.left.(v) >= 0 then go t.right.(v);
    acc := v :: !acc;
    if t.left.(v) >= 0 then go t.left.(v)
  in
  go t.root;
  !acc

let is_leaf t v = t.left.(v) < 0

let var_of_leaf t v =
  if is_leaf t v then t.var.(v)
  else invalid_arg "Vtree.var_of_leaf: internal node"

let left t v =
  if is_leaf t v then invalid_arg "Vtree.left: leaf" else t.left.(v)

let right t v =
  if is_leaf t v then invalid_arg "Vtree.right: leaf" else t.right.(v)

let parent t v = if t.parent.(v) < 0 then None else Some t.parent.(v)
let depth t v = t.depth.(v)
let leaf_of_var t v = Hashtbl.find t.leaf_of_var v

(* [Y_v] is the in-order leaf slice [lo..hi], sorted on demand: storing
   it per node would cost O(n * depth) cells. *)
let vars_below t v =
  let ys = Array.sub t.leaves t.lo.(v) (t.hi.(v) - t.lo.(v) + 1) in
  Array.sort compare ys;
  Array.to_list ys

let variables t = vars_below t t.root
let num_vars_below t v = t.hi.(v) - t.lo.(v) + 1

let is_ancestor t u v = t.lo.(u) <= t.lo.(v) && t.hi.(v) <= t.hi.(u)

let lca t u v =
  let u = ref u and v = ref v in
  while not (is_ancestor t !u !v) do
    u := t.parent.(!u)
  done;
  ignore v;
  !u

let in_left_subtree t v u = not (is_leaf t v) && is_ancestor t t.left.(v) u
let in_right_subtree t v u = not (is_leaf t v) && is_ancestor t t.right.(v) u

let is_right_linear t = t.right_linear

let leaf_order t = Array.to_list t.leaves

let rec shape_of t v =
  if is_leaf t v then L t.var.(v)
  else N (shape_of t t.left.(v), shape_of t t.right.(v))

let to_shape t = shape_of t t.root

let equal a b = to_shape a = to_shape b

let of_forest parts =
  match parts with
  | [] -> invalid_arg "Vtree.of_forest: empty forest"
  | [ t ] -> (t, [| 0 |])
  | first :: rest ->
    (* Right-nested composition N(t1, N(t2, ... N(t_{k-1}, t_k))).  Ids
       are assigned in pre-order, so each part keeps its internal shape
       at a fixed id offset: part i sits after i join nodes and all
       earlier parts' nodes — except the last, which is the right child
       of the innermost join and saves one join node. *)
    let shape =
      List.fold_right
        (fun t acc ->
          match acc with
          | None -> Some (to_shape t)
          | Some s -> Some (N (to_shape t, s)))
        (first :: rest) None
      |> Option.get
    in
    let k = 1 + List.length rest in
    let offsets = Array.make k 0 in
    let pos = ref 0 in
    List.iteri
      (fun i t ->
        if i < k - 1 then begin
          (* the join node introducing this part *)
          incr pos;
          offsets.(i) <- !pos;
          pos := !pos + num_nodes t
        end
        else offsets.(i) <- !pos)
      (first :: rest);
    (of_shape shape, offsets)

(* ------------------------------------------------------------------ *)
(* Local moves                                                         *)
(* ------------------------------------------------------------------ *)

type move = Swap of node | Rotate_left of node | Rotate_right of node

let inverse_move = function
  | Swap v -> Swap v
  | Rotate_left v -> Rotate_right v
  | Rotate_right v -> Rotate_left v

let pp_move ppf = function
  | Swap v -> Format.fprintf ppf "swap@%d" v
  | Rotate_left v -> Format.fprintf ppf "rotl@%d" v
  | Rotate_right v -> Format.fprintf ppf "rotr@%d" v

(* Rebuild the shape with the subtree at [v] replaced by [f] applied to
   its current shape.  Node ids are pre-order, matching [of_shape]. *)
let edit_shape t v f =
  let rec go u =
    if u = v then f (shape_of t u)
    else if is_leaf t u then L t.var.(u)
    else N (go t.left.(u), go t.right.(u))
  in
  go t.root

let move_shape t = function
  | Swap v ->
    edit_shape t v (function
      | N (a, b) -> N (b, a)
      | L _ -> invalid_arg "Vtree.apply_move: swap at a leaf")
  | Rotate_left v ->
    (* (a (b c)) -> ((a b) c) *)
    edit_shape t v (function
      | N (a, N (b, c)) -> N (N (a, b), c)
      | _ -> invalid_arg "Vtree.apply_move: rotate_left needs an internal right child")
  | Rotate_right v ->
    (* ((a b) c) -> (a (b c)) *)
    edit_shape t v (function
      | N (N (a, b), c) -> N (a, N (b, c))
      | _ -> invalid_arg "Vtree.apply_move: rotate_right needs an internal left child")

let apply_move t mv = of_shape (move_shape t mv)

(* All applicable single moves with their resulting vtrees, sorted and
   deduplicated by resulting shape — the same candidate set and order as
   [local_moves] (which is defined through this function). *)
let local_moves_with t =
  let original = to_shape t in
  let acc = ref [] in
  let rec go v =
    if not (is_leaf t v) then begin
      acc := Swap v :: !acc;
      if not (is_leaf t t.left.(v)) then acc := Rotate_right v :: !acc;
      if not (is_leaf t t.right.(v)) then acc := Rotate_left v :: !acc;
      go t.left.(v);
      go t.right.(v)
    end
  in
  go t.root;
  let candidates =
    List.filter_map
      (fun mv ->
        let s = move_shape t mv in
        if s = original then None else Some (mv, s))
      !acc
  in
  let sorted =
    List.sort_uniq (fun (_, s1) (_, s2) -> compare s1 s2) candidates
  in
  List.map (fun (mv, s) -> (mv, of_shape s)) sorted

let local_moves t = List.map snd (local_moves_with t)

(* ------------------------------------------------------------------ *)
(* Fingerprint                                                         *)
(* ------------------------------------------------------------------ *)

(* Structural fingerprint: an FNV-1a style hash over a pre-order walk,
   folding leaf variable names byte by byte.  Replaces string
   serialization as a cache key in the vtree search — equality of
   fingerprints is probabilistic (62-bit), equality of shapes implies
   equality of fingerprints. *)
let fingerprint t =
  let h = ref 0x0bf29ce484222325 in
  let mix x = h := (!h lxor x) * 0x100000001b3 land max_int in
  let rec go v =
    if is_leaf t v then begin
      mix 2;
      String.iter (fun c -> mix (Char.code c)) t.var.(v)
    end
    else begin
      mix 3;
      go t.left.(v);
      mix 5;
      go t.right.(v)
    end
  in
  go t.root;
  !h

let rec pp_shape ppf = function
  | L v -> Format.pp_print_string ppf v
  | N (a, b) -> Format.fprintf ppf "(%a %a)" pp_shape a pp_shape b

let pp ppf t = pp_shape ppf (to_shape t)
let to_string t = Format.asprintf "%a" pp t
