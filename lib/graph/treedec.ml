type t = { bags : int list array; tree : (int * int) list }

let width t =
  Array.fold_left (fun acc b -> Stdlib.max acc (List.length b)) 0 t.bags - 1

let num_bags t = Array.length t.bags

(* Parent of each bag when [tree] is rooted at bag 0 ([-1] at the
   root), or [None] when [tree] is not a spanning tree over the bag
   indices: an edge out of range or a self-loop, a wrong edge count, or
   a bag unreachable from bag 0. *)
let rooted_parents t =
  let n = Array.length t.bags in
  if n = 0 then if t.tree = [] then Some [||] else None
  else if List.length t.tree <> n - 1 then None
  else if
    List.exists
      (fun (a, b) -> a < 0 || a >= n || b < 0 || b >= n || a = b)
      t.tree
  then None
  else begin
    let adj = Array.make n [] in
    List.iter
      (fun (a, b) ->
        adj.(a) <- b :: adj.(a);
        adj.(b) <- a :: adj.(b))
      t.tree;
    let parent = Array.make n (-2) in
    let rec visit p v =
      parent.(v) <- p;
      List.iter (fun w -> if parent.(w) = -2 then visit v w) adj.(v)
    in
    visit (-1) 0;
    if Array.mem (-2) parent then None else Some parent
  end

let mem_sorted (a : int array) x =
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) lsr 1 in
    let y = a.(mid) in
    y = x || if y < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

(* One pass builds the ascending bags-of-vertex lists; the edge check
   probes the shorter list of each edge against the other endpoint's
   bags (binary search), and the connectivity check counts top bags. *)
let validate g t =
  let n = Ugraph.num_vertices g in
  match rooted_parents t with
  | None -> Error "tree edges do not form a tree over the bags"
  | Some parent ->
    let bags =
      Array.map
        (fun b ->
          let a = Array.of_list b in
          Array.sort Int.compare a;
          a)
        t.bags
    in
    let bags_of = Array.make n [] in
    for i = Array.length bags - 1 downto 0 do
      Array.iter
        (fun v ->
          if v >= 0 && v < n then
            match bags_of.(v) with
            | j :: _ when j = i -> ()
            | l -> bags_of.(v) <- i :: l)
        bags.(i)
    done;
    (match List.find_opt (fun v -> bags_of.(v) = []) (Ugraph.vertices g) with
     | Some v -> Error (Printf.sprintf "vertex %d is in no bag" v)
     | None ->
       let shared (u, v) =
         let occ, other =
           if List.compare_lengths bags_of.(u) bags_of.(v) <= 0 then
             (bags_of.(u), v)
           else (bags_of.(v), u)
         in
         List.exists (fun b -> mem_sorted bags.(b) other) occ
       in
       (match List.find_opt (fun e -> not (shared e)) (Ugraph.edges g) with
        | Some (u, v) -> Error (Printf.sprintf "edge (%d,%d) is in no bag" u v)
        | None ->
          (* Each component of an occurrence set has one top bag: one
             whose parent does not hold the vertex. *)
          let tops v =
            List.fold_left
              (fun k b ->
                let p = parent.(b) in
                if p < 0 || not (mem_sorted bags.(p) v) then k + 1 else k)
              0 bags_of.(v)
          in
          (match List.find_opt (fun v -> tops v > 1) (Ugraph.vertices g) with
           | Some v ->
             Error
               (Printf.sprintf "occurrence set of vertex %d is disconnected" v)
           | None -> Ok ())))

let is_valid g t = Result.is_ok (validate g t)

let trivial g = { bags = [| Ugraph.vertices g |]; tree = [] }

let of_elimination_order g order =
  let n = Ugraph.num_vertices g in
  let order = Array.of_list order and seen = Array.make n false in
  let fresh v = v >= 0 && v < n && (not seen.(v)) && (seen.(v) <- true; true) in
  if Array.length order <> n || not (Array.for_all fresh order) then
    invalid_arg "Treedec.of_elimination_order: not a permutation of the vertices";
  let e = Elimination.run ~bags:true (Elimination.Given order) g in
  { bags = e.Elimination.bags; tree = e.Elimination.tree }

let path_decomposition_of_order g order =
  let n = Ugraph.num_vertices g in
  if List.length order <> n || List.sort compare order <> Ugraph.vertices g then
    invalid_arg "Treedec.path_decomposition_of_order: not a permutation";
  if n = 0 then { bags = [||]; tree = [] }
  else begin
    let pos = Array.make n 0 in
    List.iteri (fun i v -> pos.(v) <- i) order;
    let order_arr = Array.of_list order in
    let bags =
      Array.init n (fun i ->
          let cur = order_arr.(i) in
          let active =
            List.filter
              (fun v ->
                pos.(v) <= i
                && List.exists (fun w -> pos.(w) >= i) (Ugraph.neighbors g v))
              (Ugraph.vertices g)
          in
          List.sort_uniq compare (cur :: active))
    in
    let tree = List.init (n - 1) (fun i -> (i, i + 1)) in
    { bags; tree }
  end

let refine_connected t =
  let n = Array.length t.bags in
  if n = 0 then t
  else begin
    let parent = Array.init n Fun.id in
    let rec find x = if parent.(x) = x then x else begin
        parent.(x) <- find parent.(x);
        parent.(x)
      end
    in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then begin parent.(ra) <- rb; true end else false
    in
    let edges = List.filter (fun (a, b) -> union a b) t.tree in
    let extra = ref [] in
    for i = 1 to n - 1 do
      if find i <> find 0 then begin
        ignore (union i 0);
        extra := (i, 0) :: !extra
      end
    done;
    { t with tree = edges @ !extra }
  end

let pp ppf t =
  Format.fprintf ppf "@[<v>tree decomposition (width %d):@," (width t);
  Array.iteri
    (fun i b ->
      Format.fprintf ppf "  bag %d: {%s}@," i
        (String.concat "," (List.map string_of_int b)))
    t.bags;
  Format.fprintf ppf "  edges: %s@]"
    (String.concat " "
       (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) t.tree))
