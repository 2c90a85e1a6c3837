module ISet = Set.Make (Int)

module Union_find = struct
  type uf = { parent : int array; rank : int array; mutable classes : int }

  let create n =
    if n < 0 then invalid_arg "Ugraph.Union_find.create: negative size";
    { parent = Array.init n (fun i -> i); rank = Array.make n 0; classes = n }

  let find uf x =
    if x < 0 || x >= Array.length uf.parent then
      invalid_arg "Ugraph.Union_find.find: out of range";
    (* Path halving: every probe shortcuts one grandparent link, so
       amortized cost matches the classic path-compressed version
       without recursion. *)
    let x = ref x in
    while uf.parent.(!x) <> !x do
      let p = uf.parent.(!x) in
      uf.parent.(!x) <- uf.parent.(p);
      x := uf.parent.(!x)
    done;
    !x

  let union uf a b =
    let ra = find uf a and rb = find uf b in
    if ra <> rb then begin
      uf.classes <- uf.classes - 1;
      if uf.rank.(ra) < uf.rank.(rb) then uf.parent.(ra) <- rb
      else if uf.rank.(rb) < uf.rank.(ra) then uf.parent.(rb) <- ra
      else begin
        uf.parent.(rb) <- ra;
        uf.rank.(ra) <- uf.rank.(ra) + 1
      end
    end

  let count uf = uf.classes

  let groups uf =
    let n = Array.length uf.parent in
    let tbl = Hashtbl.create 16 in
    for v = n - 1 downto 0 do
      let r = find uf v in
      Hashtbl.replace tbl r (v :: Option.value ~default:[] (Hashtbl.find_opt tbl r))
    done;
    (* One group per class, each sorted ascending, ordered by minimum
       element — the same presentation as [components]. *)
    Hashtbl.fold (fun _ vs acc -> vs :: acc) tbl []
    |> List.sort (fun a b -> compare (List.hd a) (List.hd b))
end

type t = { mutable nedges : int; adj : ISet.t array }

let create n =
  if n < 0 then invalid_arg "Ugraph.create: negative size";
  { nedges = 0; adj = Array.make n ISet.empty }

let num_vertices g = Array.length g.adj
let num_edges g = g.nedges

let check_vertex fn g v =
  if v < 0 || v >= num_vertices g then
    invalid_arg ("Ugraph." ^ fn ^ ": vertex out of range")

let has_edge g u v =
  check_vertex "has_edge" g u;
  check_vertex "has_edge" g v;
  ISet.mem v g.adj.(u)

let add_edge g u v =
  check_vertex "add_edge" g u;
  check_vertex "add_edge" g v;
  if u <> v && not (ISet.mem v g.adj.(u)) then begin
    g.adj.(u) <- ISet.add v g.adj.(u);
    g.adj.(v) <- ISet.add u g.adj.(v);
    g.nedges <- g.nedges + 1
  end

let neighbors g v =
  check_vertex "neighbors" g v;
  ISet.elements g.adj.(v)

let neighbor_array g v =
  check_vertex "neighbor_array" g v;
  let s = g.adj.(v) in
  let a = Array.make (ISet.cardinal s) 0 in
  ignore (ISet.fold (fun w i -> a.(i) <- w; i + 1) s 0);
  a

let degree g v =
  check_vertex "degree" g v;
  ISet.cardinal g.adj.(v)

let edges g =
  let acc = ref [] in
  for u = num_vertices g - 1 downto 0 do
    ISet.iter (fun v -> if u < v then acc := (u, v) :: !acc) g.adj.(u)
  done;
  !acc

let copy g = { nedges = g.nedges; adj = Array.copy g.adj }

let of_edges n es =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) es;
  g

let equal g h =
  num_vertices g = num_vertices h
  && Array.for_all2 ISet.equal g.adj h.adj

let vertices g = List.init (num_vertices g) Fun.id

let induced_subgraph g vs =
  let vs = List.sort_uniq compare vs in
  let n' = List.length vs in
  let to_old = Array.of_list vs in
  let to_new = Hashtbl.create n' in
  Array.iteri (fun i v -> Hashtbl.add to_new v i) to_old;
  let h = create n' in
  Array.iteri
    (fun i v ->
      ISet.iter
        (fun w ->
          match Hashtbl.find_opt to_new w with
          | Some j -> add_edge h i j
          | None -> ())
        g.adj.(v))
    to_old;
  (h, to_old)

let components g =
  let n = num_vertices g in
  let seen = Array.make n false in
  let comps = ref [] in
  for s = 0 to n - 1 do
    if not seen.(s) then begin
      let comp = ref [] in
      let stack = ref [ s ] in
      seen.(s) <- true;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | v :: rest ->
          stack := rest;
          comp := v :: !comp;
          ISet.iter
            (fun w ->
              if not seen.(w) then begin
                seen.(w) <- true;
                stack := w :: !stack
              end)
            g.adj.(v)
      done;
      comps := List.sort compare !comp :: !comps
    end
  done;
  List.rev !comps

let is_connected g = num_vertices g <= 1 || List.length (components g) = 1

let max_degree g =
  let n = num_vertices g in
  let m = ref 0 in
  for v = 0 to n - 1 do
    m := Stdlib.max !m (ISet.cardinal g.adj.(v))
  done;
  !m

let min_degree g =
  let n = num_vertices g in
  if n = 0 then 0
  else begin
    let m = ref max_int in
    for v = 0 to n - 1 do
      m := Stdlib.min !m (ISet.cardinal g.adj.(v))
    done;
    !m
  end

let complement g =
  let n = num_vertices g in
  let h = create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if not (ISet.mem v g.adj.(u)) then add_edge h u v
    done
  done;
  h

let pp ppf g =
  Format.fprintf ppf "@[<h>graph(n=%d, m=%d):" (num_vertices g) (num_edges g);
  List.iter (fun (u, v) -> Format.fprintf ppf " %d-%d" u v) (edges g);
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Families                                                            *)
(* ------------------------------------------------------------------ *)

let path_graph n =
  let g = create n in
  for i = 0 to n - 2 do add_edge g i (i + 1) done;
  g

let cycle_graph n =
  let g = path_graph n in
  if n >= 3 then add_edge g (n - 1) 0;
  g

let complete_graph n =
  let g = create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do add_edge g u v done
  done;
  g

let star_graph n =
  let g = create n in
  for v = 1 to n - 1 do add_edge g 0 v done;
  g

let grid_graph rows cols =
  let g = create (rows * cols) in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let v = (i * cols) + j in
      if j + 1 < cols then add_edge g v (v + 1);
      if i + 1 < rows then add_edge g v (v + cols)
    done
  done;
  g

let complete_bipartite a b =
  let g = create (a + b) in
  for u = 0 to a - 1 do
    for v = a to a + b - 1 do add_edge g u v done
  done;
  g

let random_gnp ~seed n p =
  let st = Random.State.make [| seed; n |] in
  let g = create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float st 1.0 < p then add_edge g u v
    done
  done;
  g

let random_tree ~seed n =
  let st = Random.State.make [| seed; n; 7919 |] in
  let g = create n in
  for v = 1 to n - 1 do
    add_edge g v (Random.State.int st v)
  done;
  g

let random_partial_ktree ~seed n k p =
  let st = Random.State.make [| seed; n; k |] in
  let k = Stdlib.min k (Stdlib.max 0 (n - 1)) in
  let g = create n in
  (* Seed clique on the first k+1 vertices, then attach each new vertex to
     a random k-clique of the current k-tree.  Cliques are tracked as
     sorted vertex lists. *)
  let cliques = ref [] in
  let first = List.init (Stdlib.min (k + 1) n) Fun.id in
  List.iter (fun u -> List.iter (fun v -> if u < v then add_edge g u v) first) first;
  let k_subsets l =
    (* all k-element subsets of l *)
    let rec go l k =
      if k = 0 then [ [] ]
      else
        match l with
        | [] -> []
        | x :: rest ->
          List.map (fun s -> x :: s) (go rest (k - 1)) @ go rest k
    in
    go l k
  in
  cliques := k_subsets first;
  if !cliques = [] then cliques := [ [] ];
  for v = k + 1 to n - 1 do
    let cs = Array.of_list !cliques in
    let c = cs.(Random.State.int st (Array.length cs)) in
    List.iter (fun u -> add_edge g u v) c;
    (* New k-cliques: c with one element replaced by v. *)
    let added =
      List.map (fun drop -> List.sort compare (v :: List.filter (fun x -> x <> drop) c)) c
    in
    cliques := (if added = [] then [ [ v ] ] else added) @ !cliques
  done;
  (* Thin out: drop each edge independently with probability 1-p (keeping
     the graph a *partial* k-tree, so treewidth <= k still holds). *)
  if p < 1.0 then begin
    let keep = of_edges n [] in
    List.iter
      (fun (u, v) -> if Random.State.float st 1.0 < p then add_edge keep u v)
      (edges g);
    keep
  end
  else g
