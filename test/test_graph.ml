open Test_util

let td_valid g t =
  match Treedec.validate g t with
  | Ok () -> true
  | Error msg -> Alcotest.failf "invalid decomposition: %s" msg

(* [Treedec.validate] before it was made near-linear: O(m·bags) edge
   scan and a per-vertex bag scan with a Hashtbl DFS.  Kept as the
   reference for the differential test below. *)
module ISet = Set.Make (Int)

let reference_validate g (t : Treedec.t) =
  let tree_ok () =
    let n = Array.length t.bags in
    if n = 0 then t.tree = []
    else if List.length t.tree <> n - 1 then false
    else begin
      let adj = Array.make n [] in
      let ok = ref true in
      List.iter
        (fun (a, b) ->
          if a < 0 || a >= n || b < 0 || b >= n || a = b then ok := false
          else begin
            adj.(a) <- b :: adj.(a);
            adj.(b) <- a :: adj.(b)
          end)
        t.tree;
      if not !ok then false
      else begin
        let seen = Array.make n false in
        let rec dfs v =
          seen.(v) <- true;
          List.iter (fun w -> if not seen.(w) then dfs w) adj.(v)
        in
        dfs 0;
        Array.for_all Fun.id seen
      end
    end
  in
  let n = Ugraph.num_vertices g in
  if not (tree_ok ()) then Error "tree edges do not form a tree over the bags"
  else begin
    let bag_sets = Array.map ISet.of_list t.bags in
    let covered = Array.make n false in
    Array.iter
      (ISet.iter (fun v -> if v >= 0 && v < n then covered.(v) <- true))
      bag_sets;
    match List.filter (fun v -> not covered.(v)) (Ugraph.vertices g) with
    | v :: _ -> Error (Printf.sprintf "vertex %d is in no bag" v)
    | [] ->
      (match
         List.find_opt
           (fun (u, v) ->
             not (Array.exists (fun b -> ISet.mem u b && ISet.mem v b) bag_sets))
           (Ugraph.edges g)
       with
       | Some (u, v) -> Error (Printf.sprintf "edge (%d,%d) is in no bag" u v)
       | None ->
         let nb = Array.length t.bags in
         let adj = Array.make nb [] in
         List.iter
           (fun (a, b) ->
             adj.(a) <- b :: adj.(a);
             adj.(b) <- a :: adj.(b))
           t.tree;
         let bad = ref None in
         for v = 0 to n - 1 do
           if !bad = None then begin
             let occ = ref [] in
             Array.iteri (fun i b -> if ISet.mem v b then occ := i :: !occ) bag_sets;
             match !occ with
             | [] -> ()
             | start :: _ ->
               let occ_set = ISet.of_list !occ in
               let seen = Hashtbl.create 16 in
               let rec dfs i =
                 Hashtbl.replace seen i ();
                 List.iter
                   (fun j ->
                     if ISet.mem j occ_set && not (Hashtbl.mem seen j) then dfs j)
                   adj.(i)
               in
               dfs start;
               if Hashtbl.length seen <> ISet.cardinal occ_set then bad := Some v
           end
         done;
         (match !bad with
          | Some v ->
            Error (Printf.sprintf "occurrence set of vertex %d is disconnected" v)
          | None -> Ok ()))
  end

(* A valid decomposition of a random graph (from a random elimination
   order), then one of five edits chosen by [seed]: none, a vertex
   dropped from a bag, a tree edge removed, a bag split with the split-off
   vertex hung elsewhere, or a vertex copied into a new leaf bag. *)
let corrupted_decomposition seed =
  let rng = Random.State.make [| seed |] in
  let n = 1 + Random.State.int rng 12 in
  let g = Ugraph.random_gnp ~seed n (Random.State.float rng 0.6) in
  let order =
    List.map snd
      (List.sort compare
         (List.map (fun v -> (Random.State.bits rng, v)) (Ugraph.vertices g)))
  in
  let td = Treedec.refine_connected (Treedec.of_elimination_order g order) in
  let bags = Array.copy td.Treedec.bags in
  let nb = Array.length bags in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let nonempty = List.filter (fun i -> bags.(i) <> []) (List.init nb Fun.id) in
  let td' =
    match Random.State.int rng 5 with
    | 1 when nonempty <> [] ->
      let i = pick nonempty in
      let v = pick bags.(i) in
      bags.(i) <- List.filter (( <> ) v) bags.(i);
      { td with bags }
    | 2 when td.Treedec.tree <> [] ->
      let e = pick td.Treedec.tree in
      { td with tree = List.filter (( <> ) e) td.Treedec.tree }
    | (3 | 4) as edit when nonempty <> [] ->
      let i = pick nonempty in
      let v = pick bags.(i) in
      if edit = 3 then bags.(i) <- List.filter (( <> ) v) bags.(i);
      {
        Treedec.bags = Array.append bags [| [ v ] |];
        tree = (nb, Random.State.int rng nb) :: td.Treedec.tree;
      }
    | _ -> td
  in
  (g, td')

(* [Treewidth]'s greedy elimination before it kept scores in a priority
   set: every step rescans and rescores every live vertex and takes the
   first of the lowest score.  Kept as the reference for the
   differential test below. *)
let reference_greedy_order score g =
  let n = Ugraph.num_vertices g in
  let adj = Array.init n (fun v -> ISet.of_list (Ugraph.neighbors g v)) in
  let alive = Array.make n true in
  let order = ref [] and width = ref (-1) in
  for _ = 1 to n do
    let best = ref (-1) and best_score = ref max_int in
    for v = 0 to n - 1 do
      if alive.(v) then begin
        let s = score adj v in
        if s < !best_score then begin
          best := v;
          best_score := s
        end
      end
    done;
    let v = !best in
    alive.(v) <- false;
    order := v :: !order;
    let nbrs = adj.(v) in
    width := Stdlib.max !width (ISet.cardinal nbrs);
    ISet.iter
      (fun a ->
        ISet.iter
          (fun b ->
            if a < b then begin
              adj.(a) <- ISet.add b adj.(a);
              adj.(b) <- ISet.add a adj.(b)
            end)
          nbrs)
      nbrs;
    ISet.iter (fun a -> adj.(a) <- ISet.remove v adj.(a)) nbrs;
    adj.(v) <- ISet.empty
  done;
  (!width, List.rev !order)

let reference_min_degree adj v = ISet.cardinal adj.(v)

let reference_min_fill adj v =
  let nbrs = ISet.elements adj.(v) in
  let missing = ref 0 in
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
      List.iter (fun b -> if not (ISet.mem b adj.(a)) then incr missing) rest;
      pairs rest
  in
  pairs nbrs;
  !missing

(* Both heuristics give the reference's order, the order's width is the
   reference's width, and [upper_bound] keeps min-fill unless min-degree
   is strictly narrower. *)
let greedy_matches_reference g =
  let same reference order =
    reference = (Treewidth.width_of_order g order, order)
  in
  let ((wf, _) as fill) = reference_greedy_order reference_min_fill g
  and ((wd, _) as degree) = reference_greedy_order reference_min_degree g in
  same fill (Treewidth.min_fill_order g)
  && same degree (Treewidth.min_degree_order g)
  && Treewidth.upper_bound g = if wd < wf then degree else fill

(* [Treedec.of_elimination_order] before it ran on [Elimination]: the
   elimination replayed on [ISet]s, each bag the vertex and its later
   neighbours, joined to the bag of the first-eliminated of them.  Kept
   as the reference for the differential test below. *)
let reference_of_elimination_order g order : Treedec.t =
  let n = Ugraph.num_vertices g in
  if n = 0 then { bags = [||]; tree = [] }
  else begin
    let pos = Array.make n 0 in
    List.iteri (fun i v -> pos.(v) <- i) order;
    let adj = Array.init n (fun v -> ISet.of_list (Ugraph.neighbors g v)) in
    let order_arr = Array.of_list order in
    let bags = Array.make n [] in
    let tree = ref [] in
    for i = 0 to n - 1 do
      let v = order_arr.(i) in
      let later = ISet.filter (fun u -> pos.(u) > i) adj.(v) in
      bags.(i) <- v :: ISet.elements later;
      ISet.iter
        (fun a ->
          ISet.iter
            (fun b ->
              if a < b then begin
                adj.(a) <- ISet.add b adj.(a);
                adj.(b) <- ISet.add a adj.(b)
              end)
            later)
        later;
      match ISet.min_elt_opt (ISet.map (fun u -> pos.(u)) later) with
      | Some j -> tree := (i, j) :: !tree
      | None -> if i < n - 1 then tree := (i, i + 1) :: !tree
    done;
    { bags; tree = !tree }
  end

(* [Treewidth.lower_bound_mmd] before its bucket queue: each step scans
   every live vertex for the first of the lowest degree.  Kept as the
   reference for the differential test below. *)
let reference_lower_bound_mmd g =
  let n = Ugraph.num_vertices g in
  let adj = Array.init n (fun v -> ISet.of_list (Ugraph.neighbors g v)) in
  let alive = Array.make n true in
  let best = ref 0 in
  for _ = 1 to n do
    let v = ref (-1) and d = ref max_int in
    for u = 0 to n - 1 do
      if alive.(u) && ISet.cardinal adj.(u) < !d then begin
        v := u;
        d := ISet.cardinal adj.(u)
      end
    done;
    if !v >= 0 then begin
      best := Stdlib.max !best !d;
      alive.(!v) <- false;
      ISet.iter (fun u -> adj.(u) <- ISet.remove !v adj.(u)) adj.(!v);
      adj.(!v) <- ISet.empty
    end
  done;
  !best

(* Everything the flat elimination engine computes agrees with the
   references on [g], compared as values: both greedy orders, their
   widths and [upper_bound]'s pick; the decompositions of
   [of_elimination_order] (raw and through [refine_connected]) for
   those orders and for a shuffled one; [decompose]'s width and
   decomposition for each list of greedy picks and for the shuffled
   order; and the mmd lower bound. *)
let engine_matches_reference ?(seed = 0) g =
  let ((wf, fill) as by_fill) = reference_greedy_order reference_min_fill g
  and ((wd, degree) as by_degree) = reference_greedy_order reference_min_degree g in
  let shuffled =
    let rng = Random.State.make [| seed |] in
    List.map snd
      (List.sort compare
         (List.map (fun v -> (Random.State.bits rng, v)) (Ugraph.vertices g)))
  in
  let reference_td order =
    if order = [] then Treedec.trivial g
    else Treedec.refine_connected (reference_of_elimination_order g order)
  in
  let same_td order =
    let td = Treedec.of_elimination_order g order in
    td = reference_of_elimination_order g order
    && (order = [] || Treedec.refine_connected td = reference_td order)
  in
  let decomposes picks (w, order) =
    Treewidth.decompose picks g = (w, reference_td order)
  in
  let best = if wd < wf then by_degree else by_fill in
  Treewidth.min_fill_order g = fill
  && Treewidth.min_degree_order g = degree
  && Treewidth.width_of_order g fill = wf
  && Treewidth.width_of_order g degree = wd
  && Treewidth.upper_bound g = best
  && List.for_all same_td [ fill; degree; shuffled ]
  && decomposes Elimination.[ Min_fill; Min_degree ] best
  && decomposes [ Elimination.Min_fill ] by_fill
  && decomposes [ Elimination.Min_degree ] by_degree
  && decomposes
       [ Elimination.Given (Array.of_list shuffled) ]
       (Treedec.width (reference_td shuffled), shuffled)
  && Treewidth.lower_bound_mmd g = reference_lower_bound_mmd g

(* The primal graph of each CNF family the benchmark's cnf-count
   workload draws ([chain], [band3], [band5], [grid] with 3–6 rows,
   [band3x8], [rand3-w6]), on [n] variables. *)
let workload_cnf_primal ~seed family n =
  let rng = Random.State.make [| seed |] in
  let band ~width ~offset n =
    List.init (n - width + 1) (fun i -> List.init width (fun j -> offset + i + j))
  in
  let n, clauses =
    match family with
    | 0 -> (n, List.init (n - 1) (fun i -> [ i; i + 1 ]))
    | 1 -> (n, band ~width:3 ~offset:0 n)
    | 2 -> (n, band ~width:5 ~offset:0 n)
    | 3 ->
      let rows = 3 + (seed mod 4) in
      let cols = n / rows in
      let v c r = (c * rows) + r in
      ( cols * rows,
        List.concat
          (List.init cols (fun c ->
               List.concat
                 (List.init rows (fun r ->
                      (if c + 1 < cols then [ [ v c r; v (c + 1) r ] ] else [])
                      @ if r + 1 < rows then [ [ v c r; v c (r + 1) ] ] else [])))) )
    | 4 ->
      let k = n / 8 in
      (8 * k, List.concat (List.init 8 (fun c -> band ~width:3 ~offset:(c * k) k)))
    | _ ->
      ( n,
        List.init (3 * n / 2) (fun _ ->
            let start = Random.State.int rng (n - 5) in
            List.sort_uniq compare
              (List.init 3 (fun _ -> start + Random.State.int rng 6))) )
  in
  let g = Ugraph.create n in
  List.iter
    (fun clause ->
      List.iter (fun a -> List.iter (fun b -> Ugraph.add_edge g a b) clause) clause)
    clauses;
  g

(* Two random graphs side by side, plus isolated vertices. *)
let disconnected_graph ~seed =
  let a = Ugraph.random_partial_ktree ~seed (2 + (seed mod 20)) (1 + (seed mod 3)) 0.7 in
  let b = Ugraph.random_gnp ~seed:(seed + 1) (1 + (seed mod 15)) 0.3 in
  let na = Ugraph.num_vertices a in
  let isolated = seed mod 4 in
  Ugraph.of_edges
    (na + Ugraph.num_vertices b + isolated)
    (Ugraph.edges a @ List.map (fun (u, v) -> (u + na, v + na)) (Ugraph.edges b))

(* The primal graph of a CNF whose clauses span windows of [k + 1]
   consecutive variables, each edge kept with probability 0.8, under a
   random relabelling so that ties do not fall to the lowest index by
   construction. *)
let band_primal ~seed n k =
  let rng = Random.State.make [| seed |] in
  let label =
    let perm = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    perm
  in
  let g = Ugraph.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to Stdlib.min (n - 1) (i + k) do
      if j = i + 1 || Random.State.float rng 1.0 < 0.8 then
        Ugraph.add_edge g label.(i) label.(j)
    done
  done;
  g

let ugraph_suite =
  [
    case "basic construction" (fun () ->
        let g = Ugraph.create 4 in
        Ugraph.add_edge g 0 1;
        Ugraph.add_edge g 1 0;
        (* duplicate ignored *)
        Ugraph.add_edge g 2 2;
        (* self-loop ignored *)
        checki "edges" 1 (Ugraph.num_edges g);
        checkb "has" true (Ugraph.has_edge g 1 0);
        checkb "hasn't" false (Ugraph.has_edge g 0 2));
    case "families sizes" (fun () ->
        checki "path edges" 4 (Ugraph.num_edges (Ugraph.path_graph 5));
        checki "cycle edges" 5 (Ugraph.num_edges (Ugraph.cycle_graph 5));
        checki "clique edges" 10 (Ugraph.num_edges (Ugraph.complete_graph 5));
        checki "grid edges" 12 (Ugraph.num_edges (Ugraph.grid_graph 3 3));
        checki "star edges" 4 (Ugraph.num_edges (Ugraph.star_graph 5));
        checki "bipartite edges" 6 (Ugraph.num_edges (Ugraph.complete_bipartite 2 3)));
    case "components" (fun () ->
        let g = Ugraph.of_edges 5 [ (0, 1); (2, 3) ] in
        checki "three components" 3 (List.length (Ugraph.components g));
        checkb "not connected" false (Ugraph.is_connected g);
        checkb "path connected" true (Ugraph.is_connected (Ugraph.path_graph 4)));
    case "induced subgraph" (fun () ->
        let g = Ugraph.cycle_graph 5 in
        let h, map = Ugraph.induced_subgraph g [ 0; 1; 2 ] in
        checki "vertices" 3 (Ugraph.num_vertices h);
        checki "edges" 2 (Ugraph.num_edges h);
        checki "map" 0 map.(0));
    case "complement" (fun () ->
        let g = Ugraph.path_graph 4 in
        let h = Ugraph.complement g in
        checki "edges" (6 - 3) (Ugraph.num_edges h);
        checkb "0-2 in complement" true (Ugraph.has_edge h 0 2));
    case "random tree is a tree" (fun () ->
        let g = Ugraph.random_tree ~seed:5 20 in
        checki "edges" 19 (Ugraph.num_edges g);
        checkb "connected" true (Ugraph.is_connected g));
    qtest "gnp edges within range" QCheck2.Gen.(int_range 0 100) (fun seed ->
        let g = Ugraph.random_gnp ~seed 8 0.5 in
        Ugraph.num_edges g <= 28);
  ]

let treedec_suite =
  [
    case "trivial decomposition valid" (fun () ->
        let g = Ugraph.complete_graph 4 in
        let t = Treedec.trivial g in
        checkb "valid" true (td_valid g t);
        checki "width" 3 (Treedec.width t));
    case "elimination order on path" (fun () ->
        let g = Ugraph.path_graph 6 in
        let t = Treedec.of_elimination_order g [ 0; 1; 2; 3; 4; 5 ] in
        checkb "valid" true (td_valid g t);
        checki "width" 1 (Treedec.width t));
    case "elimination order on cycle" (fun () ->
        let g = Ugraph.cycle_graph 6 in
        let t = Treedec.of_elimination_order g [ 0; 1; 2; 3; 4; 5 ] in
        checkb "valid" true (td_valid g t);
        checki "width" 2 (Treedec.width t));
    case "bad order rejected" (fun () ->
        let g = Ugraph.path_graph 3 in
        Alcotest.check_raises "raise"
          (Invalid_argument
             "Treedec.of_elimination_order: not a permutation of the vertices")
          (fun () -> ignore (Treedec.of_elimination_order g [ 0; 1 ])));
    case "validate catches broken bags" (fun () ->
        let g = Ugraph.path_graph 3 in
        let t = { Treedec.bags = [| [ 0; 1 ] |]; tree = [] } in
        checkb "invalid" false (Treedec.is_valid g t));
    case "validate catches disconnected occurrence" (fun () ->
        let g = Ugraph.path_graph 3 in
        let t =
          { Treedec.bags = [| [ 0; 1 ]; [ 1; 2 ]; [ 0 ] |]; tree = [ (0, 1); (1, 2) ] }
        in
        checkb "invalid" false (Treedec.is_valid g t));
    case "path decomposition of path" (fun () ->
        let g = Ugraph.path_graph 5 in
        let t = Treedec.path_decomposition_of_order g [ 0; 1; 2; 3; 4 ] in
        checkb "valid" true (td_valid g t);
        checki "width" 1 (Treedec.width t));
    qtest "elimination decomposition always valid" QCheck2.Gen.(int_range 0 200)
      (fun seed ->
        let g = Ugraph.random_gnp ~seed 9 0.3 in
        let order = Treewidth.min_fill_order g in
        td_valid g (Treedec.refine_connected (Treedec.of_elimination_order g order)));
    qtest ~count:500 "validate agrees with the reference on corrupted decompositions"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let g, td = corrupted_decomposition seed in
        Treedec.validate g td = reference_validate g td);
    case "each corruption is caught with the reference's message" (fun () ->
        let messages = Hashtbl.create 8 in
        for seed = 0 to 999 do
          let g, td = corrupted_decomposition seed in
          match reference_validate g td with
          | Ok () -> ()
          | Error msg ->
            checkb msg true (Treedec.validate g td = Error msg);
            Hashtbl.replace messages (List.hd (String.split_on_char ' ' msg)) ()
        done;
        (* tree / vertex / edge / occurrence: all four failure kinds. *)
        checki "failure kinds seen" 4 (Hashtbl.length messages));
  ]

let nice_suite =
  [
    case "nice of path decomposition" (fun () ->
        let g = Ugraph.path_graph 6 in
        let td = Treewidth.decomposition g in
        let nice = Nice.of_treedec td in
        (match Nice.validate g nice with
         | Ok () -> ()
         | Error m -> Alcotest.failf "invalid nice decomposition: %s" m);
        checki "width preserved" (Treedec.width td) (Nice.width nice));
    case "every vertex forgotten exactly once" (fun () ->
        let g = Ugraph.cycle_graph 7 in
        let nice = Nice.of_treedec (Treewidth.decomposition g) in
        let forgotten = List.sort compare (List.map fst (Nice.forget_nodes nice)) in
        Alcotest.(check (list int)) "all once" (Ugraph.vertices g) forgotten);
    qtest "nice decomposition valid on random graphs" QCheck2.Gen.(int_range 0 100)
      (fun seed ->
        let g = Ugraph.random_gnp ~seed 10 0.35 in
        let nice = Nice.of_treedec (Treewidth.decomposition g) in
        Result.is_ok (Nice.validate g nice));
    qtest "nice width equals decomposition width" QCheck2.Gen.(int_range 200 300)
      (fun seed ->
        let g = Ugraph.random_gnp ~seed 9 0.4 in
        let td = Treewidth.decomposition g in
        Nice.width (Nice.of_treedec td) = Treedec.width td);
  ]

let treewidth_suite =
  [
    case "known treewidths" (fun () ->
        checki "path" 1 (Treewidth.exact (Ugraph.path_graph 8));
        checki "cycle" 2 (Treewidth.exact (Ugraph.cycle_graph 8));
        checki "clique" 6 (Treewidth.exact (Ugraph.complete_graph 7));
        checki "tree" 1 (Treewidth.exact (Ugraph.random_tree ~seed:3 12));
        checki "grid 3x3" 3 (Treewidth.exact (Ugraph.grid_graph 3 3));
        checki "grid 3x4" 3 (Treewidth.exact (Ugraph.grid_graph 3 4));
        checki "K23" 2 (Treewidth.exact (Ugraph.complete_bipartite 2 3));
        checki "single vertex" 0 (Treewidth.exact (Ugraph.create 1));
        checki "empty graph" (-1) (Treewidth.exact (Ugraph.create 0)));
    case "known pathwidths" (fun () ->
        checki "path" 1 (Treewidth.pathwidth_exact (Ugraph.path_graph 8));
        checki "cycle" 2 (Treewidth.pathwidth_exact (Ugraph.cycle_graph 8));
        checki "clique" 5 (Treewidth.pathwidth_exact (Ugraph.complete_graph 6));
        checki "star" 1 (Treewidth.pathwidth_exact (Ugraph.star_graph 8));
        (* Complete binary tree of height 3 has pathwidth 2 > treewidth 1. *)
        let bt =
          Ugraph.of_edges 15 (List.init 14 (fun i -> (i + 1, (i - 1) / 2)))
        in
        checki "binary tree tw" 1 (Treewidth.exact bt);
        checki "binary tree pw" 2 (Treewidth.pathwidth_exact bt));
    case "size limit enforced" (fun () ->
        Alcotest.check_raises "raise"
          (Invalid_argument "Treewidth.exact: graph has 25 vertices (limit 18)")
          (fun () -> ignore (Treewidth.exact (Ugraph.path_graph 25))));
    case "partial ktree width bounded" (fun () ->
        let g = Ugraph.random_partial_ktree ~seed:11 14 3 0.8 in
        checkb "tw <= 3" true (Treewidth.exact g <= 3));
    qtest "heuristic >= exact >= lower bound" QCheck2.Gen.(int_range 0 150) (fun seed ->
        let g = Ugraph.random_gnp ~seed 9 0.3 in
        let ub, _ = Treewidth.upper_bound g in
        let ex = Treewidth.exact g in
        let lb = Treewidth.lower_bound_mmd g in
        lb <= ex && ex <= ub);
    qtest "greedy width is the width of its order" QCheck2.Gen.(int_range 0 300)
      (fun seed ->
        let g = Ugraph.random_gnp ~seed (1 + (seed mod 14)) 0.35 in
        let w, order = Treewidth.upper_bound g in
        let fill = Treewidth.min_fill_order g
        and degree = Treewidth.min_degree_order g in
        let wf = Treewidth.width_of_order g fill
        and wd = Treewidth.width_of_order g degree in
        w = Treewidth.width_of_order g order
        && w = Stdlib.min wf wd
        && order = if wd < wf then degree else fill);
    qtest ~count:200 "greedy orders match the rescanning reference on random graphs"
      QCheck2.Gen.(pair (int_range 1 60) (int_range 0 100_000))
      (fun (n, seed) ->
        let p = [| 0.03; 0.08; 0.15; 0.3; 0.5 |].(seed mod 5) in
        greedy_matches_reference (Ugraph.random_gnp ~seed n p));
    qtest ~count:8 "greedy orders match the reference above 300 vertices"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let g =
          if seed mod 2 = 0 then band_primal ~seed (301 + (seed mod 150)) (2 + (seed mod 5))
          else Ugraph.grid_graph (16 + (seed mod 5)) 20
        in
        Ugraph.num_vertices g > 300 && greedy_matches_reference g);
    qtest ~count:150 "random graphs: flat elimination matches the set-based code"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let n = 1 + (seed mod 40) in
        let g =
          match seed mod 4 with
          | 0 -> Ugraph.random_partial_ktree ~seed n (1 + (seed mod 5)) 0.6
          | 1 -> Ugraph.random_gnp ~seed n [| 0.05; 0.15; 0.3; 0.6 |].(seed / 4 mod 4)
          | 2 -> Ugraph.grid_graph (1 + (seed mod 6)) (1 + (seed / 6 mod 8))
          | _ -> disconnected_graph ~seed
        in
        engine_matches_reference ~seed g);
    case "0 and 1 vertices: flat elimination matches" (fun () ->
        checkb "empty" true (engine_matches_reference (Ugraph.create 0));
        checkb "single" true (engine_matches_reference (Ugraph.create 1));
        checkb "two isolated" true (engine_matches_reference (Ugraph.create 2)));
    qtest ~count:12 "benchmark CNF families: flat elimination matches"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let family = seed mod 6 in
        engine_matches_reference ~seed
          (workload_cnf_primal ~seed family (150 + (seed mod 150))));
    case "benchmark circuits: flat elimination matches" (fun () ->
        List.iter
          (fun (name, c) ->
            checkb name true (engine_matches_reference (Circuit.underlying_graph c)))
          [
            ("chain-impl", Generators.chain_implications 30);
            ("parity-chain", Generators.parity_chain 48);
            ("band3", Generators.band_cnf ~width:3 20);
            ("ladder-4", Generators.ladder ~tracks:4 7);
          ]);
    case "decompose needs a heuristic" (fun () ->
        Alcotest.check_raises "empty list"
          (Invalid_argument "Treewidth.decompose: no heuristic")
          (fun () -> ignore (Treewidth.decompose [] (Ugraph.path_graph 3))));
    case "greedy matches the reference on the empty graph" (fun () ->
        checkb "empty" true (greedy_matches_reference (Ugraph.create 0)));
    case "a tripped budget stops the greedy heuristics" (fun () ->
        let budget = Budget.create () in
        Budget.cancel_now budget;
        Alcotest.check_raises "upper_bound" (Budget.Exhausted Budget.Cancelled)
          (fun () ->
            ignore (Treewidth.upper_bound ~budget (band_primal ~seed:1 1000 4))));
    qtest "pathwidth >= treewidth" QCheck2.Gen.(int_range 0 100) (fun seed ->
        let g = Ugraph.random_gnp ~seed 8 0.35 in
        Treewidth.pathwidth_exact g >= Treewidth.exact g);
    qtest "exact order witnesses exact width" QCheck2.Gen.(int_range 0 100)
      (fun seed ->
        let g = Ugraph.random_gnp ~seed 8 0.4 in
        let w, order = Treewidth.exact_order g in
        Treewidth.width_of_order g order = w);
    qtest "pathwidth order witnesses width" QCheck2.Gen.(int_range 0 60) (fun seed ->
        let g = Ugraph.random_gnp ~seed 7 0.4 in
        let w, order = Treewidth.pathwidth_order g in
        let pd = Treedec.path_decomposition_of_order g order in
        Treedec.is_valid g pd && Treedec.width pd <= w);
  ]

let suites =
  [
    ("ugraph", ugraph_suite);
    ("treedec", treedec_suite);
    ("nice", nice_suite);
    ("treewidth", treewidth_suite);
  ]
