(* ------------------------------------------------------------------ *)
(* Greedy elimination orders                                           *)
(* ------------------------------------------------------------------ *)

let min_degree_order ?budget g =
  let e = Elimination.run ?budget ~bags:false Elimination.Min_degree g in
  Array.to_list e.order

let min_fill_order ?budget g =
  let e = Elimination.run ?budget ~bags:false Elimination.Min_fill g in
  Array.to_list e.order

let width_of_order g order =
  Treedec.width (Treedec.of_elimination_order g order)

(* One pass per pick, in list order; the narrowest wins, the earliest
   on ties. *)
let best_pass ?budget ~bags picks g =
  match picks with
  | [] -> invalid_arg "Treewidth.decompose: no heuristic"
  | first :: rest ->
    List.fold_left
      (fun (best : Elimination.t) pick ->
        let e = Elimination.run ?budget ~bags pick g in
        if e.width < best.width then e else best)
      (Elimination.run ?budget ~bags first g)
      rest

let upper_bound ?budget g =
  let e =
    best_pass ?budget ~bags:false Elimination.[ Min_fill; Min_degree ] g
  in
  (e.width, Array.to_list e.order)

let decompose ?budget picks g =
  let e = best_pass ?budget ~bags:true picks g in
  if Ugraph.num_vertices g = 0 then (-1, Treedec.trivial g)
  else (e.width, { Treedec.bags = e.bags; tree = e.tree })

let decomposition ?budget g =
  Obs.span "treewidth.decomposition" @@ fun () ->
  snd (decompose ?budget Elimination.[ Min_fill; Min_degree ] g)

(* ------------------------------------------------------------------ *)
(* Exact treewidth: DP over subsets of eliminated vertices             *)
(* ------------------------------------------------------------------ *)

(* q_cost adj_masks eliminated v = number of vertices outside
   eliminated+{v} reachable from v by a path whose internal vertices lie
   in [eliminated]: the degree of v at the moment it is eliminated after
   the set [eliminated]. *)
let q_cost adj_masks n eliminated v =
  let seen = ref (1 lsl v) in
  let frontier = ref (1 lsl v) in
  let reached_outside = ref 0 in
  while !frontier <> 0 do
    let next = ref 0 in
    for u = 0 to n - 1 do
      if !frontier land (1 lsl u) <> 0 then begin
        let nbrs = adj_masks.(u) land lnot !seen in
        let inside = nbrs land eliminated in
        let outside = nbrs land lnot eliminated in
        reached_outside := !reached_outside lor outside;
        seen := !seen lor nbrs;
        next := !next lor inside
      end
    done;
    frontier := !next
  done;
  let rec popcount x acc = if x = 0 then acc else popcount (x lsr 1) (acc + (x land 1)) in
  popcount (!reached_outside land lnot (1 lsl v)) 0

let check_size name max_vertices g =
  let n = Ugraph.num_vertices g in
  if n > max_vertices then
    invalid_arg
      (Printf.sprintf "%s: graph has %d vertices (limit %d)" name n max_vertices);
  n

let exact_order ?(max_vertices = 18) g =
  Obs.span "treewidth.exact" @@ fun () ->
  let n = check_size "Treewidth.exact" max_vertices g in
  if n = 0 then (-1, [])
  else begin
    let adj_masks =
      Array.init n (fun v ->
          List.fold_left (fun m u -> m lor (1 lsl u)) 0 (Ugraph.neighbors g v))
    in
    let size = 1 lsl n in
    let f = Array.make size max_int in
    let choice = Array.make size (-1) in
    f.(0) <- -1;
    (* Width of eliminating nothing: -1, so max with first cost works. *)
    for s = 1 to size - 1 do
      let best = ref max_int and best_v = ref (-1) in
      for v = 0 to n - 1 do
        if s land (1 lsl v) <> 0 then begin
          let s' = s land lnot (1 lsl v) in
          if f.(s') < max_int then begin
            let c = Stdlib.max f.(s') (q_cost adj_masks n s' v) in
            if c < !best then begin
              best := c;
              best_v := v
            end
          end
        end
      done;
      f.(s) <- !best;
      choice.(s) <- !best_v
    done;
    (* Reconstruct an optimal elimination order. *)
    let order = ref [] in
    let s = ref (size - 1) in
    while !s <> 0 do
      let v = choice.(!s) in
      order := v :: !order;
      s := !s land lnot (1 lsl v)
    done;
    (f.(size - 1), !order)
  end

let exact ?max_vertices g = fst (exact_order ?max_vertices g)

let exact_decomposition ?max_vertices g =
  let _, order = exact_order ?max_vertices g in
  if order = [] then Treedec.trivial g
  else Treedec.refine_connected (Treedec.of_elimination_order g order)

(* ------------------------------------------------------------------ *)
(* Lower bound: maximum minimum degree (degeneracy)                    *)
(* ------------------------------------------------------------------ *)

(* Batagelj–Zaversnik: vertices sit in [vert] sorted by current degree,
   [start.(d)] the first of degree [d]; removing the lowest moves each
   higher-degree neighbour one bucket down by a swap.  A removed vertex's
   degree is its core number, and the largest is the degeneracy, which
   any min-degree removal order reaches. *)
let lower_bound_mmd g =
  let n = Ugraph.num_vertices g in
  let adj = Array.init n (Ugraph.neighbor_array g) in
  let deg = Array.map Array.length adj in
  let start = Array.make (Array.fold_left Stdlib.max 0 deg + 2) 0 in
  Array.iter (fun d -> start.(d + 1) <- start.(d + 1) + 1) deg;
  for d = 1 to Array.length start - 1 do
    start.(d) <- start.(d) + start.(d - 1)
  done;
  let vert = Array.make n 0 and at = Array.make n 0 in
  let fill = Array.copy start in
  for v = 0 to n - 1 do
    at.(v) <- fill.(deg.(v));
    vert.(at.(v)) <- v;
    fill.(deg.(v)) <- fill.(deg.(v)) + 1
  done;
  let best = ref 0 in
  for i = 0 to n - 1 do
    let v = vert.(i) in
    let dv = deg.(v) in
    best := Stdlib.max !best dv;
    Array.iter
      (fun u ->
        let du = deg.(u) in
        if du > dv then begin
          (* Swap [u] with the first vertex of its bucket, then shrink
             the bucket past it. *)
          let first = start.(du) in
          let w = vert.(first) in
          vert.(at.(u)) <- w;
          at.(w) <- at.(u);
          vert.(first) <- u;
          at.(u) <- first;
          start.(du) <- first + 1;
          deg.(u) <- du - 1
        end)
      adj.(v)
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Branch and bound over elimination orders                            *)
(* ------------------------------------------------------------------ *)

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
  go x 0

let exact_bb ?(node_budget = 200_000) ?(budget = Budget.unlimited) g =
  Obs.span "treewidth.exact_bb" @@ fun () ->
  let n = Ugraph.num_vertices g in
  if n = 0 then Some (-1)
  else if n > 62 then invalid_arg "Treewidth.exact_bb: more than 62 vertices"
  else begin
    let ub, _ = upper_bound g in
    let best = ref ub in
    let nodes = ref 0 in
    (* Dominance memo: alive-mask -> smallest width-so-far explored. *)
    let memo = Hashtbl.create 4096 in
    let full = if n = 62 then -1 else (1 lsl n) - 1 in
    let initial_adj =
      Array.init n (fun v ->
          List.fold_left (fun m u -> m lor (1 lsl u)) 0 (Ugraph.neighbors g v))
    in
    let eliminate adj v =
      (* Returns the new adjacency after eliminating v (fill-in). *)
      let nbrs = adj.(v) in
      let adj' = Array.copy adj in
      let rec each m =
        if m <> 0 then begin
          let u = m land -m in
          let ui = popcount (u - 1) in
          adj'.(ui) <- (adj'.(ui) lor nbrs) land lnot (1 lsl ui) land lnot (1 lsl v);
          each (m land lnot u)
        end
      in
      each nbrs;
      adj'.(v) <- 0;
      adj'
    in
    let is_clique adj m =
      let rec go rest =
        if rest = 0 then true
        else begin
          let u = rest land -rest in
          let ui = popcount (u - 1) in
          (* u must be adjacent to every other vertex of m *)
          (m land lnot u) land lnot adj.(ui) = 0 && go (rest land lnot u)
        end
      in
      go m
    in
    let rec dfs alive adj width =
      incr nodes;
      if !nodes > node_budget then Budget.exhaust Budget.Node_limit;
      if !nodes land 1023 = 0 then Budget.check budget;
      if width >= !best then ()
      else begin
        let count = popcount alive in
        if count <= width + 1 then best := width
        else begin
          match Hashtbl.find_opt memo alive with
          | Some w when w <= width ->
            if !Obs.enabled_ref then Obs.incr "treewidth.bb.memo_prunes"
          | _ ->
            Hashtbl.replace memo alive width;
            (* Simplicial-vertex reduction: eliminating a vertex whose
               neighborhood is a clique is always safe. *)
            let simplicial = ref (-1) in
            let rec find m =
              if m <> 0 && !simplicial < 0 then begin
                let u = m land -m in
                let ui = popcount (u - 1) in
                if popcount adj.(ui) < !best && is_clique adj adj.(ui) then
                  simplicial := ui
                else find (m land lnot u)
              end
            in
            find alive;
            if !simplicial >= 0 then begin
              let v = !simplicial in
              dfs (alive land lnot (1 lsl v)) (eliminate adj v)
                (Stdlib.max width (popcount adj.(v)))
            end
            else begin
              let rec branch m =
                if m <> 0 then begin
                  let u = m land -m in
                  let v = popcount (u - 1) in
                  let deg = popcount adj.(v) in
                  if deg < !best then
                    dfs (alive land lnot (1 lsl v)) (eliminate adj v)
                      (Stdlib.max width deg);
                  branch (m land lnot u)
                end
              in
              branch alive
            end
        end
      end
    in
    let result =
      match dfs full initial_adj (Stdlib.max (lower_bound_mmd g) 0) with
      | () -> Some !best
      | exception Budget.Exhausted _ ->
        Obs.incr "treewidth.bb.budget_exhausted";
        None
    in
    Obs.incr ~by:!nodes "treewidth.bb.branches";
    result
  end


(* ------------------------------------------------------------------ *)
(* Exact pathwidth via vertex separation number                        *)
(* ------------------------------------------------------------------ *)

let pathwidth_order ?(max_vertices = 18) g =
  Obs.span "treewidth.pathwidth_exact" @@ fun () ->
  let n = check_size "Treewidth.pathwidth_exact" max_vertices g in
  if n = 0 then (-1, [])
  else begin
    let adj_masks =
      Array.init n (fun v ->
          List.fold_left (fun m u -> m lor (1 lsl u)) 0 (Ugraph.neighbors g v))
    in
    let size = 1 lsl n in
    let rec popcount x acc = if x = 0 then acc else popcount (x lsr 1) (acc + (x land 1)) in
    (* boundary s = # of vertices in s with a neighbor outside s *)
    let boundary s =
      let b = ref 0 in
      for v = 0 to n - 1 do
        if s land (1 lsl v) <> 0 && adj_masks.(v) land lnot s <> 0 then incr b
      done;
      !b
    in
    ignore popcount;
    let f = Array.make size max_int in
    let choice = Array.make size (-1) in
    f.(0) <- 0;
    for s = 1 to size - 1 do
      let cost = boundary s in
      let best = ref max_int and best_v = ref (-1) in
      for v = 0 to n - 1 do
        if s land (1 lsl v) <> 0 then begin
          let s' = s land lnot (1 lsl v) in
          if f.(s') < max_int then begin
            let c = Stdlib.max f.(s') cost in
            if c < !best then begin
              best := c;
              best_v := v
            end
          end
        end
      done;
      f.(s) <- !best;
      choice.(s) <- !best_v
    done;
    let order = ref [] in
    let s = ref (size - 1) in
    while !s <> 0 do
      let v = choice.(!s) in
      order := v :: !order;
      s := !s land lnot (1 lsl v)
    done;
    (* Vertex separation number equals pathwidth (Kinnersley 1992). *)
    (f.(size - 1), !order)
  end

let pathwidth_exact ?max_vertices g = fst (pathwidth_order ?max_vertices g)
