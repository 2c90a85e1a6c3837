type pick = Min_fill | Min_degree | Given of int array

type t = {
  order : int array;
  width : int;
  bags : int list array;
  tree : (int * int) list;
}

(* Binary min-heap of ints in a growable array. *)
type heap = { mutable keys : int array; mutable size : int }

let rec sift_up a k i =
  let p = (i - 1) / 2 in
  if i > 0 && a.(p) > k then begin
    a.(i) <- a.(p);
    sift_up a k p
  end
  else a.(i) <- k

let rec sift_down a n k i =
  let l = (2 * i) + 1 in
  let c = if l + 1 < n && a.(l + 1) < a.(l) then l + 1 else l in
  if l < n && a.(c) < k then begin
    a.(i) <- a.(c);
    sift_down a n k c
  end
  else a.(i) <- k

let heap_push h k =
  if h.size = Array.length h.keys then begin
    let keys = Array.make (2 * h.size) 0 in
    Array.blit h.keys 0 keys 0 h.size;
    h.keys <- keys
  end;
  sift_up h.keys k h.size;
  h.size <- h.size + 1

let heap_pop h =
  let a = h.keys in
  let top = a.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then sift_down a h.size a.(h.size) 0;
  top

(* Insertion sort of [a.(0 .. d-1)]: O(d²), like the fill-in that
   follows it. *)
let sort_prefix a d =
  for i = 1 to d - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let run ?(budget = Budget.unlimited) ~bags:want_bags pick g =
  let n = Ugraph.num_vertices g in
  (* [adj.(v).(0 .. deg.(v)-1)]: the live neighbours of a live [v]. *)
  let adj = Array.init n (Ugraph.neighbor_array g) in
  let deg = Array.map Array.length adj in
  let add_neighbour a b =
    let k = deg.(a) in
    if k = Array.length adj.(a) then begin
      let grown = Array.make (Stdlib.max 4 (2 * k)) 0 in
      Array.blit adj.(a) 0 grown 0 k;
      adj.(a) <- grown
    end;
    adj.(a).(k) <- b;
    deg.(a) <- k + 1
  in
  (* [mark.(x) = !stamp]: [x] is in the set stamped last. *)
  let mark = Array.make n 0 and stamp = ref 0 in
  let fill w =
    incr stamp;
    let t = !stamp and nw = adj.(w) and d = deg.(w) in
    for i = 0 to d - 1 do mark.(nw.(i)) <- t done;
    (* Each edge inside [N(w)] is counted from both ends. *)
    let linked = ref 0 in
    for i = 0 to d - 1 do
      let a = nw.(i) in
      let na = adj.(a) in
      for j = 0 to deg.(a) - 1 do
        if mark.(na.(j)) = t then incr linked
      done
    done;
    (d * (d - 1) / 2) - (!linked / 2)
  in
  let evaluate w =
    (* A min-fill score is O(Σ deg) on fill-heavy graphs, so the
       heuristic as a whole can dominate a budgeted compile; poll per
       evaluation to keep vtree construction pollable. *)
    if budget.Budget.active then Budget.poll budget;
    match pick with Min_fill -> fill w | Min_degree | Given _ -> deg.(w)
  in
  let greedy = match pick with Given _ -> false | Min_fill | Min_degree -> true in
  let min_fill = match pick with Min_fill -> true | _ -> false in
  (* [score.(v)] is current for a live [v]; the heap may also hold stale
     keys of it, skipped when popped.  [pos.(v)] is [v]'s step, [-1]
     while live. *)
  let score = Array.make (if greedy then n else 0) 0 in
  let heap = { keys = Array.make (if greedy then Stdlib.max 1 n else 1) 0; size = 0 } in
  if greedy then
    for v = 0 to n - 1 do
      score.(v) <- evaluate v;
      heap_push heap ((score.(v) * n) + v)
    done;
  let pos = Array.make n (-1) in
  let rec next () =
    let k = heap_pop heap in
    let v = k mod n in
    if pos.(v) >= 0 || k / n <> score.(v) then next () else v
  in
  (* [rescored.(w) = step]: [w] was rescored after the [step]-th
     elimination.  [ends.(0 .. !n_ends-1)] are that step's fill-edge
     endpoints, [is_end.(x) = step] for each. *)
  let rescored = Array.make (if greedy then n else 0) (-1) in
  let rescore step w =
    if rescored.(w) <> step then begin
      rescored.(w) <- step;
      let s = evaluate w in
      if s <> score.(w) then begin
        score.(w) <- s;
        heap_push heap ((s * n) + w)
      end
    end
  in
  let ends = Array.make (if min_fill then n else 0) 0 and n_ends = ref 0 in
  let is_end = Array.make (if min_fill then n else 0) (-1) in
  let add_end step x =
    if is_end.(x) <> step then begin
      is_end.(x) <- step;
      ends.(!n_ends) <- x;
      incr n_ends
    end
  in
  let order = Array.make n 0 and width = ref (-1) in
  let bags = Array.make (if want_bags then n else 0) [] in
  for step = 0 to n - 1 do
    let v = match pick with Given o -> o.(step) | Min_fill | Min_degree -> next () in
    order.(step) <- v;
    pos.(v) <- step;
    let nb = adj.(v) and d = deg.(v) in
    if d > !width then width := d;
    if want_bags then begin
      sort_prefix nb d;
      let bag = ref [] in
      for i = d - 1 downto 0 do bag := nb.(i) :: !bag done;
      bags.(step) <- v :: !bag
    end;
    (* Drop [v] from each neighbour's list while stamping the rest,
       then join that neighbour to the later ones it misses. *)
    n_ends := 0;
    for i = 0 to d - 1 do
      let a = nb.(i) in
      incr stamp;
      let t = !stamp and na = adj.(a) and kept = ref 0 in
      for j = 0 to deg.(a) - 1 do
        let x = na.(j) in
        if x <> v then begin
          na.(!kept) <- x;
          incr kept;
          mark.(x) <- t
        end
      done;
      deg.(a) <- !kept;
      for j = i + 1 to d - 1 do
        let b = nb.(j) in
        if mark.(b) <> t then begin
          add_neighbour a b;
          add_neighbour b a;
          if min_fill then begin
            add_end step a;
            add_end step b
          end
        end
      done
    done;
    deg.(v) <- 0;
    if greedy then begin
      (* Only these scores can change: the neighbours' degrees and
         fills, and the fill of every vertex adjacent to both ends of a
         fill edge. *)
      for i = 0 to d - 1 do rescore step nb.(i) done;
      for i = 0 to !n_ends - 1 do
        let e = ends.(i) in
        let ne = adj.(e) in
        for j = 0 to deg.(e) - 1 do rescore step ne.(j) done
      done
    end
  done;
  let tree = ref [] in
  if want_bags then
    for i = 0 to n - 1 do
      match bags.(i) with
      | _ :: (_ :: _ as later) ->
        let j = List.fold_left (fun j u -> Stdlib.min j pos.(u)) n later in
        tree := (i, j) :: !tree
      | _ -> if i < n - 1 then tree := (i, i + 1) :: !tree
    done;
  { order; width = !width; bags; tree = !tree }
