(* An independent weighted model counter for circuits, by bucket
   elimination.  It shares no code with the compiler: no Sdd, Pipeline,
   Lineage, Treewidth, Bigint or Ratio.  It reads the circuit's gates
   and nothing else of the library.

   Every gate is a 0/1 table over itself and its inputs; a wide And/Or
   becomes a chain of binary gates, so no table has more than three
   variables to start with.  Each input variable carries a weight k/8,
   kept exact as the integer pair (8 - k, k), so the sum over all
   assignments is 8^n times the probability, for n input variables.
   Variables are eliminated in a min-degree order computed here; a step
   costs 2^(its table's width).  The result is a decimal string, as
   [bench/perf/oracle.ml] compares its counts. *)

(* Non-negative integers as little-endian limbs in base 10^9, so a limb
   product plus two limbs of carry stays below [max_int]. *)
module Nat = struct
  type t = int array

  let base = 1_000_000_000
  let zero : t = [||]

  let of_int n : t =
    if n < 0 then invalid_arg "Bucket_oracle.Nat.of_int: negative";
    let rec limbs n = if n = 0 then [] else (n mod base) :: limbs (n / base) in
    Array.of_list (limbs n)

  let is_zero (a : t) = Array.length a = 0

  let trim (r : t) : t =
    let n = ref (Array.length r) in
    while !n > 0 && r.(!n - 1) = 0 do
      decr n
    done;
    if !n = Array.length r then r else Array.sub r 0 !n

  let add (a : t) (b : t) : t =
    let la = Array.length a and lb = Array.length b in
    let r = Array.make (max la lb + 1) 0 in
    let carry = ref 0 in
    for i = 0 to Array.length r - 1 do
      let s =
        (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
      in
      r.(i) <- s mod base;
      carry := s / base
    done;
    trim r

  let mul (a : t) (b : t) : t =
    if is_zero a || is_zero b then zero
    else begin
      let la = Array.length a and lb = Array.length b in
      let r = Array.make (la + lb) 0 in
      for i = 0 to la - 1 do
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let s = r.(i + j) + (a.(i) * b.(j)) + !carry in
          r.(i + j) <- s mod base;
          carry := s / base
        done;
        let k = ref (i + lb) in
        while !carry > 0 do
          let s = r.(!k) + !carry in
          r.(!k) <- s mod base;
          carry := s / base;
          incr k
        done
      done;
      trim r
    end

  let to_string (a : t) =
    let n = Array.length a in
    if n = 0 then "0"
    else begin
      let b = Buffer.create (9 * n) in
      Buffer.add_string b (string_of_int a.(n - 1));
      for i = n - 2 downto 0 do
        Buffer.add_string b (Printf.sprintf "%09d" a.(i))
      done;
      Buffer.contents b
    end
end

(* A table over [vars] (distinct, ascending): entry [x] is the value
   under the assignment giving [vars.(j)] bit [j] of [x].  [of_fun]
   tabulates a 0/1 constraint over variables given in any order. *)
type table = { vars : int array; cells : Nat.t array }

let of_fun vars f =
  let vars = Array.of_list vars in
  let w = Array.length vars in
  let order = Array.init w Fun.id in
  Array.sort (fun i j -> compare vars.(i) vars.(j)) order;
  {
    vars = Array.map (fun i -> vars.(i)) order;
    cells =
      Array.init (1 lsl w) (fun x ->
          (* Bit [j] of [x] is sorted variable [j]; [f] reads the
             variables in the order they were given. *)
          let given = Array.make w false in
          Array.iteri (fun j i -> given.(i) <- (x lsr j) land 1 = 1) order;
          if f given then Nat.of_int 1 else Nat.zero);
  }

(* The index into [t] of the assignment [x] over [vars]. *)
let project vars t x =
  let r = ref 0 and j = ref 0 in
  Array.iteri
    (fun i v ->
      if !j < Array.length t.vars && t.vars.(!j) = v then begin
        if (x lsr i) land 1 = 1 then r := !r lor (1 lsl !j);
        incr j
      end)
    vars;
  !r

(* The product of [ts] with variable [v] summed out. *)
let eliminate v ts =
  let vars =
    List.sort_uniq compare
      (List.concat_map (fun t -> Array.to_list t.vars) ts)
  in
  let vars = Array.of_list vars in
  let w = Array.length vars in
  if w > 24 then failwith "Bucket_oracle: elimination width above 24";
  let pos = ref 0 in
  Array.iteri (fun i u -> if u = v then pos := i) vars;
  let keep = Array.of_list (List.filter (( <> ) v) (Array.to_list vars)) in
  let cells =
    Array.init (1 lsl (w - 1)) (fun y ->
        (* Insert bit [pos] into [y]. *)
        let low = y land ((1 lsl !pos) - 1) in
        let high = (y lsr !pos) lsl (!pos + 1) in
        let at bit =
          let x = high lor (bit lsl !pos) lor low in
          List.fold_left
            (fun acc t ->
              if Nat.is_zero acc then acc else Nat.mul acc t.cells.(project vars t x))
            (Nat.of_int 1) ts
        in
        Nat.add (at 0) (at 1))
  in
  { vars = keep; cells }

(* Min-degree elimination order of the tables' interaction graph, ties
   broken by the smaller variable, with its width: the most variables
   one elimination step tabulates.  A variable's neighbours become a
   clique when it goes. *)
let min_degree_order n tables =
  let adj = Array.init n (fun _ -> Hashtbl.create 4) in
  List.iter
    (fun t ->
      Array.iter
        (fun u ->
          Array.iter (fun v -> if u <> v then Hashtbl.replace adj.(u) v ()) t.vars)
        t.vars)
    tables;
  let gone = Array.make n false in
  let width = ref 0 in
  let order =
    List.init n (fun _ ->
        let best = ref (-1) in
        for v = 0 to n - 1 do
          if (not gone.(v))
             && (!best < 0 || Hashtbl.length adj.(v) < Hashtbl.length adj.(!best))
          then best := v
        done;
        let v = !best in
        gone.(v) <- true;
        width := max !width (Hashtbl.length adj.(v) + 1);
        let nbrs = Hashtbl.fold (fun u () acc -> u :: acc) adj.(v) [] in
        List.iter
          (fun u ->
            Hashtbl.remove adj.(u) v;
            List.iter (fun w -> if u <> w then Hashtbl.replace adj.(u) w ()) nbrs)
          nbrs;
        v)
  in
  (order, !width)

(* The circuit's tables, weighted by [weight], and the number of table
   variables. *)
let tables (c : Circuit.t) ~weight =
  let n_gates = Circuit.size c in
  let next = ref n_gates in
  let fresh () =
    let v = !next in
    incr next;
    v
  in
  (* One table variable per gate; input gates of one name share it. *)
  let by_name = Hashtbl.create 16 in
  let id = Array.init n_gates Fun.id in
  let tables = ref [] in
  let add vars f = tables := of_fun vars f :: !tables in
  let rec chain op g = function
    | [ a; b ] -> add [ g; a; b ] (fun x -> x.(0) = op x.(1) x.(2))
    | a :: b :: rest ->
      let t = fresh () in
      add [ t; a; b ] (fun x -> x.(0) = op x.(1) x.(2));
      chain op g (t :: rest)
    | _ -> assert false
  in
  let gate op unit g ins =
    match List.sort_uniq compare (List.map (fun i -> id.(i)) ins) with
    | [] -> add [ g ] (fun x -> x.(0) = unit)
    | [ a ] -> add [ g; a ] (fun x -> x.(0) = x.(1))
    | ins -> chain op g ins
  in
  for g = 0 to n_gates - 1 do
    match Circuit.gate c g with
    | Circuit.Var name ->
      (match Hashtbl.find_opt by_name name with
       | Some v -> id.(g) <- v
       | None ->
         Hashtbl.add by_name name g;
         let k = weight name in
         if k < 0 || k > 8 then invalid_arg "Bucket_oracle: weight outside 0..8";
         tables :=
           { vars = [| g |]; cells = [| Nat.of_int (8 - k); Nat.of_int k |] }
           :: !tables)
    | Circuit.Const b -> add [ g ] (fun x -> x.(0) = b)
    | Circuit.Not i -> add [ g; id.(i) ] (fun x -> x.(0) <> x.(1))
    | Circuit.And ins -> gate ( && ) true g ins
    | Circuit.Or ins -> gate ( || ) false g ins
  done;
  add [ id.(Circuit.output c) ] (fun x -> x.(0));
  (!tables, !next)

(* The width of the elimination [weighted_count] would run: its cost is
   about 2^width per variable. *)
let width c =
  let tables, n = tables c ~weight:(fun _ -> 4) in
  snd (min_degree_order n tables)

(* Σ over the input assignments that make the circuit true of
   Π (weight v if v is true else 8 - weight v), as a decimal string.
   [weight v] is the numerator k of the variable's probability k/8. *)
let weighted_count c ~weight =
  let tables, n = tables c ~weight in
  let order, _ = min_degree_order n tables in
  let rank = Array.make n 0 in
  List.iteri (fun i v -> rank.(v) <- i) order;
  let bucket = Array.make n [] in
  let scalar = ref (Nat.of_int 1) in
  let file t =
    if Array.length t.vars = 0 then scalar := Nat.mul !scalar t.cells.(0)
    else begin
      let first =
        Array.fold_left (fun b v -> if rank.(v) < rank.(b) then v else b) t.vars.(0) t.vars
      in
      bucket.(first) <- t :: bucket.(first)
    end
  in
  List.iter file tables;
  List.iter
    (fun v -> match bucket.(v) with [] -> () | ts -> file (eliminate v ts))
    order;
  Nat.to_string !scalar
