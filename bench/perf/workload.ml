(* The four workloads and their seeded input generators.

   Every workload has [n_instances] instances.  Instance [i] falls in
   stratum [i] of the size range: its size knob is drawn uniformly
   inside the i-th of [n_instances] equal slices (of [log n] for CNFs
   and circuits, of the fact density for queries), and families are
   dealt round-robin.  The seed therefore moves every input — which
   facts exist, their probabilities, the random clauses, each size
   within its slice — but not the size mix, so totals over a run are
   comparable across seeds. *)

type t = Query_sdd | Query_auto | Cnf_count | Circuit_sdd

let all = [ Query_sdd; Query_auto; Cnf_count; Circuit_sdd ]

let name = function
  | Query_sdd -> "query-sdd"
  | Query_auto -> "query-auto"
  | Cnf_count -> "cnf-count"
  | Circuit_sdd -> "circuit-sdd"

let of_string s = List.find_opt (fun w -> name w = s) all

let n_instances = 120

type input =
  | Query of { query : Ucq.t; db : Pdb.t }
  | Dimacs_text of string
  | Gates of Circuit.t

type instance = {
  id : int;
  family : string;
  size : int;  (** facts for queries, variables for CNFs, n for circuits *)
  input : input;
}

(* ------------------------------------------------------------------ *)
(* Parameters (recorded in perf.json and the README)                   *)
(* ------------------------------------------------------------------ *)

let queries =
  [
    ("rs", "R(x), S(x,y)");
    ("rsu", "R(x), S(x,y), U(x,y)");
    ("su", "S(x,y), U(x,z)");
    ("rs|tu", "R(x), S(x,y) | T(z), U(z,w)");
  ]

(* One domain size per query: the queries' costs grow with the domain
   at very different rates.  The size knob is the fact density instead,
   which is continuous (see [random_db]). *)
let query_sdd_domains = [ ("rs", 8); ("rsu", 8); ("su", 4); ("rs|tu", 5) ]
let query_auto_domains = [ ("rs", 10); ("rsu", 8); ("su", 7) ]
let fact_density = (0.6, 0.8)

(* Variable counts, log-uniform. *)
let cnf_vars = (150, 1800)

let cnf_families =
  [ "chain"; "band3"; "band5"; "grid"; "band3x8"; "rand3-w6" ]

(* Per-family size ranges (the circuit's n), log-uniform. *)
let circuit_families =
  [
    ("chain-impl", (20, 40));
    ("parity-chain", (32, 72));
    ("band3", (14, 24));
    ("ladder-4", (3, 9));
  ]

let params_json =
  let open Obs.Json in
  let range (a, b) = List [ Int a; Int b ] in
  Obj
    [
      ("instances", Int n_instances);
      ("queries", List (List.map (fun (_, q) -> String q) queries));
      ("query_sdd_domains", Obj (List.map (fun (f, d) -> (f, Int d)) query_sdd_domains));
      ( "query_auto_domains",
        Obj (List.map (fun (f, d) -> (f, Int d)) query_auto_domains) );
      ("fact_density", List [ Float (fst fact_density); Float (snd fact_density) ]);
      ("cnf_vars", range cnf_vars);
      ("cnf_families", List (List.map (fun f -> String f) cnf_families));
      ( "circuit_families",
        Obj (List.map (fun (f, r) -> (f, range r)) circuit_families) );
    ]

(* ------------------------------------------------------------------ *)
(* Stratified sizes                                                    *)
(* ------------------------------------------------------------------ *)

(* Position of instance [i] in [0, 1): its stratum plus a seeded
   offset inside it. *)
let position st i =
  (float_of_int i +. Random.State.float st 1.0) /. float_of_int n_instances

let log_size (lo, hi) x =
  let l = log (float_of_int lo) and h = log (float_of_int hi) in
  max lo (min hi (int_of_float (Float.round (exp (l +. (x *. (h -. l)))))))

(* ------------------------------------------------------------------ *)
(* Queries over tuple-independent databases                            *)
(* ------------------------------------------------------------------ *)

(* Each of the query's relations over [1..d] keeps [density] of its
   facts (rounded), each with probability k/8, k ∈ 1..7; a binary
   relation spreads them as evenly as possible over its first argument.
   Fixed, even counts rather than an independent coin per fact keep the
   lineage's shape, and so its cost, steady across seeds: the seed
   picks which facts and their probabilities. *)
let random_db st q ~d ~density =
  (* [k] of [0..n-1], chosen at random, ascending. *)
  let choose k n =
    let idx = Array.init n Fun.id in
    for i = 0 to k - 1 do
      let j = i + Random.State.int st (n - i) in
      let t = idx.(i) in
      idx.(i) <- idx.(j);
      idx.(j) <- t
    done;
    let kept = Array.sub idx 0 k in
    Array.sort compare kept;
    Array.to_list kept
  in
  let c i = string_of_int (i + 1) in
  let rows arity =
    let total =
      max 1 (int_of_float (Float.round (density *. (float_of_int d ** float_of_int arity))))
    in
    match arity with
    | 1 -> List.map (fun x -> [ c x ]) (choose total d)
    | 2 ->
      (* As even as possible over the first argument: every x keeps
         [total / d] facts, [total mod d] random rows one more. *)
      let extra = choose (total mod d) d in
      List.concat_map
        (fun x ->
          let k = (total / d) + if List.mem x extra then 1 else 0 in
          List.map (fun y -> [ c x; c y ]) (choose k d))
        (List.init d Fun.id)
    | _ -> invalid_arg "Workload.random_db: arity above 2"
  in
  Pdb.make
    (List.concat_map
       (fun (rel, arity) ->
         List.map
           (fun args -> (Pdb.tuple rel args, Ratio.of_ints (1 + Random.State.int st 7) 8))
           (rows arity))
       (Ucq.relations q))

let query_instances st domains =
  let qs =
    Array.of_list
      (List.map (fun (f, d) -> (f, Ucq.of_string (List.assoc f queries), d)) domains)
  in
  Array.init n_instances (fun i ->
      let family, q, d = qs.(i mod Array.length qs) in
      let x = position st i in
      let density = fst fact_density +. (x *. (snd fact_density -. fst fact_density)) in
      let db = random_db st q ~d ~density in
      { id = i; family; size = List.length db.Pdb.facts; input = Query { query = q; db } })

(* ------------------------------------------------------------------ *)
(* DIMACS CNFs of bounded bandwidth                                    *)
(* ------------------------------------------------------------------ *)

let band ~width ~offset n =
  List.init (n - width + 1) (fun i ->
      List.init width (fun j ->
          let v = offset + i + j + 1 in
          if j mod 2 = 0 then v else -v))

(* Disjoint band3 copies over consecutive variable blocks. *)
let band_copies ~copies n =
  let k = n / copies in
  ( copies * k,
    List.concat (List.init copies (fun c -> band ~width:3 ~offset:(c * k) k)) )

let cnf_family st family ~stratum n =
  match family with
  | "chain" -> (n, List.init (n - 1) (fun i -> [ -(i + 1); i + 2 ]))
  | "band3" -> (n, band ~width:3 ~offset:0 n)
  | "band5" -> (n, band ~width:5 ~offset:0 n)
  | "grid" ->
    (* Column-major numbering: the bandwidth is [rows + 1]. *)
    let rows = 3 + (stratum mod 4) in
    let cols = n / rows in
    let v c r = (c * rows) + r + 1 in
    let clauses =
      List.concat
        (List.init cols (fun c ->
             List.concat
               (List.init rows (fun r ->
                    (if c + 1 < cols then [ [ -v c r; v (c + 1) r ] ] else [])
                    @ if r + 1 < rows then [ [ -v c r; v c (r + 1) ] ] else []))))
    in
    (cols * rows, clauses)
  | "band3x8" -> band_copies ~copies:8 n
  | "rand3-w6" ->
    let clause () =
      let start = 1 + Random.State.int st (n - 5) in
      let rec pick acc =
        if List.length acc = 3 then acc
        else
          let o = Random.State.int st 6 in
          if List.mem o acc then pick acc else pick (o :: acc)
      in
      List.map
        (fun o -> if Random.State.bool st then start + o else -(start + o))
        (pick [])
    in
    (n, List.init (3 * n / 2) (fun _ -> clause ()))
  | f -> invalid_arg ("Workload.cnf_family: " ^ f)

let dimacs_text ~family ~num_vars clauses =
  let b = Buffer.create (16 * List.length clauses) in
  Printf.bprintf b "c %s\np cnf %d %d\n" family num_vars (List.length clauses);
  List.iter
    (fun clause ->
      List.iter (fun l -> Printf.bprintf b "%d " l) clause;
      Buffer.add_string b "0\n")
    clauses;
  Buffer.contents b

let cnf_instances st =
  let fams = Array.of_list cnf_families in
  Array.init n_instances (fun i ->
      let n = log_size cnf_vars (position st i) in
      let family = fams.(i mod Array.length fams) in
      let num_vars, clauses = cnf_family st family ~stratum:(i / Array.length fams) n in
      {
        id = i;
        family;
        size = num_vars;
        input = Dimacs_text (dimacs_text ~family ~num_vars clauses);
      })

(* ------------------------------------------------------------------ *)
(* Bounded-treewidth circuits                                          *)
(* ------------------------------------------------------------------ *)

let circuit_of family n =
  match family with
  | "chain-impl" -> Generators.chain_implications n
  | "parity-chain" -> Generators.parity_chain n
  | "band3" -> Generators.band_cnf ~width:3 n
  | "ladder-4" -> Generators.ladder ~tracks:4 n
  | f -> invalid_arg ("Workload.circuit_of: " ^ f)

let circuit_instances st =
  let fams = Array.of_list circuit_families in
  Array.init n_instances (fun i ->
      let family, range = fams.(i mod Array.length fams) in
      let n = log_size range (position st i) in
      { id = i; family; size = n; input = Gates (circuit_of family n) })

(* ------------------------------------------------------------------ *)

let instances w ~seed =
  let st = Random.State.make [| seed; Hashtbl.hash (name w) |] in
  match w with
  | Query_sdd -> query_instances st query_sdd_domains
  | Query_auto ->
    (* The single-CQ queries only: [`Auto] resolves them to the OBDD on
       the hierarchical order. *)
    query_instances st query_auto_domains
  | Cnf_count -> cnf_instances st
  | Circuit_sdd -> circuit_instances st
