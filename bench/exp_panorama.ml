(* E1 — Figure 1: the compilability panorama for Boolean functions.

   For families with bounded circuit treewidth or pathwidth, all the
   widths in the bottom of Figure 1 stay bounded as n grows; for a family
   with unbounded circuit treewidth (hidden weighted bit), both OBDD
   width and SDD width grow.  Reproduces the inclusions
   CPW(O(1)) = OBDD(O(1)) ⊆ CTW(O(1)) = SDD(O(1)). *)

(* OBDD width through the scalable backend: compile the circuit itself
   on the right-linear manager over its natural variable order.  A
   truth-table route would tabulate 2^n rows and cap the families at
   ~20 variables; the ITE apply is polynomial in the OBDD it builds, so
   the bounded-pathwidth families scale far past that. *)
let obdd_width_natural circuit =
  let m = Sdd.Obdd.manager (Circuit.variables circuit) in
  Sdd.Obdd.width m (Sdd.Obdd.compile_circuit m circuit)

(* Minimum OBDD width over every variable order, read off the truth
   table by the Sieling–Wegener oracle (tiny functions only). *)
let best_obdd_width f =
  let rec orders = function
    | [] -> [ [] ]
    | vars ->
      List.concat_map
        (fun x -> List.map (List.cons x) (orders (List.filter (( <> ) x) vars)))
        vars
  in
  let width order =
    List.fold_left (fun w (_, c) -> max w c) 0 (Boolfun.obdd_profile f order)
  in
  List.fold_left
    (fun acc order -> min acc (width order))
    max_int
    (orders (Boolfun.variables f))

(* SDD width through the pipeline's treedec vtree (Lemma 1 on the best
   available decomposition), again without a truth table in sight. *)
let sdw_compiled circuit =
  let m, node = Pipeline.compile_exn ~vtree_strategy:`Treedec circuit in
  Sdd.width m node

let family_row name circuit =
  let g = Circuit.underlying_graph circuit in
  let tw, _ = Treewidth.upper_bound g in
  let pw =
    if Ugraph.num_vertices g <= 16 then
      Table.fi (Treewidth.pathwidth_exact g)
    else "-"
  in
  [
    name;
    Table.fi (Circuit.num_vars circuit);
    Table.fi tw;
    pw;
    Table.fi (obdd_width_natural circuit);
    Table.fi (sdw_compiled circuit);
  ]

let run () =
  Table.section "E1 — Figure 1: width panorama (CPW = OBDD width, CTW = SDD width)";
  let rows =
    List.concat
      [
        List.map
          (fun n -> family_row (Printf.sprintf "chain-implications") (Generators.chain_implications n))
          [ 4; 8; 16; 32; 64 ];
        List.map
          (fun n -> family_row "parity-chain" (Generators.parity_chain n))
          [ 4; 8; 16; 32; 64 ];
        List.map
          (fun n -> family_row "band-3-cnf" (Generators.band_cnf ~width:3 n))
          [ 4; 8; 16; 32; 64 ];
        List.map
          (fun n ->
            family_row "hidden-weighted-bit"
              (Circuit.of_boolfun_dnf (Families.hidden_weighted_bit n)))
          [ 3; 4; 5; 6; 7 ];
      ]
  in
  Table.print
    ~title:
      "bounded-treewidth families keep every width bounded; HWB (unbounded \
       ctw) does not"
    ~header:[ "family"; "n"; "tw(C)<="; "pw(C)"; "obddW"; "sdw(L1)" ]
    rows;
  Table.note
    "paper: CPW(O(1)) = OBDD(O(1)) ⊆ CTW(O(1)) = SDD(O(1)); widths of the \
     first three families stay O(1) while hidden-weighted-bit grows.";
  (* Exact minimal widths over all orders/vtrees for small functions:
     OBDD width can only improve when moving to SDD width (right-linear
     vtrees are a special case of vtrees). *)
  let rows =
    List.map
      (fun (name, f) ->
        let ow = best_obdd_width f in
        let sw, _ = Compile.sdw_min f in
        (* An OBDD level of w nodes becomes ≤ 2w elements of the canonical
           SDD on the right-linear vtree, and vtree choice only helps. *)
        [ name; Table.fi ow; Table.fi sw; Table.fb (sw <= (2 * ow) + 2) ])
      [
        ("majority-3", Families.majority 3);
        ("parity-4", Families.parity 4);
        ("threshold-2-of-4", Families.threshold 2 4);
        ("disjointness-2", Families.disjointness 2);
        ("random-4a", Boolfun.random ~seed:1 (Families.xs 4));
        ("random-4b", Boolfun.random ~seed:2 (Families.xs 4));
      ]
  in
  Table.print
    ~title:"exact minimal widths (vtrees generalize variable orders)"
    ~header:[ "function"; "obdd width"; "sdd width"; "sdw <= 2*obddW+2" ]
    rows
