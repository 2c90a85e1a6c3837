(* E13 — ablation: how much the vtree choice matters (the flexibility the
   paper credits for SDD succinctness), and the pathwidth specialisation:
   the paper's construction on a path layout gives an OBDD of width f(k). *)

let sdd_size_on f vt =
  let m = Sdd.manager vt in
  Sdd.size m (Compile.sdd_of_boolfun m f)

let run () =
  Table.section "E13 — ablation: vtree choice and search";
  let cases =
    [
      ("chain-8", Circuit.to_boolfun (Generators.chain_implications 8), Some (Generators.chain_implications 8));
      ("band3-8", Circuit.to_boolfun (Generators.band_cnf ~width:3 8), Some (Generators.band_cnf ~width:3 8));
      ("majority-7", Families.majority 7, None);
      ("parity-8", Families.parity 8, None);
      ("H0_{1,2}", Families.h0 ~k:1 2, None);
      ("disjointness-4", Families.disjointness 4, None);
      ("random-8", Boolfun.random ~seed:4 (Families.xs 8), None);
    ]
  in
  let rows =
    List.map
      (fun (name, f, circuit) ->
        let vars = Boolfun.variables f in
        let rl = sdd_size_on f (Vtree.right_linear vars) in
        let bal = sdd_size_on f (Vtree.balanced vars) in
        let lemma1 =
          match circuit with
          | Some c -> Table.fi (sdd_size_on f (fst (Lemma1.vtree_of_circuit c)))
          | None -> "-"
        in
        let _, searched = Vtree_search.best_known_exn ~max_steps:25 f in
        [
          name;
          Table.fi (List.length vars);
          Table.fi rl;
          Table.fi bal;
          lemma1;
          Table.fi searched;
        ])
      cases
  in
  Table.print
    ~title:"canonical SDD size under different vtrees"
    ~header:[ "function"; "vars"; "right-linear"; "balanced"; "lemma1"; "searched" ]
    rows;
  Table.note
    "search never loses to the fixed constructions; the gap between \
     right-linear (OBDD) and searched vtrees is the flexibility the paper \
     attributes to SDDs.";

  (* Pathwidth specialisation: compiling on the right-linear vtree over
     the path-layout order gives OBDD width f(pw). *)
  let rows =
    List.map
      (fun n ->
        let c = Generators.chain_implications n in
        let order = Lemma1.obdd_order_of_circuit ~exact:(n <= 5) c in
        let m = Sdd.Obdd.manager order in
        let node = Sdd.compile_circuit m c in
        let g = Circuit.underlying_graph c in
        let pw =
          if Ugraph.num_vertices g <= 16 then
            Table.fi (Treewidth.pathwidth_exact g)
          else "-"
        in
        [
          Table.fi n;
          pw;
          Table.fi (Sdd.Obdd.width m node);
          Table.fi (Sdd.Obdd.size m node);
        ])
      [ 4; 5; 6; 8; 10; 12 ]
  in
  Table.print
    ~title:
      "pathwidth specialisation on chains: OBDD width stays f(pw) as n grows"
    ~header:[ "n"; "pw(C)"; "obdd width"; "obdd size" ]
    rows;

  (* OBDD dynamic reordering: the order-side counterpart of vtree
     search.  The separated order for disjointness is the classic
     exponential trap; sifting escapes it. *)
  let rows =
    List.map
      (fun n ->
        let f = Families.disjointness n in
        let m = Sdd.Obdd.manager (Families.xs n @ Families.ys n) in
        let node = Compile.sdd_of_boolfun m f in
        let before = Sdd.Obdd.size m node in
        let node = Sdd.Obdd.sift m node in
        [
          Table.fi n;
          Table.fi before;
          Table.fi (Sdd.Obdd.size m node);
          Table.fi (Sdd.Obdd.width m node);
        ])
      [ 2; 3; 4; 5 ]
  in
  Table.print
    ~title:"OBDD sifting on disjointness from the separated (worst) order"
    ~header:[ "n"; "size before"; "size after sift"; "width after" ]
    rows;
  Table.note
    "greedy adjacent-transposition sifting recovers the interleaved order's \
     linear size from the exponential separated order.";

  (* E16 — the conclusion's containment: bounded-width SDDs are inside
     polynomial-size OBDDs (and the bounded-fanin-OR conjecture's easy
     direction).  Families with constant sdw get OBDDs of linear size. *)
  Table.section "E16 — bounded SDD width implies polynomial OBDD size";
  let rows =
    List.concat_map
      (fun (name, make) ->
        List.map
          (fun n ->
            let c = make n in
            let f = Circuit.to_boolfun c in
            let vt, _ = Lemma1.vtree_of_circuit c in
            let sdw = Compile.sdw f vt in
            let order = Lemma1.obdd_order_of_circuit c in
            let m = Sdd.Obdd.manager order in
            let node = Sdd.Obdd.sift m (Sdd.compile_circuit m c) in
            let size = Sdd.Obdd.size m node in
            [
              Printf.sprintf "%s-%d" name n;
              Table.fi (Circuit.num_vars c);
              Table.fi sdw;
              Table.fi size;
              Table.ff (float_of_int size /. float_of_int (Circuit.num_vars c));
            ])
          [ 6; 9; 12 ])
      [
        ("chain", Generators.chain_implications);
        ("band3", Generators.band_cnf ~width:3);
        ("parity", Generators.parity_chain);
      ]
  in
  Table.print
    ~title:"constant sdw families: sifted OBDD size stays linear in n"
    ~header:[ "family"; "n"; "sdw(L1)"; "obdd size (sifted)"; "size/n" ]
    rows;
  Table.note
    "bounded SDD width ⟹ polynomial (here linear) OBDD size — the \
     containment SDD(O(1)) ⊆ OBDD(n^O(1)) of Figure 1, i.e. the \
     polynomial simulation of bounded-width (bounded-fanin-OR) SDDs by \
     OBDDs discussed in the conclusion."
