(* E2 — Figure 2 (lineages of UCQs) and E3 — Figure 3 (UCQs with
   inequalities).

   Inversion-free queries compile to constant-width OBDDs (hence linear
   size); queries with inversions blow up every compiled form — their
   lineage OBDD/SDD sizes grow exponentially with the domain.  The gray
   regions of Figures 2 and 3 are empty: for UCQ lineages the four
   classes collapse into "inversion-free" vs "everything is large". *)

let q_safe = Ucq.of_string "R(x), S(x,y)"
let q_inversion = Ucq.of_string "R(x), S(x,y), T(y)"
let q_union_safe = Ucq.of_string "R(x) | T(y)"
let q_neq_safe = Ucq.of_string "R(x), S(x,y), x != y"
let q_neq_inversion = Ucq.of_string "R(x), S(x,y), T(y), x != y"

let obdd_stats q db =
  let order =
    match q with
    | [ cq ] ->
      (match Qsafety.hierarchical_variable_order cq db with
       | Some o -> o
       | None -> Lineage.variables db)
    | _ -> Lineage.variables db
  in
  let m = Sdd.Obdd.manager order in
  let node = Sdd.Obdd.compile_circuit m (Lineage.circuit q db) in
  (Sdd.Obdd.size m node, Sdd.Obdd.width m node)

let sdd_stats q db =
  (* Best of a few vtrees, as a compiler would search. *)
  let vars = Lineage.variables db in
  let candidates =
    [ Vtree.balanced vars; Vtree.right_linear vars; Vtree.random ~seed:3 vars ]
  in
  List.fold_left
    (fun acc vt ->
      let m = Sdd.manager vt in
      let node = Sdd.compile_circuit m (Lineage.circuit q db) in
      Stdlib.min acc (Sdd.size m node))
    max_int candidates

let query_row name q db_of n =
  let db = db_of n in
  let size, width = obdd_stats q db in
  let sdd = sdd_stats q db in
  [
    name;
    Table.fi n;
    Table.fi (List.length db.Pdb.facts);
    Table.fi width;
    Table.fi size;
    Table.fi sdd;
    Table.fb (Qsafety.inversion_free q);
  ]

let run () =
  Table.section "E2 — Figure 2: lineages of UCQs";
  let header = [ "query"; "n"; "facts"; "obddW"; "obdd size"; "sdd size"; "inv-free" ] in
  let rows =
    List.concat
      [
        List.map (query_row "R(x),S(x,y)" q_safe Pdb.complete_rst) [ 1; 2; 3; 4 ];
        List.map (query_row "R(x)|T(y)" q_union_safe Pdb.complete_rst) [ 1; 2; 3; 4 ];
        List.map (query_row "R(x),S(x,y),T(y)" q_inversion Pdb.complete_rst)
          [ 1; 2; 3; 4 ];
      ]
  in
  Table.print
    ~title:
      "inversion-free UCQs keep constant OBDD width; the inversion query \
       grows exponentially"
    ~header rows;
  Table.note
    "paper: for UCQs, OBDD(O(1)) = SDD(O(1)) = OBDD(poly) = SDD(poly) = \
     inversion-free (Figure 2).";

  Table.section "E3 — Figure 3: lineages of UCQs with inequalities";
  let rows =
    List.concat
      [
        List.map (query_row "R,S,x!=y" q_neq_safe Pdb.complete_rst) [ 1; 2; 3; 4 ];
        List.map (query_row "R,S,T,x!=y" q_neq_inversion Pdb.complete_rst)
          [ 1; 2; 3; 4 ];
      ]
  in
  Table.print
    ~title:
      "with inequalities: inversion-free stays polynomial, inversions blow up"
    ~header rows;
  Table.note
    "paper: for UCQ(≠), OBDD(poly) = SDD(poly) = inversion-free (Figure 3); \
     whether SDD(O(1)) = OBDD(O(1)) there is the open conjecture.";

  (* Exponential growth of the inversion lineage, quantified. *)
  let growth =
    List.map
      (fun n ->
        let db = Pdb.complete_rst n in
        let _, w = obdd_stats q_inversion db in
        (n, w))
      [ 1; 2; 3; 4; 5 ]
  in
  let rows =
    List.map
      (fun (n, w) ->
        [ Table.fi n; Table.fi w; Table.ff (log (float_of_int w) /. log 2.0) ])
      growth
  in
  Table.print
    ~title:"OBDD width of the R(x),S(x,y),T(y) lineage (sorted order)"
    ~header:[ "n"; "width"; "log2(width)" ]
    rows;
  Table.note "log2(width) grows linearly in n: the 2^Ω(n) of Theorem 5 at k=1.";

  (* E15: on the safe side of Figure 2, lifted inference and the compiled
     pipeline agree, and the compiled artifacts stay linear. *)
  let rows =
    List.map
      (fun n ->
        let db = Pdb.complete_rst n in
        let p_lifted = Option.get (Lifted.probability q_safe db) in
        let p_obdd, size = Prob.via_obdd_exn q_safe db in
        [
          Table.fi n;
          Table.fi (List.length db.Pdb.facts);
          Table.fi size;
          Printf.sprintf "%.6f" (Ratio.to_float p_lifted);
          Table.fb (Ratio.equal p_lifted p_obdd);
        ])
      [ 2; 4; 6; 8 ]
  in
  Table.print
    ~title:
      "E15: safe query R(x),S(x,y): lifted (safe-plan) inference vs the \
       compiled pipeline"
    ~header:[ "n"; "facts"; "obdd size"; "P"; "agree" ]
    rows;
  Table.note
    "the OBDD grows linearly in the number of facts and both routes \
     compute the same exact probability; on safe queries compilation and \
     lifted inference coincide (Figure 2's tractable region)."
