(* Probabilistic query evaluation by query compilation (paper, Section 1
   and Section 4).

   A tuple-independent database of movie facts; a safe (hierarchical)
   query and an unsafe (inversion) query; the probability of each is
   computed by brute force and through compiled OBDD/SDD/d-SDNNF forms.

   Run with:  dune exec examples/probabilistic_queries.exe *)

let db =
  (* Likes(person, genre), Showing(genre, cinema), Open(cinema) *)
  Pdb.make
    [
      (Pdb.tuple "Likes" [ "ann"; "scifi" ], Ratio.of_ints 9 10);
      (Pdb.tuple "Likes" [ "ann"; "noir" ], Ratio.of_ints 1 2);
      (Pdb.tuple "Likes" [ "bob"; "noir" ], Ratio.of_ints 3 4);
      (Pdb.tuple "Showing" [ "scifi"; "rex" ], Ratio.of_ints 2 3);
      (Pdb.tuple "Showing" [ "noir"; "rex" ], Ratio.of_ints 1 3);
      (Pdb.tuple "Showing" [ "noir"; "lux" ], Ratio.of_ints 4 5);
      (Pdb.tuple "Open" [ "rex" ], Ratio.of_ints 1 2);
      (Pdb.tuple "Open" [ "lux" ], Ratio.of_ints 9 10);
    ]

let report name q =
  Printf.printf "--- %s\n" name;
  Printf.printf "query: %s\n" (Ucq.to_string q);
  Printf.printf "hierarchical: %b, inversion-free: %b\n" (Qsafety.hierarchical q)
    (Qsafety.inversion_free q);
  (match q with
   | [ cq ] ->
     (match Qsafety.witness_non_hierarchical cq with
      | Some (x, y) -> Printf.printf "non-hierarchical witness pair: (%s, %s)\n" x y
      | None -> ())
   | _ -> ());
  let lineage = Lineage.circuit q db in
  Printf.printf "lineage circuit: %d gates over %d tuple variables\n"
    (Circuit.size lineage)
    (List.length (Circuit.variables lineage));
  let exact = Prob.brute q db in
  let p_obdd, obdd_size = Prob.via_obdd_exn q db in
  let p_sdd, sdd_size = Prob.via_exn q db in
  let p_dnnf, dnnf_size = Prob.via_exn ~backend:`Dnnf q db in
  Printf.printf "P = %s = %.6f\n" (Ratio.to_string exact) (Ratio.to_float exact);
  Printf.printf "  brute force        : %s\n" (Ratio.to_string exact);
  Printf.printf "  via OBDD  (size %3d): %s\n" obdd_size (Ratio.to_string p_obdd);
  Printf.printf "  via SDD   (size %3d): %s\n" sdd_size (Ratio.to_string p_sdd);
  Printf.printf "  via dSDNNF(size %3d): %s\n" dnnf_size (Ratio.to_string p_dnnf);
  assert (Ratio.equal exact p_obdd);
  assert (Ratio.equal exact p_sdd);
  assert (Ratio.equal exact p_dnnf);
  (match q with
   | [ cq ] ->
     (match Lifted.plan_cq cq db with
      | Some plan ->
        let rendered = Format.asprintf "%a" Lifted.pp_plan plan in
        if String.length rendered <= 300 then
          Printf.printf "  safe plan: %s\n" rendered
        else Printf.printf "  safe plan: (%d characters, elided)\n" (String.length rendered);
        Printf.printf "  lifted   : %s (no compilation needed)\n"
          (Ratio.to_string (Lifted.eval_plan db plan))
      | None -> print_endline "  no safe plan: compilation is the only route")
   | _ -> ());
  print_newline ()

let () =
  Format.printf "%a@." Pdb.pp db;
  (* Safe: does anyone like a genre?  Hierarchical. *)
  report "safe query" (Ucq.of_string "Likes(p,g), Showing(g,c)");
  (* Unsafe: the inversion pattern Likes(p,g), Showing(g,c), Open(c) has
     the R(x),S(x,y),T(y) shape on (g,c). *)
  report "unsafe query (inversion)" (Ucq.of_string "Likes(p,g), Showing(g,c), Open(c)");
  (* A union with an inequality. *)
  report "union with inequality"
    (Ucq.of_string "Showing(g,c), Showing(h,c), g != h | Open(c)")
