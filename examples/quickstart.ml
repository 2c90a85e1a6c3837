(* Quickstart: parse a circuit, compile it to an OBDD and a canonical SDD,
   count models, and compute a probability.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* A small circuit over four variables. *)
  let c = Circuit.of_string "(or (and a b) (and (not a) c) (and b (not d)))" in
  Printf.printf "circuit: %s\n" (Circuit.to_string c);
  Printf.printf "gates: %d, variables: %s\n" (Circuit.size c)
    (String.concat ", " (Circuit.variables c));

  (* Semantic view: truth table backed. *)
  let f = Circuit.to_boolfun c in
  Printf.printf "models: %d of %d\n"
    (Boolfun.count_models_int f)
    (1 lsl Boolfun.num_vars f);

  (* OBDD compilation: a canonical SDD on the right-linear vtree. *)
  let order = Circuit.variables c in
  let om = Sdd.Obdd.manager order in
  let obdd = Sdd.Obdd.compile_circuit om c in
  Printf.printf "OBDD (order %s): size %d, width %d\n"
    (String.concat "<" order) (Sdd.Obdd.size om obdd) (Sdd.Obdd.width om obdd);

  (* Canonical SDD compilation on a balanced vtree. *)
  let vt = Vtree.balanced order in
  Printf.printf "vtree: %s\n" (Vtree.to_string vt);
  let sm = Sdd.manager vt in
  let sdd = Sdd.compile_circuit sm c in
  Printf.printf "SDD: size %d, width %d, nodes %d\n" (Sdd.size sm sdd)
    (Sdd.width sm sdd) (Sdd.node_count sm sdd);
  Printf.printf "SDD model count: %s\n" (Bigint.to_string (Sdd.model_count sm sdd));

  (* Probability with independent variables. *)
  let weight = function "a" -> 0.9 | "b" -> 0.5 | "c" -> 0.2 | _ -> 0.7 in
  Printf.printf "P(circuit) = %.4f (via SDD) = %.4f (via OBDD)\n"
    (Sdd.probability sm sdd weight)
    (Sdd.probability om obdd weight);

  (* The factor-based compiler of the paper produces the same canonical
     SDD — handle equality, not just equivalence. *)
  let via_factors = Compile.sdd_of_boolfun sm f in
  Printf.printf "factor-based compiler agrees (same canonical node): %b\n"
    (Sdd.equal sdd via_factors)
