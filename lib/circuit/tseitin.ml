type clause = (string * bool) list

type cnf = { clauses : clause list; gate_vars : string list }

let gate_var i = Printf.sprintf "_g%d" i

let transform c =
  let clauses = ref [] in
  let gate_vars = ref [] in
  let emit cl = clauses := cl :: !clauses in
  (* Name of the signal carried by gate i: input gates keep their own
     variable; internal gates get a fresh variable. *)
  let name = Array.make (Circuit.size c) "" in
  for i = 0 to Circuit.size c - 1 do
    match Circuit.gate c i with
    | Circuit.Var v -> name.(i) <- v
    | Circuit.Const b ->
      let g = gate_var i in
      name.(i) <- g;
      gate_vars := g :: !gate_vars;
      emit [ (g, b) ]
    | Circuit.Not j ->
      let g = gate_var i in
      name.(i) <- g;
      gate_vars := g :: !gate_vars;
      (* g <-> ¬j *)
      emit [ (g, true); (name.(j), true) ];
      emit [ (g, false); (name.(j), false) ]
    | Circuit.And js ->
      let g = gate_var i in
      name.(i) <- g;
      gate_vars := g :: !gate_vars;
      (* g -> each input; all inputs -> g *)
      List.iter (fun j -> emit [ (g, false); (name.(j), true) ]) js;
      emit ((g, true) :: List.map (fun j -> (name.(j), false)) js)
    | Circuit.Or js ->
      let g = gate_var i in
      name.(i) <- g;
      gate_vars := g :: !gate_vars;
      List.iter (fun j -> emit [ (g, true); (name.(j), false) ]) js;
      emit ((g, false) :: List.map (fun j -> (name.(j), true)) js)
  done;
  (* Assert the output signal. *)
  emit [ (name.(Circuit.output c), true) ];
  { clauses = List.rev !clauses; gate_vars = List.rev !gate_vars }

let to_circuit cnf = Circuit.of_cnf cnf.clauses

let projected_models_agree c cnf =
  let t = Boolfun.lift (Circuit.to_boolfun (to_circuit cnf)) (Circuit.variables c) in
  let projected = List.fold_left (fun f z -> Boolfun.exists_ z f) t cnf.gate_vars in
  Boolfun.equal projected (Circuit.to_boolfun c)
