(* Degradation-ladder sweep: how often each lower rung of a ladder fits
   the node-cap trips that reach it.

   For each input and ladder head, the head's need is the smallest
   [max_nodes] cap under which the head rung itself completes, found by
   doubling and then bisection (the node gate is exact and the compile
   deterministic).  The ladder then runs at caps ⌊f·need⌋ for f = 0.25,
   0.5, 0.75 and 0.99.  Every rung above the one it lands on was reached
   and tripped; the landing rung was reached and fit.  The counts are
   pooled per ladder and rung over every cap and family.  Heads whose
   need exceeds 2^20 nodes are reported as skipped.  One domain.

   A CNF component has no ladder, so the CNF half checks that every
   capped run below the Lemma 1 fold's need is an error.

   Run: dune exec bench/ladder_sweep.exe [-- cnf | circuits] *)

let fractions = [ 0.25; 0.5; 0.75; 0.99 ]
let ceiling = 1 lsl 20

exception Too_big

(* The smallest cap under which [ok] holds; [ok] is monotone. *)
let need ok =
  let rec grow hi =
    if hi > ceiling then raise Too_big else if ok hi then hi else grow (2 * hi)
  in
  let hi = grow 16 in
  let rec bisect lo hi =
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if ok mid then bisect lo mid else bisect mid hi
  in
  bisect (if hi = 16 then 0 else hi / 2) hi

let cap_budget cap = Budget.create ~max_nodes:cap ()

let name = function
  | `Right -> "right"
  | `Balanced -> "balanced"
  | `Treedec -> "treedec"
  | `Search -> "search"
  | `Pinned _ -> "pinned"

(* (ladder, rung, f) -> (reached, fit) *)
let tally = Hashtbl.create 64

let bump ladder rung f fit =
  let reached, fits =
    Option.value ~default:(0, 0) (Hashtbl.find_opt tally (ladder, rung, f))
  in
  Hashtbl.replace tally (ladder, rung, f)
    (reached + 1, if fit then fits + 1 else fits)

(* The rungs below each head, as [Pipeline.compile] walks them. *)
let below = function
  | `Search -> [ `Treedec; `Balanced; `Right ]
  | `Treedec -> [ `Balanced; `Right ]
  | `Balanced -> [ `Right ]

let circuit_sweep label c =
  List.iter
    (fun head ->
      let landing cap =
        match
          Pipeline.compile ~domains:1 ~budget:(cap_budget cap)
            ~vtree_strategy:(head :> Pipeline.vtree_strategy)
            c
        with
        | Ok r -> Some r.Pipeline.strategy
        | Error _ -> None
      in
      match need (fun cap -> landing cap = Some (head :> Pipeline.vtree_strategy)) with
      | exception Too_big ->
        Printf.printf "%s head=%s skipped: need above %d\n%!" label (name head)
          ceiling
      | nd ->
        let cells =
          List.map
            (fun f ->
              let landed = landing (int_of_float (f *. float_of_int nd)) in
              let rec walk = function
                | [] -> ()
                | rung :: rest ->
                  let fit = landed = Some (rung :> Pipeline.vtree_strategy) in
                  bump (name head) (name rung) f fit;
                  if not fit then walk rest
              in
              walk (below head);
              Printf.sprintf "%.2f:%s" f
                (match landed with Some s -> name s | None -> "error"))
            fractions
        in
        Printf.printf "%s head=%s need=%d %s\n%!" label (name head) nd
          (String.concat " " cells))
    [ `Search; `Treedec; `Balanced ]

(* A seeded CNF whose primal graph stays inside a partial k-tree (the
   test suite's generator). *)
let ktree_cnf ~seed ~n ~k =
  let st = Random.State.make [| seed |] in
  let g = Ugraph.random_partial_ktree ~seed n k 0.6 in
  let lit v = if Random.State.bool st then v + 1 else -(v + 1) in
  let clauses =
    List.filter_map
      (fun (u, v) ->
        match Random.State.int st 4 with
        | 0 -> Some [ lit u; lit v ]
        | 1 ->
          Option.map
            (fun w -> [ lit u; lit v; lit w ])
            (List.find_opt
               (fun w -> w <> u && Ugraph.has_edge g u w)
               (Ugraph.neighbors g v))
        | _ -> None)
      (Ugraph.edges g)
  in
  { Dimacs.num_vars = n; clauses }

(* Single-component k-tree CNFs, unpreprocessed: the fold's need, then
   each capped run below it, which must trip. *)
let cnf_sweep () =
  List.iter
    (fun n ->
      for k = 2 to 6 do
        for s = 0 to 7 do
          let seed = (1000 * n) + (10 * k) + s in
          let d = ktree_cnf ~seed ~n ~k in
          if List.length (Cnf_preprocess.split d) = 1 then begin
            let fits cap =
              Result.is_ok
                (Pipeline.compile_cnf ~preprocess:false ~domains:1
                   ~budget:(cap_budget cap) d)
            in
            let nd = need fits in
            let cells =
              List.map
                (fun f ->
                  let fit = fits (int_of_float (f *. float_of_int nd)) in
                  bump "cnf" "none" f fit;
                  Printf.sprintf "%.2f:%s" f (if fit then "fit" else "error"))
                fractions
            in
            Printf.printf "cnf n=%d k=%d seed=%d need=%d %s\n%!" n k seed nd
              (String.concat " " cells)
          end
        done
      done)
    [ 15; 16; 18; 20; 24; 28; 32; 40; 48; 56; 64 ]

let circuits () =
  let random_window =
    List.concat_map
      (fun window ->
        List.concat_map
          (fun vars ->
            List.map
              (fun seed ->
                ( Printf.sprintf "random_window w=%d v=%d s=%d" window vars seed,
                  Generators.random_window ~seed ~window ~vars ~gates:(2 * vars) ))
              [ 1; 2 ])
          [ 20; 40; 60; 80; 100 ])
      [ 2; 3; 4 ]
  in
  let family label make sizes =
    List.map (fun n -> (Printf.sprintf "%s n=%d" label n, make n)) sizes
  in
  let lineage q n = Lineage.circuit (Ucq.of_string q) (Pdb.complete_rst n) in
  List.concat
    [
      random_window;
      List.concat_map
        (fun t ->
          family (Printf.sprintf "ladder t=%d" t) (Generators.ladder ~tracks:t)
            [ 3; 5; 7; 9 ])
        [ 2; 3; 4 ];
      List.concat_map
        (fun w ->
          family (Printf.sprintf "band_cnf w=%d" w) (Generators.band_cnf ~width:w)
            [ 8; 14; 20; 24 ])
        [ 3; 4 ];
      family "chain_implications" Generators.chain_implications [ 10; 20; 30; 40 ];
      family "parity_chain" Generators.parity_chain [ 16; 32; 48; 72 ];
      family "lineage rs" (lineage "R(x),S(x,y)") [ 2; 3; 4; 5 ];
      family "lineage rst" (lineage "R(x),S(x,y),T(y)") [ 2; 3; 4; 5 ];
      family "lineage rs|rst" (lineage "R(x),S(x,y) | R(x),S(x,y),T(y)")
        [ 2; 3; 4; 5 ];
    ]

let report () =
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally [] in
  let pooled = Hashtbl.create 16 in
  List.iter
    (fun ((ladder, rung, _), (r, k)) ->
      let r0, k0 = Option.value ~default:(0, 0) (Hashtbl.find_opt pooled (ladder, rung)) in
      Hashtbl.replace pooled (ladder, rung) (r0 + r, k0 + k))
    rows;
  print_endline "ladder    rung      fit / reached";
  List.iter
    (fun ((ladder, rung), (r, k)) ->
      Printf.printf "%-9s %-9s %d / %d (%.1f%%)\n" ladder rung k r
        (100. *. float_of_int k /. float_of_int (max 1 r)))
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) pooled []));
  print_endline "ladder    rung      f     fit / reached";
  List.iter
    (fun ((ladder, rung, f), (r, k)) ->
      Printf.printf "%-9s %-9s %.2f  %d / %d\n" ladder rung f k r)
    (List.sort compare rows)

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  if what = "all" || what = "cnf" then cnf_sweep ();
  if what = "all" || what = "circuits" then
    List.iter (fun (label, c) -> circuit_sweep label c) (circuits ());
  report ()
