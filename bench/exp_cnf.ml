(* E19 — SAT-scale CNF compilation (the Pipeline.compile_cnf path).

   A fixed DIMACS workload exercising the three scaling mechanisms in
   isolation and together:

     - connected-component decomposition + parallel compilation
       (K disjoint copies of a band CNF, 1 domain vs 4 domains);
     - the fold along the tree decomposition (one SDD per bag) against
       the same vtree compiled from the CNF circuit in input order, on
       single-component families of 100-1000 variables — chains, grids
       and bounded-width bands;
     - count-preserving preprocessing (a unit-headed chain collapses
       entirely under unit propagation).

   Spans land in BENCH_E19.json for `compare.exe --gate` regression
   tracking, like E17/E18.  Keep the workload fixed: changing it
   invalidates the trajectory. *)

let cnf ~vars clauses = { Dimacs.num_vars = vars; clauses }

(* (¬x1∨x2) ∧ ... : n+1 models over n variables. *)
let chain n = cnf ~vars:n (List.init (n - 1) (fun i -> [ -(i + 1); i + 2 ]))

(* Clause i over the [width] consecutive variables starting at i, with
   alternating signs (the DIMACS form of Generators.band_cnf). *)
let band ~width n =
  cnf ~vars:n
    (List.init (n - width + 1) (fun i ->
         List.init width (fun j ->
             if j mod 2 = 0 then i + j + 1 else -(i + j + 1))))

(* r×c implication grid: v(i,j) → v(i,j+1) and v(i,j) → v(i+1,j);
   treewidth min(r,c). *)
let grid r c =
  let v i j = (i * c) + j + 1 in
  let horiz =
    List.concat
      (List.init r (fun i ->
           List.init (c - 1) (fun j -> [ -(v i j); v i (j + 1) ])))
  in
  let vert =
    List.concat
      (List.init (r - 1) (fun i ->
           List.init c (fun j -> [ -(v i j); v (i + 1) j ])))
  in
  cnf ~vars:(r * c) (horiz @ vert)

(* K disjoint copies of [d], variables shifted per copy. *)
let copies k (d : Dimacs.t) =
  let n = d.Dimacs.num_vars in
  cnf ~vars:(k * n)
    (List.concat
       (List.init k (fun i ->
            List.map
              (List.map (fun l ->
                   if l > 0 then l + (i * n) else l - (i * n)))
              d.Dimacs.clauses)))

(* [x1] ∧ chain: unit propagation forces every variable. *)
let unit_headed_chain n =
  let c = chain n in
  { c with Dimacs.clauses = [ 1 ] :: c.Dimacs.clauses }

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, 1000.0 *. (Unix.gettimeofday () -. t0))

let compile ?preprocess ?domains d =
  match Pipeline.compile_cnf ?preprocess ?domains d with
  | Ok r -> r
  | Error e -> failwith ("E19: compile_cnf failed: " ^ Ctwsdd_error.to_string e)

let total_size (r : Pipeline.cnf_result) =
  List.fold_left (fun acc c -> acc + c.Pipeline.k_size) 0 r.Pipeline.components

let digits b = String.length (Bigint.to_string b)

let run () =
  Table.section "E19 — SAT-scale CNF compilation (compile_cnf)";

  (* 1. Component decomposition and domain parallelism.  The d4/d1
     ratio measures the parallel win; on a single-core runner it hovers
     around 1.0 — the span trajectory in BENCH_E19.json is the gated
     signal, this column is the honest local measurement. *)
  let rows =
    List.map
      (fun k ->
        let d = copies k (band ~width:3 50) in
        let r1, ms1 =
          time (fun () ->
              Obs.span "e19.components_d1" @@ fun () ->
              compile ~domains:1 d)
        in
        let r4, ms4 =
          time (fun () ->
              Obs.span "e19.components_d4" @@ fun () ->
              compile ~domains:4 d)
        in
        assert (Bigint.equal r1.Pipeline.count r4.Pipeline.count);
        [
          Table.fi k;
          Table.fi d.Dimacs.num_vars;
          Table.fi (List.length r1.Pipeline.components);
          Printf.sprintf "%.1f" ms1;
          Printf.sprintf "%.1f" ms4;
          Printf.sprintf "%.2fx" (ms1 /. Float.max 0.001 ms4);
          Table.fi (digits r1.Pipeline.count);
        ])
      [ 1; 2; 4; 8 ]
  in
  Table.print
    ~title:"component decomposition: K disjoint band3-50 copies"
    ~header:
      [ "K"; "vars"; "components"; "d1 ms"; "d4 ms"; "speedup"; "count digits" ]
    rows;

  (* 2. The fold along the decomposition on single-component families.
     It keeps intermediate conjunctions local to vtree subtrees; the
     ablation compiles the CNF as a circuit in input order
     ([Pipeline.compile], clauses conjoined pairwise) on the fold's own
     vtree. *)
  let families =
    [
      ("chain-200", chain 200);
      ("chain-500", chain 500);
      ("chain-1000", chain 1000);
      ("band3-100", band ~width:3 100);
      ("band3-300", band ~width:3 300);
      ("band3-600", band ~width:3 600);
      ("band4-200", band ~width:4 200);
      ("grid-4x50", grid 4 50);
      ("grid-8x25", grid 8 25);
    ]
  in
  let rows =
    List.map
      (fun (name, d) ->
        let rb, msb =
          time (fun () ->
              Obs.span "e19.schedule_bags" @@ fun () -> compile d)
        in
        let vt =
          match rb.Pipeline.components with
          | [ c ] -> Sdd.vtree c.Pipeline.k_manager
          | _ -> assert false
        in
        (* Input order can be exponentially worse (on grids it knits the
           rows together), so the ablation runs under a node cap: a trip
           IS the measurement, at the same point on any host.
           Compaction every 10k allocations makes the cap bound live
           nodes rather than every apply intermediate: the rows that
           finish need a cap of at most 13.1k (chain-1000), and both
           grids pass 20k. *)
        let cap = 20_000 in
        let rc, msc =
          time (fun () ->
              Obs.span "e19.schedule_clauses" @@ fun () ->
              Pipeline.compile
                ~budget:(Budget.create ~max_nodes:cap ())
                ~compact_every:10_000 ~vtree_strategy:(`Pinned vt)
                (Dimacs.to_circuit d))
        in
        let size_c, ms_c =
          match rc with
          | Ok r ->
            let m = r.Pipeline.manager and root = r.Pipeline.root in
            assert (
              Bigint.equal rb.Pipeline.count
                (Bigint.mul (Sdd.model_count m root)
                   (Bigint.pow2 rb.Pipeline.free_vars)));
            (Table.fi (Sdd.size m root), Printf.sprintf "%.1f" msc)
          | Error _ -> ("-", Printf.sprintf "cap (>%dk nodes)" (cap / 1000))
        in
        [
          name;
          Table.fi d.Dimacs.num_vars;
          Table.fi (List.length d.Dimacs.clauses);
          Table.fi (total_size rb);
          Printf.sprintf "%.1f" msb;
          size_c;
          ms_c;
          Table.fi (digits rb.Pipeline.count);
        ])
      families
  in
  Table.print
    ~title:"decomposition fold (bags) vs input order on the same vtree"
    ~header:
      [ "family"; "n"; "clauses"; "size(bags)"; "ms(bags)"; "size(input)";
        "ms(input)"; "count digits" ]
    rows;

  (* 3. Preprocessing ablation: a unit-headed chain collapses entirely
     under unit propagation — the compile becomes a no-op — while the
     raw path compiles all n variables. *)
  let rows =
    List.map
      (fun n ->
        let d = unit_headed_chain n in
        let rp, msp =
          time (fun () ->
              Obs.span "e19.preprocess_on" @@ fun () -> compile d)
        in
        let rr, msr =
          time (fun () ->
              Obs.span "e19.preprocess_off" @@ fun () ->
              compile ~preprocess:false d)
        in
        assert (Bigint.equal rp.Pipeline.count rr.Pipeline.count);
        [
          Table.fi n;
          Table.fi rp.Pipeline.forced_vars;
          Printf.sprintf "%.1f" msp;
          Printf.sprintf "%.1f" msr;
          Table.fi (digits rp.Pipeline.count);
        ])
      [ 200; 500; 1000 ]
  in
  Table.print
    ~title:"preprocessing: unit-headed chains (all variables forced)"
    ~header:[ "n"; "forced"; "ms(preprocess)"; "ms(raw)"; "count digits" ]
    rows
