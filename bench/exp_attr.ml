(* E21 — attribution profiler and parallelism observability.

   The attribution profiler (the run record's [attribution] and
   [explain] sections), exercised on the E19 CNF families:
   compile with the cost-center profiler on, then check that the
   attribution actually partitions the compile —

     - coverage: per-bag attributed nodes sum to the component
       managers' allocated census (the 2 constant nodes per manager are
       pre-allocated and uncharged, so coverage sits just under 100%);
     - anatomy: the top bags by node growth, with bag width against
       log2(nodes) — the treewidth bound made empirically visible
       per bag (a bag of width w should not grow nodes past ~2^w times
       its clause count on these bounded-width families);
     - parallelism: worker.items/steals conservation on a parallel
       component compile, plus a joint conjoin of the component roots
       that cross-checks the product-based model count.

   Spans land in BENCH_E21.json for `compare.exe --gate` regression
   tracking.  The coverage percentages ride along as gauges
   (e21.<family>.coverage_pct), so an attribution hook rotting away
   (a compile path that stops charging) moves a gated number rather
   than failing silently.  Keep the workload fixed: changing it
   invalidates the trajectory. *)

let cnf ~vars clauses = { Dimacs.num_vars = vars; clauses }

let chain n = cnf ~vars:n (List.init (n - 1) (fun i -> [ -(i + 1); i + 2 ]))

let band ~width n =
  cnf ~vars:n
    (List.init (n - width + 1) (fun i ->
         List.init width (fun j ->
             if j mod 2 = 0 then i + j + 1 else -(i + j + 1))))

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

let copies k (d : Dimacs.t) =
  let n = d.Dimacs.num_vars in
  cnf ~vars:(k * n)
    (List.concat
       (List.init k (fun i ->
            List.map
              (List.map (fun l ->
                   if l > 0 then l + (i * n) else l - (i * n)))
              d.Dimacs.clauses)))

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, 1000.0 *. (Unix.gettimeofday () -. t0))

let compile ?domains d =
  match Pipeline.compile_cnf ?domains d with
  | Ok r -> r
  | Error e -> failwith ("E21: compile_cnf failed: " ^ Ctwsdd_error.to_string e)

let census_allocated (r : Pipeline.cnf_result) =
  List.fold_left
    (fun acc (c : Pipeline.cnf_component) ->
      acc + (Sdd.census c.Pipeline.k_manager).Sdd.allocated)
    0 r.Pipeline.components

let bag_rows () =
  List.filter (fun r -> r.Attribution.kind = "bag") (Attribution.rows ())

let run () =
  Table.section "E21 — attribution profiler (the --stats report)";

  (* 1. Coverage: attributed bag nodes vs the managers' census, per
     family.  [Attribution.fresh] isolates each family's rows without
     dropping the span trajectory the BENCH json is gated on. *)
  let families =
    [
      ("chain-400", chain 400);
      ("band3-300", band ~width:3 300);
      ("grid-10x30", grid 10 30);
    ]
  in
  let rows =
    List.map
      (fun (label, d) ->
        Attribution.fresh ();
        let r, ms =
          time (fun () ->
              Obs.span ("e21.attr." ^ label) @@ fun () ->
              compile d)
        in
        let bags = bag_rows () in
        let bag_nodes =
          List.fold_left (fun a b -> a + b.Attribution.nodes) 0 bags
        in
        let census = census_allocated r in
        let coverage = 100. *. float_of_int bag_nodes /. float_of_int census in
        Obs.gauge_set
          (Printf.sprintf "e21.%s.coverage_pct" label)
          (int_of_float coverage);
        [
          label;
          Table.fi d.Dimacs.num_vars;
          Table.fi (List.length d.Dimacs.clauses);
          Table.fi (List.length bags);
          Table.fi bag_nodes;
          Table.fi census;
          Printf.sprintf "%.1f%%" coverage;
          Printf.sprintf "%.1f" ms;
        ])
      families
  in
  Table.print
    ~title:"per-bag node attribution vs manager census"
    ~header:
      [ "family"; "vars"; "clauses"; "bags"; "bag nodes"; "census";
        "coverage"; "ms" ]
    rows;
  Table.note
    "coverage < 100%%: the two constant nodes per manager are pre-allocated";

  (* 2. Anatomy: top bags by node growth on the band family — width vs
     log2(nodes), the paper's bound per bag. *)
  Attribution.fresh ();
  let _ = compile (band ~width:3 300) in
  let top =
    let sorted =
      List.sort
        (fun a b ->
          compare
            (b.Attribution.nodes, a.Attribution.label)
            (a.Attribution.nodes, b.Attribution.label))
        (bag_rows ())
    in
    List.filteri (fun i _ -> i < 8) sorted
  in
  Table.print
    ~title:"band3-300: top bags by node growth (width vs log2 nodes)"
    ~header:[ "bag"; "width"; "nodes"; "log2(nodes)"; "misses" ]
    (List.map
       (fun b ->
         [
           b.Attribution.label;
           Table.fi b.Attribution.width;
           Table.fi b.Attribution.nodes;
           Printf.sprintf "%.2f"
             (if b.Attribution.nodes <= 0 then 0.
              else log (float_of_int b.Attribution.nodes) /. log 2.);
           Table.fi b.Attribution.apply_misses;
         ])
       top);

  (* 3. Parallelism observability: component fan-out (worker.items and
     steals conserve).  The d4/d1 ratio is the honest local number; the
     counters are the machine-checked signal. *)
  Attribution.fresh ();
  let d = copies 6 (band ~width:3 60) in
  let r1, ms1 =
    time (fun () -> Obs.span "e21.par_d1" @@ fun () -> compile ~domains:1 d)
  in
  let items0 = Obs.counter_value "worker.items" in
  let r4, ms4 =
    time (fun () -> Obs.span "e21.par_d4" @@ fun () -> compile ~domains:4 d)
  in
  assert (Bigint.equal r1.Pipeline.count r4.Pipeline.count);
  let items = Obs.counter_value "worker.items" - items0 in
  let steals = Obs.counter_value "worker.steals" in
  (match Pipeline.conjoin_components r4 with
   | Some (jm, jroot) ->
     assert (
       Bigint.equal (Sdd.model_count jm jroot)
         (Bigint.div r4.Pipeline.count (Bigint.pow2 r4.Pipeline.free_vars)))
   | None -> ());
  Table.print
    ~title:"parallel component compile + conjoin: 6 band3-60 copies"
    ~header:[ "d1 ms"; "d4 ms"; "speedup"; "items"; "steals" ]
    [
      [
        Printf.sprintf "%.1f" ms1;
        Printf.sprintf "%.1f" ms4;
        Printf.sprintf "%.2fx" (ms1 /. Float.max 0.001 ms4);
        Table.fi items;
        Table.fi steals;
      ];
    ];
  Obs.gauge_set "e21.par.items" items;
  Table.note
    "items counts every component exactly once regardless of the schedule";

  (* 4. The run record itself, exercised end to end: built from the
     parallel run's state and round-tripped once so the schema stays
     executable from the bench too. *)
  let censuses =
    List.map
      (fun (c : Pipeline.cnf_component) -> Sdd.census c.Pipeline.k_manager)
      r4.Pipeline.components
  in
  let record = Run_record.json ~censuses () in
  (match Obs.Json.of_string (Obs.Json.to_string record) with
   | Ok _ -> Table.note "run record: ctwsdd-run/v1 round-trips"
   | Error e -> failwith ("E21: run record does not round-trip: " ^ e))
