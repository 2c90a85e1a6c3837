(* Properties of the incremental factor analysis and the
   domain-parallel vtree search.

   The refinement in [Factor_width.analyze] derives every node's factor
   partition from its parent's by integer-array refinement, touching the
   truth table only at the root.  The contract is exact: for every node
   the (yvars, ids, rep_idx) triple must be bit-identical to the naive
   per-node [Boolfun.factor_ids], which re-scans the table and numbers
   factors in first-seen order.  The parallel search must likewise be
   indistinguishable from the sequential one. *)

open Test_util

let check_int_array = Alcotest.(check (array int))
let check_str_array = Alcotest.(check (array string))

(* Compare the incremental analysis against naive [factor_ids] at every
   node of [vt]. *)
let check_analysis_matches ~what f vt =
  let analysis = Factor_width.analyze f vt in
  List.iter
    (fun v ->
      let nf = Factor_width.at analysis v in
      let yvars, ids, reps = Boolfun.factor_ids f (Vtree.vars_below vt v) in
      let tag s = Printf.sprintf "%s node %d %s" what v s in
      check_str_array (tag "yvars") yvars nf.Factor_width.yvars;
      check_int_array (tag "ids") ids nf.Factor_width.ids;
      check_int_array (tag "reps") reps nf.Factor_width.rep_idx;
      checki (tag "count") (Array.length reps) nf.Factor_width.count)
    (Vtree.nodes vt)

(* Vtrees exercised per function: linear, balanced, random shapes, plus
   shapes over a strict superset of the function's variables (dummy
   leaves make Y_v a strict subset of vars_below). *)
let vtrees_for vars seed =
  let extra = vars @ [ "z98"; "z99" ] in
  [
    Vtree.right_linear vars;
    Vtree.left_linear vars;
    Vtree.balanced vars;
    Vtree.random ~seed vars;
    Vtree.random ~seed:(seed + 17) vars;
    Vtree.balanced extra;
    Vtree.random ~seed extra;
  ]

let refine_matches_naive () =
  (* ~200 (function, vtree) pairs with 4-8 variables. *)
  List.iteri
    (fun i f ->
      let vt_list = vtrees_for (Boolfun.variables f) (100 + i) in
      List.iter (check_analysis_matches ~what:(Printf.sprintf "f%d" i) f)
        vt_list)
    (random_functions ~vars:4 ~count:10
    @ random_functions ~vars:5 ~count:8
    @ random_functions ~vars:6 ~count:6
    @ random_functions ~vars:7 ~count:3
    @ random_functions ~vars:8 ~count:2)

let refine_matches_structured () =
  let vars = small_vars 6 in
  let parity =
    Boolfun.of_fun vars (fun a ->
        Boolfun.Smap.fold (fun _ b acc -> if b then not acc else acc) a false)
  in
  let fns =
    [
      ("parity", parity);
      ("true", Boolfun.const vars true);
      ("false", Boolfun.const vars false);
      ("conj", Boolfun.and_list (List.map Boolfun.var vars));
    ]
  in
  List.iter
    (fun (name, f) ->
      List.iter (check_analysis_matches ~what:name f) (vtrees_for vars 7))
    fns

(* --------------------------------------------------------------- *)
(* Parallel search = sequential search                              *)
(* --------------------------------------------------------------- *)

let parallel_best_known_matches () =
  List.iteri
    (fun i f ->
      let vt1, s1 = Vtree_search.best_known_exn ~max_steps:5 ~domains:1 f in
      let vt3, s3 = Vtree_search.best_known_exn ~max_steps:5 ~domains:3 f in
      checki (Printf.sprintf "f%d size" i) s1 s3;
      checkb (Printf.sprintf "f%d vtree" i) true (Vtree.equal vt1 vt3);
      (* Same vtree and same function: width agrees too. *)
      let width vt =
        let m = Sdd.manager vt in
        Sdd.width m (Compile.sdd_of_boolfun m f)
      in
      checki (Printf.sprintf "f%d width" i) (width vt1) (width vt3))
    (random_functions ~vars:5 ~count:3)

let parallel_minimize_matches () =
  List.iteri
    (fun i f ->
      let vt0 = Vtree.right_linear (Boolfun.variables f) in
      let score = Vtree_search.sdd_size_score f in
      let vt1, s1 = Vtree_search.minimize_exn ~max_steps:8 ~domains:1 ~score vt0 in
      let vt4, s4 = Vtree_search.minimize_exn ~max_steps:8 ~domains:4 ~score vt0 in
      checki (Printf.sprintf "f%d score" i) s1 s4;
      checkb (Printf.sprintf "f%d vtree" i) true (Vtree.equal vt1 vt4))
    (random_functions ~vars:5 ~count:3)

let env_domains_default () =
  (* default_domains is >= 1 whatever the environment says. *)
  checkb "positive" true (Obs.Worker.default_domains () >= 1)

(* --------------------------------------------------------------- *)
(* Obs worker capture/absorb                                        *)
(* --------------------------------------------------------------- *)

let with_obs f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled was)
    f

let worker_counters_merge () =
  with_obs @@ fun () ->
  Obs.incr ~by:2 "w.count";
  let (), cap =
    Obs.Worker.capture (fun () ->
        Obs.incr ~by:5 "w.count";
        Obs.incr "w.only";
        Obs.gauge_max "w.peak" 7)
  in
  (* Capture ran against fresh state; nothing leaked into ours yet. *)
  checki "before absorb" 2 (Obs.counter_value "w.count");
  checki "only before" 0 (Obs.counter_value "w.only");
  Obs.Worker.absorb cap;
  checki "after absorb" 7 (Obs.counter_value "w.count");
  checki "only after" 1 (Obs.counter_value "w.only");
  checkb "gauge" true (Obs.gauge_value "w.peak" = Some 7)

let worker_spans_merge () =
  with_obs @@ fun () ->
  Obs.span "outer" (fun () ->
      Obs.span "inner" (fun () -> ());
      let (), cap =
        Obs.Worker.capture (fun () -> Obs.span "inner" (fun () -> ()))
      in
      Obs.Worker.absorb cap);
  match Obs.span_roots () with
  | [ outer ] ->
    checks "outer name" "outer" outer.Obs.span;
    (match outer.Obs.children with
     | [ inner ] ->
       checks "inner name" "inner" inner.Obs.span;
       (* One sequential call + one absorbed worker call, summed. *)
       checki "inner calls" 2 inner.Obs.calls
     | l -> Alcotest.failf "expected one child span, got %d" (List.length l))
  | l -> Alcotest.failf "expected one root span, got %d" (List.length l)

let worker_across_domains () =
  with_obs @@ fun () ->
  let work () = Obs.incr ~by:3 "d.count" in
  let d = Domain.spawn (fun () -> Obs.Worker.capture work) in
  let (), cap = Domain.join d in
  checki "isolated" 0 (Obs.counter_value "d.count");
  Obs.Worker.absorb cap;
  checki "merged" 3 (Obs.counter_value "d.count")

let suites =
  [
    ( "refine factor analysis",
      [
        case "matches naive factor_ids on random corpus" refine_matches_naive;
        case "matches naive factor_ids on structured functions"
          refine_matches_structured;
      ] );
    ( "parallel vtree search",
      [
        case "best_known identical for 1 and 3 domains"
          parallel_best_known_matches;
        case "minimize identical for 1 and 4 domains"
          parallel_minimize_matches;
        case "default_domains is positive" env_domains_default;
      ] );
    ( "obs workers",
      [
        case "counters and gauges merge on absorb" worker_counters_merge;
        case "span trees graft under the open span" worker_spans_merge;
        case "capture isolates a spawned domain" worker_across_domains;
      ] );
  ]
