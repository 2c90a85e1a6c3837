(* The program under test, called two ways per instance:

   - [facade]: one call through the public facade ([Ctwsdd.prob],
     [Ctwsdd.compile_cnf], [Ctwsdd.compile]) — what the end-to-end
     metrics time;
   - [composed]: the same work as the facade call, made of the public
     pieces it is built from, with one span around each piece — what
     the per-layer metrics read.  The traced run checks that both give
     the same answer and compiled size.

   Both run on one domain, with no budget. *)

type answer = Count of Bigint.t | Prob of Ratio.t

let answer_equal a b =
  match (a, b) with
  | Count x, Count y -> Bigint.equal x y
  | Prob x, Prob y -> Ratio.equal x y
  | _ -> false

let answer_to_string = function
  | Count c -> Bigint.to_string c
  | Prob p -> Ratio.to_string p

type outcome = { answer : answer; size : int  (** compiled size *) }

let weight db v = db.Pdb.prob (Pdb.tuple_of_var v)

let degraded r = Error ("degraded: " ^ Budget.reason_to_string r)

(* ------------------------------------------------------------------ *)
(* Untraced: the facade                                                 *)
(* ------------------------------------------------------------------ *)

(* Runs [f] as one timed region; an exception is a failed call. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r =
    try f () with e -> Error ("exception: " ^ Printexc.to_string e)
  in
  (r, Unix.gettimeofday () -. t0)

let facade (w : Workload.t) (inst : Workload.instance) =
  match (w, inst.input) with
  | (Query_sdd | Query_auto), Query { query; db } ->
    let backend = if w = Query_auto then `Auto else `Sdd in
    timed (fun () ->
        match Ctwsdd.prob ~backend query db with
        | Ok { Prob.probability; size; degraded = None; _ } ->
          Ok { answer = Prob probability; size }
        | Ok { Prob.degraded = Some r; _ } -> degraded r
        | Error e -> Error (Ctwsdd.Error.to_string e))
  | Cnf_count, Dimacs_text text ->
    timed (fun () ->
        match Ctwsdd.compile_cnf ~domains:1 (Dimacs.parse text) with
        | Ok { Pipeline.cnf_degraded = Some r; _ } -> degraded r
        | Ok r ->
          Ok
            {
              answer = Count r.Pipeline.count;
              size =
                List.fold_left
                  (fun acc k -> acc + k.Pipeline.k_size)
                  0 r.Pipeline.components;
            }
        | Error e -> Error (Ctwsdd.Error.to_string e))
  | Circuit_sdd, Gates c ->
    let r, dt =
      timed (fun () ->
          match Ctwsdd.compile ~domains:1 c with
          | Ok { Pipeline.degraded = Some r; _ } -> degraded r
          | Ok r -> Ok (r, Sdd.model_count r.Pipeline.manager r.Pipeline.root)
          | Error e -> Error (Ctwsdd.Error.to_string e))
    in
    ( Result.map
        (fun (r, count) ->
          { answer = Count count; size = Sdd.size r.Pipeline.manager r.Pipeline.root })
        r,
      dt )
  | _ -> invalid_arg "Program.facade: input does not match the workload"

(* ------------------------------------------------------------------ *)
(* Traced: the public pieces, one span each                             *)
(* ------------------------------------------------------------------ *)

(* Per-layer counts of one traced pass, read outside every span. *)
type counts = {
  mutable width_max : int;
  mutable gates : int;
  mutable components : int;
  mutable nodes_allocated : int;
  mutable live_nodes : int;
  mutable heap_words : int;
  mutable unique_hits : int;
  mutable unique_lookups : int;
  mutable apply_hits : int;
  mutable apply_lookups : int;
  mutable lookups : int;
  mutable minor_words : float;
  mutable major_words : float;
  mutable major_collections : int;
}

let empty_counts () =
  {
    width_max = 0;
    gates = 0;
    components = 0;
    nodes_allocated = 0;
    live_nodes = 0;
    heap_words = 0;
    unique_hits = 0;
    unique_lookups = 0;
    apply_hits = 0;
    apply_lookups = 0;
    lookups = 0;
    minor_words = 0.0;
    major_words = 0.0;
    major_collections = 0;
  }

(* Manager statistics through the backend interface ([B.stats]) and the
   arena census. *)
let note_manager k (module B : Backend.S) m root =
  let st = B.stats m in
  let get key = Option.value ~default:0 (List.assoc_opt key st) in
  let hits c = get (c ^ ".hits") in
  let lookups c = hits c + get (c ^ ".misses") in
  k.unique_hits <- k.unique_hits + hits "sdd.unique";
  k.unique_lookups <- k.unique_lookups + lookups "sdd.unique";
  k.apply_hits <- k.apply_hits + hits "sdd.and_cache" + hits "sdd.or_cache";
  k.apply_lookups <-
    k.apply_lookups + lookups "sdd.and_cache" + lookups "sdd.or_cache";
  k.lookups <-
    k.lookups
    + List.fold_left
        (fun acc c -> acc + lookups c)
        0
        [ "sdd.unique"; "sdd.and_cache"; "sdd.or_cache"; "sdd.neg_cache";
          "sdd.cond_cache" ];
  k.nodes_allocated <- k.nodes_allocated + get "sdd.nodes_allocated";
  k.heap_words <- k.heap_words + (Sdd.census m).Sdd.approx_heap_words;
  k.live_nodes <- k.live_nodes + B.node_count m root

(* The decomposition [Pipeline.compile_cnf] runs inside each component,
   timed on its own: the same primal graph and the same public
   heuristics with the same size cut-over (min-fill up to 300
   variables, min-degree beyond).  It runs outside the instance span,
   so it adds nothing to the traced instance total. *)
let probe_decomposition k ~instance (d : Dimacs.t) =
  Spans.record ~instance "treewidth" @@ fun () ->
  let g = Ugraph.create d.Dimacs.num_vars in
  List.iter
    (fun clause ->
      let vs = List.sort_uniq compare (List.map (fun l -> abs l - 1) clause) in
      List.iteri
        (fun i v -> List.iteri (fun j u -> if j > i then Ugraph.add_edge g v u) vs)
        vs)
    d.Dimacs.clauses;
  let td =
    if Ugraph.num_vertices g <= 300 then Treewidth.decomposition g
    else
      Treedec.refine_connected
        (Treedec.of_elimination_order g (Treewidth.min_degree_order g))
  in
  k.width_max <- max k.width_max (Treedec.width td)

(* [Prob.via]: lineage, then the vtree (Lemma 1 of a tree decomposition
   for [`Sdd], the hierarchical order for [`Auto] on a single CQ), then
   compile, then exact WMC. *)
let composed_query k ~auto ~instance q db =
  let sdd = Backend.impl `Sdd and obdd = Backend.impl `Obdd in
  let result =
    Spans.record ~instance "instance" @@ fun () ->
    let c = Spans.record ~instance "lineage" (fun () -> Lineage.circuit q db) in
    k.gates <- k.gates + Circuit.size c;
    if Circuit.variables c = [] then
      let p =
        if Circuit.eval c Boolfun.Smap.empty then Ratio.one else Ratio.zero
      in
      ({ answer = Prob p; size = 0 }, None)
    else begin
      let (module B : Backend.S), vt =
        if auto then
          Spans.record ~instance "treewidth" (fun () ->
              match q with
              | [ cq ] ->
                (match Qsafety.hierarchical_variable_order cq db with
                 | Some order -> (obdd, Vtree.right_linear order)
                 | None -> failwith "query-auto: query is not hierarchical")
              | _ -> failwith "query-auto: not a single conjunctive query")
        else begin
          if not (Qsafety.inversion_free q) then
            failwith "query-sdd: query is not inversion-free";
          Spans.record ~instance "treewidth" (fun () ->
              let vt, w = Pipeline.treedec_vtree c in
              k.width_max <- max k.width_max w;
              (sdd, vt))
        end
      in
      let m, root, size =
        Spans.record ~instance "backend" (fun () ->
            let m = B.create_manager vt in
            let root = B.compile_circuit m c in
            (m, root, B.size m root))
      in
      let p =
        Spans.record ~instance "wmc" (fun () ->
            B.probability_ratio m root (weight db))
      in
      ({ answer = Prob p; size }, Some ((module B : Backend.S), m, root))
    end
  in
  (match snd result with
   | Some (b, m, root) -> note_manager k b m root
   | None -> ());
  fst result

(* [Pipeline.compile_cnf]: parse, preprocess and split, then each
   component through [compile_cnf] without preprocessing. *)
let composed_cnf k ~instance text =
  let b = Backend.impl `Sdd in
  let outcome, comps, results =
    Spans.record ~instance "instance" @@ fun () ->
    let d = Spans.record ~instance "dimacs" (fun () -> Dimacs.parse text) in
    let pre =
      Spans.record ~instance "cnf_preprocess" (fun () ->
          match Cnf_preprocess.run d with
          | Cnf_preprocess.Unsat -> None
          | Cnf_preprocess.Simplified s ->
            Some (s, Cnf_preprocess.split s.Cnf_preprocess.cnf))
    in
    match pre with
    | None -> ({ answer = Count Bigint.zero; size = 0 }, [], [])
    | Some (s, comps) ->
      let results =
        List.map
          (fun comp ->
            Spans.record ~instance "backend" (fun () ->
                match
                  Ctwsdd.compile_cnf ~preprocess:false ~domains:1
                    comp.Cnf_preprocess.comp_cnf
                with
                | Ok r -> r
                | Error e -> failwith (Ctwsdd.Error.to_string e)))
          comps
      in
      let count =
        List.fold_left
          (fun acc r -> Bigint.mul acc r.Pipeline.count)
          (Bigint.pow2 s.Cnf_preprocess.free_vars)
          results
      in
      let size =
        List.fold_left
          (fun acc r ->
            List.fold_left
              (fun acc c -> acc + c.Pipeline.k_size)
              acc r.Pipeline.components)
          0 results
      in
      ({ answer = Count count; size }, comps, results)
  in
  k.components <- k.components + List.length comps;
  List.iter
    (fun comp -> probe_decomposition k ~instance comp.Cnf_preprocess.comp_cnf)
    comps;
  List.iter
    (fun r ->
      List.iter
        (fun c -> note_manager k b c.Pipeline.k_manager c.Pipeline.k_root)
        r.Pipeline.components)
    results;
  outcome

(* [Pipeline.compile] on the [`Treedec] rung, then the model count. *)
let composed_circuit k ~instance c =
  let ((module B : Backend.S) as b) = Backend.impl `Sdd in
  let count, m, root =
    Spans.record ~instance "instance" @@ fun () ->
    let vt, w = Spans.record ~instance "treewidth" (fun () -> Pipeline.treedec_vtree c) in
    k.width_max <- max k.width_max w;
    let m, root =
      Spans.record ~instance "backend" (fun () ->
          let m = B.create_manager vt in
          (m, B.compile_circuit m c))
    in
    (Spans.record ~instance "wmc" (fun () -> B.model_count m root), m, root)
  in
  note_manager k b m root;
  { answer = Count count; size = B.size m root }

let composed k (w : Workload.t) (inst : Workload.instance) =
  let instance = inst.id in
  match (w, inst.input) with
  | (Query_sdd | Query_auto), Query { query; db } ->
    composed_query k ~auto:(w = Query_auto) ~instance query db
  | Cnf_count, Dimacs_text text -> composed_cnf k ~instance text
  | Circuit_sdd, Gates c -> composed_circuit k ~instance c
  | _ -> invalid_arg "Program.composed: input does not match the workload"

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)
(* ------------------------------------------------------------------ *)

let expected (inst : Workload.instance) =
  match inst.input with
  | Query { query; db } ->
    (match Lifted.probability query db with
     | Some p -> `Prob p
     | None -> invalid_arg "Program.expected: query outside the lifted class")
  | Dimacs_text text -> `Count (Oracle.dimacs_count text)
  | Gates _ ->
    let n = inst.size in
    `Count
      (match inst.family with
       | "chain-impl" -> Oracle.chain_count n
       | "parity-chain" -> Oracle.parity_count n
       | "band3" -> Oracle.band_circuit_count ~width:3 n
       | "ladder-4" -> Oracle.ladder_count ~tracks:4 n
       | f -> invalid_arg ("Program.expected: no oracle for " ^ f))

let matches_oracle oracle answer =
  match (oracle, answer) with
  | `Prob p, Prob q -> Ratio.equal p q
  | `Count s, Count c -> String.equal s (Bigint.to_string c)
  | _ -> false
