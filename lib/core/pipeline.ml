type vtree_strategy =
  [ `Right | `Balanced | `Treedec | `Search | `Pinned of Vtree.t ]

let strategy_name = function
  | `Right -> "right"
  | `Balanced -> "balanced"
  | `Treedec -> "treedec"
  | `Search -> "search"
  | `Pinned _ -> "pinned"

type result = {
  manager : Sdd.manager;
  root : Sdd.t;
  strategy : vtree_strategy;
  backend : Backend.resolved;
  backend_reason : string;
  degraded : Budget.reason option;
  minimize_steps : int;
}

let treedec_vtree ?budget c =
  Obs.span "pipeline.treedec_vtree" @@ fun () ->
  let w, td = Circuit.treewidth_upper ?budget c in
  if !Obs.enabled_ref then Obs.hist_record "pipeline.treedec_width" w;
  (Lemma1.vtree_of_decomposition c td, w)

(* Backend-parametric single-vtree compile: the backend decides the
   manager's vtree ([`Obdd] right-linearizes the proposed vtree over
   its leaf order), and so the apply used. *)
let compile_with_vtree (module B : Backend.S) ?budget ?compact_every vt c =
  let m = B.create_manager ?budget ?compact_every vt in
  (m, B.compile_circuit m c)

(* The vtree the [`Treedec] rung proposes, per backend.  The canonical
   SDD wants the Lemma 1 shape; the OBDD wants a {e linear} layout
   with decomposition locality instead — the nice-decomposition walk
   scrambles the leaf order (odd leaves down one flank, even up the
   other), which is exactly what an OBDD order must not do (it turns a
   bandwidth-3 CNF into exponentially many distinct subfunctions).
   [Lemma1.obdd_order_of_circuit] is the pathwidth layout order it
   needs. *)
let treedec_rung_vtree (module B : Backend.S) ~budget c =
  match B.backend with
  | `Sdd -> fst (treedec_vtree ~budget c)
  | `Obdd -> Vtree.right_linear (Lemma1.obdd_order_of_circuit c)

(* One rung of the degradation ladder: compile [c] with the given
   strategy under [budget], raising [Budget.Exhausted] on a trip. *)
let compile_rung (module B : Backend.S) ~budget ?compact_every ?domains vars c
    = function
  | `Right ->
    compile_with_vtree (module B) ~budget ?compact_every
      (Vtree.right_linear vars) c
  | `Balanced ->
    compile_with_vtree (module B) ~budget ?compact_every (Vtree.balanced vars)
      c
  | `Treedec ->
    compile_with_vtree (module B) ~budget ?compact_every
      (treedec_rung_vtree (module B) ~budget c)
      c
  | `Pinned vt -> compile_with_vtree (module B) ~budget ?compact_every vt c
  | `Search ->
    (* Compile the deterministic candidate set in parallel and keep the
       smallest result; the tie-break (first minimum in candidate order)
       makes the choice independent of [domains].  Each candidate gets
       an equal share of the rung's node allowance — also independent of
       [domains] — and candidates that trip are dropped individually;
       the rung only fails when none survives.  Candidates construct
       their own vtree inside the attempt (a trip during the treewidth
       heuristics drops that candidate, not the rung), cheapest vtree
       first so a near-expired deadline still yields a survivor when
       the attempts run sequentially. *)
    let vt_candidates =
      [ (fun () -> Vtree.balanced vars);
        (fun () -> Vtree.right_linear vars);
        (fun () -> treedec_rung_vtree (module B) ~budget c) ]
    in
    let per_candidate =
      Budget.split_nodes budget (List.length vt_candidates)
    in
    let domains =
      match domains with
      | Some d -> d
      | None -> Obs.Worker.default_domains ()
    in
    let attempts =
      Obs.Worker.parallel_map ~domains
        (fun mk_vt ->
          match
            let m =
              B.create_manager ~budget:per_candidate ?compact_every (mk_vt ())
            in
            let n = B.compile_circuit m c in
            (m, n, B.size m n)
          with
          | r -> Ok r
          | exception Budget.Exhausted r -> Error r)
        vt_candidates
    in
    let scored = List.filter_map Stdlib.Result.to_option attempts in
    if !Obs.enabled_ref then
      List.iteri
        (fun i attempt ->
          Obs.event "pipeline.search_candidate"
            (("index", Obs.Json.Int i)
            ::
            (match attempt with
             | Ok (m', _, s') ->
               [
                 ("size", Obs.Json.Int s');
                 ( "fingerprint",
                   Obs.Json.Int (Vtree.fingerprint (Sdd.vtree m')) );
               ]
             | Error r ->
               [ ("tripped", Obs.Json.String (Budget.reason_to_string r)) ])))
        attempts;
    (match scored with
     | [] ->
       let first_reason =
         List.find_map
           (function Error r -> Some r | Ok _ -> None)
           attempts
       in
       raise (Budget.Exhausted (Option.get first_reason))
     | hd :: tl ->
       let bm, bn, _ =
         List.fold_left
           (fun (bm, bn, bs) (m', n', s') ->
             if s' < bs then (m', n', s') else (bm, bn, bs))
           hd tl
       in
       (* The winner carries the split allowance; restore the rung's
          full budget for whatever comes next (minimization). *)
       Sdd.set_budget bm budget;
       (bm, bn))

(* Graceful degradation: try each rung of [ladder] in turn under its
   attribution center, stepping down on a budget trip (counted as
   [pipeline.degrade], with an [event] naming both rungs).  Returns the
   first rung's result that fits, the rung and the last trip; only when
   the last rung also trips does the trip escape. *)
let descend ~event attempt ladder =
  let rec go last = function
    | [] ->
      (* Unreachable with [last = None]: every ladder is non-empty. *)
      raise (Budget.Exhausted (Option.get last))
    | rung :: rest ->
      (match
         Attribution.with_center (Attribution.rung (strategy_name rung))
           (fun () -> attempt rung)
       with
       | v -> (v, rung, last)
       | exception Budget.Exhausted r ->
         if rest <> [] then begin
           Obs.incr "pipeline.degrade";
           if !Obs.enabled_ref then
             Obs.event event
               [
                 ("from", Obs.Json.String (strategy_name rung));
                 ("to", Obs.Json.String (strategy_name (List.hd rest)));
                 ("reason", Obs.Json.String (Budget.reason_to_string r));
               ]
         end;
         go (Some r) rest)
  in
  go None ladder

(* Per-request sub-IDs: each compile runs as "<run>/c<seq>", so events
   and flight-recorder entries from concurrent or repeated compiles in
   one process remain distinguishable while keeping the process run ID
   as prefix. *)
let compile_seq = Atomic.make 0

let compile ?(budget = Budget.unlimited) ?(vtree_strategy = `Treedec)
    ?(backend = `Sdd) ?(minimize = false) ?max_steps ?domains ?compact_every c
    =
  Ctwsdd_error.guard @@ fun () ->
  let rid =
    Printf.sprintf "%s/c%d" (Obs.run_id ())
      (Atomic.fetch_and_add compile_seq 1)
  in
  Obs.with_run_id rid @@ fun () ->
  Obs.span "pipeline.compile" @@ fun () ->
  Attribution.with_center (Attribution.pipeline "compile") @@ fun () ->
  let vars = Circuit.variables c in
  if vars = [] then invalid_arg "Pipeline.compile: circuit has no variables";
  Budget.check budget;
  let chosen, backend_reason = Backend.resolve_circuit ~budget backend c in
  let (module B : Backend.S) = Backend.impl chosen in
  if minimize then Backend.require_minimizable chosen;
  if !Obs.enabled_ref then
    Obs.event "pipeline.compile"
      [
        ("strategy", Obs.Json.String (strategy_name vtree_strategy));
        ("backend", Obs.Json.String B.name);
        ("minimize", Obs.Json.Bool minimize);
        ("budgeted", Obs.Json.Bool (not (Budget.is_unlimited budget)));
        ("vars", Obs.Json.Int (List.length vars));
        ("gates", Obs.Json.Int (Circuit.size c));
      ];
  (* `Search → `Treedec → `Balanced → `Right: a successful compile
     after a step-down is reported with [degraded] set to the last trip.
     A pinned vtree is the caller's decision: its ladder is that one
     rung. *)
  let ladder =
    match vtree_strategy with
    | `Search -> [ `Search; `Treedec; `Balanced; `Right ]
    | `Treedec -> [ `Treedec; `Balanced; `Right ]
    | `Balanced -> [ `Balanced; `Right ]
    | (`Right | `Pinned _) as s -> [ s ]
  in
  let (m, node), strategy, ladder_trip =
    descend ~event:"pipeline.degrade"
      (compile_rung (module B) ~budget ?compact_every ?domains vars c)
      ladder
  in
  let root, minimize_steps, minimize_trip =
    if minimize then begin
      let a = Vtree_search.minimize_manager ~budget ?max_steps m node in
      (a.Vtree_search.best, a.Vtree_search.steps, a.Vtree_search.degraded)
    end
    else (node, 0, None)
  in
  (* The budget governed this compilation; hand the manager back free of
     it so follow-up queries (model counts, conditioning) don't trip on
     an expired deadline.  Callers can reinstall one with
     [Sdd.set_budget]. *)
  Sdd.set_budget m Budget.unlimited;
  let degraded =
    match ladder_trip with Some _ -> ladder_trip | None -> minimize_trip
  in
  {
    manager = m;
    root;
    strategy;
    backend = chosen;
    backend_reason;
    degraded;
    minimize_steps;
  }

(* ------------------------------------------------------------------ *)
(* SAT-scale CNF compilation: preprocessing, component decomposition,  *)
(* a fold along each component's tree decomposition                    *)
(* ------------------------------------------------------------------ *)

type cnf_component = {
  k_manager : Sdd.manager;
  k_root : Sdd.t;
  k_vars : int;
  k_clauses : int;
  k_count : Bigint.t;
  k_size : int;
  k_degraded : Budget.reason option;
}

type cnf_result = {
  count : Bigint.t;
  components : cnf_component list;
  free_vars : int;
  forced_vars : int;
  preprocessed : bool;
  cnf_backend : Backend.resolved;
  cnf_backend_reason : string;
  cnf_degraded : Budget.reason option;
}

(* Primal graph of a CNF over 0-based variables: variables adjacent when
   they share a clause. *)
let cnf_primal_graph (d : Dimacs.t) =
  let g = Ugraph.create d.Dimacs.num_vars in
  List.iter
    (fun clause ->
      let vars =
        List.sort_uniq compare (List.map (fun l -> abs l - 1) clause)
      in
      let rec clique = function
        | [] -> ()
        | v :: rest ->
          List.iter (fun w -> Ugraph.add_edge g v w) rest;
          clique rest
      in
      clique vars)
    d.Dimacs.clauses;
  g

(* Heuristic tree decomposition sized to the component: best of
   min-fill and min-degree up to 300 variables, min-degree alone beyond.
   Both greedy passes rescore only the vertices an elimination touches,
   so neither dominates at SAT scale; the cut stays because its
   min-degree orders fix the compiled sizes of large components. *)
let var_treedec ?budget g =
  Obs.span "treewidth.decomposition" @@ fun () ->
  let picks =
    if Ugraph.num_vertices g <= 300 then Elimination.[ Min_fill; Min_degree ]
    else [ Elimination.Min_degree ]
  in
  snd (Treewidth.decompose ?budget picks g)

(* Rooted view of a tree decomposition (rooted at bag 0): children
   lists, a post-order over bags, the bag ids containing each variable,
   and the set of variables introduced (topmost occurrence) per bag. *)
type rooted_treedec = {
  td : Treedec.t;
  children : int list array;
  post_order : int array;  (** the bags, children before parents. *)
  post_index : int array;  (** [post_index.(b)]: position of bag [b]. *)
  bags_of_var : int list array;  (** ascending bag ids per 0-based var. *)
  intro : int list array;  (** 0-based vars introduced at each bag. *)
}

let root_treedec n_vars (td : Treedec.t) =
  let nb = Treedec.num_bags td in
  let adj = Array.make nb [] in
  List.iter
    (fun (a, b) ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    td.Treedec.tree;
  let parent = Array.make nb (-1) in
  let children = Array.make nb [] in
  let order = Array.make nb 0 in
  let visited = Array.make nb false in
  (* Iterative DFS from bag 0 on an [int] stack of [2·b + processed]: a
     bag is pushed back as processed under its children, so it pops
     again after all of them.  Each bag is pushed at most twice. *)
  let post = Array.make nb 0 in
  let post_n = ref 0 in
  let stack = Array.make (2 * nb) 0 and sp = ref 1 in
  visited.(0) <- true;
  while !sp > 0 do
    decr sp;
    let top = stack.(!sp) in
    let b = top lsr 1 in
    if top land 1 = 1 then begin
      order.(!post_n) <- b;
      post.(b) <- !post_n;
      incr post_n
    end
    else begin
      stack.(!sp) <- top lor 1;
      incr sp;
      List.iter
        (fun c ->
          if not visited.(c) then begin
            visited.(c) <- true;
            parent.(c) <- b;
            children.(b) <- c :: children.(b);
            stack.(!sp) <- 2 * c;
            incr sp
          end)
        adj.(b)
    end
  done;
  (* Bags from the last down, so each variable's list comes out
     ascending. *)
  let bags_of_var = Array.make n_vars [] in
  for b = nb - 1 downto 0 do
    List.iter (fun v -> bags_of_var.(v) <- b :: bags_of_var.(v)) td.Treedec.bags.(b)
  done;
  (* [in_parent.(v) = b]: [v] is in the bag of [b]'s parent. *)
  let in_parent = Array.make n_vars (-1) in
  let intro =
    Array.mapi
      (fun b bag ->
        if parent.(b) >= 0 then
          List.iter (fun v -> in_parent.(v) <- b) td.Treedec.bags.(parent.(b));
        List.fold_left
          (fun acc v -> if in_parent.(v) = b then acc else v :: acc)
          [] bag)
      td.Treedec.bags
  in
  { td; children; post_order = order; post_index = post; bags_of_var; intro }

(* Lemma-1-style vtree straight from a variable-level decomposition:
   attach each variable's leaf at the bag introducing it (its topmost
   bag — unique by the connectedness property) and combine bottom-up,
   so variables sharing a bag subtree end up under one vtree subtree. *)
let vtree_of_rooted rt (names : string array) =
  let rec combine = function
    | [] -> None
    | [ s ] -> Some s
    | shapes ->
      let n = List.length shapes in
      let rec take k = function
        | xs when k = 0 -> ([], xs)
        | x :: xs ->
          let a, b = take (k - 1) xs in
          (x :: a, b)
        | [] -> ([], [])
      in
      let a, b = take (n / 2) shapes in
      (match (combine a, combine b) with
       | Some sa, Some sb -> Some (Vtree.N (sa, sb))
       | Some s, None | None, Some s -> Some s
       | None, None -> None)
  in
  let rec shape b =
    let leaves = List.map (fun v -> Vtree.L names.(v)) rt.intro.(b) in
    let subs = List.filter_map shape rt.children.(b) in
    combine (leaves @ subs)
  in
  match shape 0 with
  | Some s -> Vtree.of_shape s
  | None -> invalid_arg "Pipeline.vtree_of_rooted: decomposition has no variables"

(* Tree fold: a clause is hosted by the lowest post-order bag holding
   all its variables (every clause is a clique of the primal graph, so
   some bag does).  Each bag, in post-order, conjoins the clauses it
   hosts, then joins that with its children's results, so a bag's SDD
   covers its own subtree only and never meets a finished sibling —
   the bottom-up construction behind the Lemma 1 vtree.  [clause_sdd]
   builds one clause; [comp] labels the attribution centers. *)
let bag_fold m rt ~comp clause_sdd clauses =
  let bags = rt.td.Treedec.bags in
  let hosted = Array.make (Array.length bags) [] in
  List.iter
    (fun clause ->
      let vars = List.sort_uniq compare (List.map (fun l -> abs l - 1) clause) in
      let candidates = match vars with v :: _ -> rt.bags_of_var.(v) | [] -> [] in
      let host =
        List.fold_left
          (fun best b ->
            if (best < 0 || rt.post_index.(b) < rt.post_index.(best))
               && List.for_all (fun v -> List.mem v bags.(b)) vars
            then b
            else best)
          (-1) candidates
      in
      assert (host >= 0);
      hosted.(host) <- clause :: hosted.(host))
    (List.rev clauses);
  (* Finished bag results no parent has used yet, latest first: in
     post-order a bag's children are the top of this stack, and the
     stack is every live root at a compaction checkpoint. *)
  let pending = ref [] in
  Array.iteri
    (fun p b ->
      let rec pop k kids rest =
        match rest with
        | r :: rest when k > 0 -> pop (k - 1) (r :: kids) rest
        | _ -> assert (k = 0); (kids, rest)
      in
      let kids, rest = pop (List.length rt.children.(b)) [] !pending in
      let join () =
        let local = Sdd.conjoin_list m (List.map clause_sdd hosted.(b)) in
        Sdd.conjoin m local (Sdd.conjoin_list m kids)
      in
      let r =
        if not (Attribution.enabled ()) then join ()
        else
          Attribution.with_center (Attribution.bag ~component:comp p) @@ fun () ->
          Attribution.set_width (List.length bags.(b));
          join ()
      in
      pending := r :: rest;
      if Sdd.compact_due m then
        pending := Array.to_list (Sdd.compact_roots m (Array.of_list !pending)))
    rt.post_order;
  match !pending with [ root ] -> root | _ -> assert false

(* Compile one component under its budget share: the fold along the
   component's decomposition, on the Lemma 1 vtree of that
   decomposition ([`Treedec]) and, after a trip, on the right-linear
   vtree ([`Right]).  The decomposition is computed once for both
   rungs.  A tripped rung's manager is dropped whole, so a
   mid-component trip never leaks a half-built state. *)
let compile_component (module B : Backend.S) ~budget ~comp ?compact_every
    (names : string array) (d : Dimacs.t) =
  let rooted =
    lazy
      (root_treedec d.Dimacs.num_vars
         (var_treedec ~budget (cnf_primal_graph d)))
  in
  let attempt rung =
    let rt = Lazy.force rooted in
    let vt =
      match rung with
      | `Treedec -> vtree_of_rooted rt names
      | `Right -> Vtree.right_linear (Array.to_list names)
    in
    let m = B.create_manager ~budget ?compact_every vt in
    let build clause =
      Budget.poll budget;
      List.fold_left
        (fun acc l ->
          Sdd.disjoin m acc (Sdd.literal m names.(abs l - 1) (l > 0)))
        (Sdd.false_ m) clause
    in
    (* Clause [j] of the build order, under its own attribution center
       (labels are formatted only when attribution is on). *)
    let idx = ref (-1) in
    let clause_sdd clause =
      if not (Attribution.enabled ()) then build clause
      else begin
        incr idx;
        Attribution.with_center (Attribution.clause ~component:comp !idx)
          (fun () -> build clause)
      end
    in
    (m, bag_fold m rt ~comp clause_sdd d.Dimacs.clauses)
  in
  let (m, root), _, degraded =
    descend ~event:"pipeline.component_degrade" attempt [ `Treedec; `Right ]
  in
  (m, root, degraded)

let compile_cnf ?(budget = Budget.unlimited) ?(preprocess = true)
    ?(backend = `Sdd) ?domains ?compact_every (d : Dimacs.t) =
  Ctwsdd_error.guard @@ fun () ->
  let rid =
    Printf.sprintf "%s/c%d" (Obs.run_id ())
      (Atomic.fetch_and_add compile_seq 1)
  in
  Obs.with_run_id rid @@ fun () ->
  Obs.span "pipeline.compile_cnf" @@ fun () ->
  Attribution.with_center (Attribution.pipeline "compile_cnf") @@ fun () ->
  Budget.check budget;
  let chosen, backend_reason = Backend.resolve_cnf backend in
  let (module B : Backend.S) = Backend.impl chosen in
  if !Obs.enabled_ref then
    Obs.event "pipeline.compile_cnf"
      [
        ("vars", Obs.Json.Int d.Dimacs.num_vars);
        ("clauses", Obs.Json.Int (List.length d.Dimacs.clauses));
        ("preprocess", Obs.Json.Bool preprocess);
        ("backend", Obs.Json.String B.name);
      ];
  let unsat =
    {
      count = Bigint.zero;
      components = [];
      free_vars = 0;
      forced_vars = 0;
      preprocessed = preprocess;
      cnf_backend = chosen;
      cnf_backend_reason = backend_reason;
      cnf_degraded = None;
    }
  in
  let proceed base to_original free forced_vars =
    let comps = Obs.span "pipeline.cnf_split" (fun () -> Cnf_preprocess.split base) in
    (* An empty clause is unsatisfiable; only an unpreprocessed CNF can
       still have one.  The check follows [split], which range-checks
       every literal, so out-of-range input is rejected either way. *)
    if List.mem [] base.Dimacs.clauses then unsat
    else begin
      let k = List.length comps in
      Obs.incr ~by:k "cnf.components";
      let per_budget = Budget.split_nodes budget k in
      let domains =
        match domains with
        | Some d -> max 1 (min d k)
        | None -> min (Obs.Worker.default_domains ()) (max 1 k)
      in
      let jobs = List.mapi (fun i c -> (i, c)) comps in
      let attempts =
        Obs.Worker.parallel_map ~domains
          (fun (i, comp) ->
            (* Sub-attribute every span/event of this component to
               <run>/k<i>, so Perfetto traces show which component each
               domain was busy with. *)
            Obs.with_run_id (Printf.sprintf "%s/k%d" rid i) @@ fun () ->
            Obs.span "pipeline.component" @@ fun () ->
            let cnf = comp.Cnf_preprocess.comp_cnf in
            let names =
              Array.map
                (fun v -> Dimacs.var_name (to_original v))
                comp.Cnf_preprocess.comp_var_of_new
            in
            if !Obs.enabled_ref then
              Obs.hist_record "cnf.component_size" cnf.Dimacs.num_vars;
            match
              Attribution.with_center (Attribution.component i) (fun () ->
                  compile_component (module B) ~budget:per_budget ~comp:i
                    ?compact_every names cnf)
            with
            | m, root, degraded ->
              let size = Sdd.size m root in
              let count = Sdd.model_count m root in
              Sdd.set_budget m Budget.unlimited;
              if !Obs.enabled_ref then
                Obs.event "pipeline.component"
                  [
                    ("component", Obs.Json.Int i);
                    ("vars", Obs.Json.Int cnf.Dimacs.num_vars);
                    ("clauses", Obs.Json.Int (List.length cnf.Dimacs.clauses));
                    ("size", Obs.Json.Int size);
                    ( "degraded",
                      match degraded with
                      | None -> Obs.Json.Bool false
                      | Some r -> Obs.Json.String (Budget.reason_to_string r) );
                  ];
              Ok
                {
                  k_manager = m;
                  k_root = root;
                  k_vars = cnf.Dimacs.num_vars;
                  k_clauses = List.length cnf.Dimacs.clauses;
                  k_count = count;
                  k_size = size;
                  k_degraded = degraded;
                }
            | exception Budget.Exhausted r ->
              if !Obs.enabled_ref then
                Obs.event "pipeline.component"
                  [
                    ("component", Obs.Json.Int i);
                    ("vars", Obs.Json.Int cnf.Dimacs.num_vars);
                    ("tripped", Obs.Json.String (Budget.reason_to_string r));
                  ];
              Error r)
          jobs
      in
      (match
         List.find_map (function Error r -> Some r | Ok _ -> None) attempts
       with
       | Some r -> raise (Budget.Exhausted r)
       | None -> ());
      let components =
        List.map (function Ok c -> c | Error _ -> assert false) attempts
      in
      let count =
        List.fold_left
          (fun acc c -> Bigint.mul acc c.k_count)
          (Bigint.pow2 free) components
      in
      {
        count;
        components;
        free_vars = free;
        forced_vars;
        preprocessed = preprocess;
        cnf_backend = chosen;
        cnf_backend_reason = backend_reason;
        cnf_degraded =
          List.find_map (fun c -> c.k_degraded) components;
      }
    end
  in
  if preprocess then begin
    match Obs.span "pipeline.cnf_preprocess" (fun () -> Cnf_preprocess.run d) with
    | Cnf_preprocess.Unsat -> unsat
    | Cnf_preprocess.Simplified s ->
      if !Obs.enabled_ref then
        Obs.event "pipeline.cnf_preprocess"
          [
            ("vars", Obs.Json.Int s.Cnf_preprocess.cnf.Dimacs.num_vars);
            ( "clauses",
              Obs.Json.Int (List.length s.Cnf_preprocess.cnf.Dimacs.clauses) );
            ("forced", Obs.Json.Int (List.length s.Cnf_preprocess.forced));
            ("free", Obs.Json.Int s.Cnf_preprocess.free_vars);
            ("tautologies", Obs.Json.Int s.Cnf_preprocess.removed_tautologies);
            ("duplicates", Obs.Json.Int s.Cnf_preprocess.removed_duplicates);
          ];
      proceed s.Cnf_preprocess.cnf
        (fun v -> s.Cnf_preprocess.var_of_new.(v - 1))
        s.Cnf_preprocess.free_vars
        (List.length s.Cnf_preprocess.forced)
  end
  else proceed d (fun v -> v) (Dimacs.free_var_count d) 0

let conjoin_components r =
  match r.components with
  | [] -> None
  | comps ->
    let vt, offsets =
      Vtree.of_forest (List.map (fun c -> Sdd.vtree c.k_manager) comps)
    in
    let m = Sdd.manager vt in
    let roots =
      List.mapi
        (fun i c ->
          Sdd.import ~dst:m
            ~map:(fun v -> v + offsets.(i))
            c.k_manager c.k_root)
        comps
    in
    Some (m, Sdd.conjoin_list m roots)

let compile_exn ?budget ?vtree_strategy ?minimize ?max_steps ?domains
    ?backend ?compact_every c =
  match
    compile ?budget ?vtree_strategy ?minimize ?max_steps ?domains ?backend
      ?compact_every c
  with
  | Error e -> Ctwsdd_error.throw e
  | Ok { degraded = Some r; _ } -> raise (Budget.Exhausted r)
  | Ok r -> (r.manager, r.root)
