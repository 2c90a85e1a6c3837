type 'a anytime = {
  best : 'a;
  score : int;
  steps : int;
  degraded : Budget.reason option;
}

let require_complete r =
  match r.degraded with
  | None -> (r.best, r.score)
  | Some reason -> raise (Budget.Exhausted reason)

(* Per-climb score cache, keyed by structural fingerprint.  Bounded:
   long anytime runs revisit thousands of shapes, so entries beyond
   [cap] evict the oldest (FIFO — the climb moves away from old shapes
   monotonically, so oldest-first loses little).  Size telemetry via the
   [vtree_search.score_cache.entries] gauge and the
   [vtree_search.score_cache_evictions] counter. *)
let default_cache_cap = 8192

module Score_cache = struct
  type t = {
    tbl : (int, int) Hashtbl.t;
    fifo : int Queue.t;
    cap : int;
  }

  let create cap =
    if cap < 1 then invalid_arg "Vtree_search: cache_cap must be positive";
    { tbl = Hashtbl.create 64; fifo = Queue.create (); cap }

  let find_opt c k = Hashtbl.find_opt c.tbl k

  let add c k v =
    if not (Hashtbl.mem c.tbl k) then begin
      if Hashtbl.length c.tbl >= c.cap then begin
        let victim = Queue.pop c.fifo in
        Hashtbl.remove c.tbl victim;
        if !Obs.enabled_ref then Obs.incr "vtree_search.score_cache_evictions"
      end;
      Hashtbl.add c.tbl k v;
      Queue.push k c.fifo;
      if !Obs.enabled_ref then
        Obs.gauge_max "vtree_search.score_cache.entries" (Hashtbl.length c.tbl)
    end
end

let move_kind = function
  | Vtree.Swap _ -> "swap"
  | Vtree.Rotate_left _ -> "rotate_left"
  | Vtree.Rotate_right _ -> "rotate_right"

let move_node = function
  | Vtree.Swap v | Vtree.Rotate_left v | Vtree.Rotate_right v -> v

(* One trajectory record per scored candidate: move kind and target
   vtree node, candidate score and delta against the current score, the
   candidate vtree's structural fingerprint, and whether the climb took
   the move.  Score deltas also feed a pair of histograms (improving
   magnitudes and non-improving excesses — log histograms hold
   non-negative samples only).  Everything here is emitted by the
   calling domain after a scoring round completes, so the log is
   deterministic and independent of [domains]. *)
let emit_move ~backend ~step ~current ~accepted mv fp s =
  let delta = s - current in
  if delta < 0 then Obs.hist_record "vtree_search.improvement" (-delta)
  else Obs.hist_record "vtree_search.non_improvement" delta;
  Obs.event "vtree_search.move"
    [
      ("backend", Obs.Json.String backend);
      ("step", Obs.Json.Int step);
      ("kind", Obs.Json.String (move_kind mv));
      ("node", Obs.Json.Int (move_node mv));
      ("score", Obs.Json.Int s);
      ("delta", Obs.Json.Int delta);
      ("accepted", Obs.Json.Bool accepted);
      ("fingerprint", Obs.Json.Int fp);
    ]

let emit_endpoint ~backend name score vt =
  Obs.event name
    [
      ("backend", Obs.Json.String backend);
      ("score", Obs.Json.Int score);
      ("fingerprint", Obs.Json.Int (Vtree.fingerprint vt));
    ]

let minimize ?(budget = Budget.unlimited) ?(max_steps = 50) ?domains
    ?(cache_cap = default_cache_cap) ~score vt =
  Obs.span "vtree_search.minimize" @@ fun () ->
  let domains =
    match domains with Some d -> d | None -> Obs.Worker.default_domains ()
  in
  (* Scores of visited vtrees: moves frequently revisit shapes (a
     rotation and its inverse, swaps recreating an earlier tree), and a
     score evaluation is a full SDD compilation.  The cache is
     per-climb, bounded, filled only by the calling domain after each
     parallel scoring round. *)
  let cache = Score_cache.create cache_cap in
  let scores_of candidates =
    (* Capture hits before inserting this round's scores: when the round
       is larger than the cap, the inserts themselves evict — a hit read
       after them could be gone, and so could a freshly added score. *)
    let keyed =
      List.map
        (fun c ->
          let k = Vtree.fingerprint c in
          (c, k, Score_cache.find_opt cache k))
        candidates
    in
    let unknown = List.filter (fun (_, _, hit) -> hit = None) keyed in
    if !Obs.enabled_ref then
      Obs.incr
        ~by:(List.length keyed - List.length unknown)
        "vtree_search.score_cache_hits";
    let scored =
      Obs.Worker.parallel_map ~domains (fun (c, _, _) -> score c) unknown
    in
    let fresh = Hashtbl.create (List.length unknown) in
    List.iter2
      (fun (_, k, _) s ->
        Score_cache.add cache k s;
        Hashtbl.replace fresh k s)
      unknown scored;
    List.map
      (fun (_, k, hit) ->
        match hit with Some s -> s | None -> Hashtbl.find fresh k)
      keyed
  in
  (* Anytime: a budget trip — [budget] itself at a step boundary, or
     [Budget.Exhausted] escaping a [score] call — ends the climb at the
     last fully scored vtree, which the caller receives with the
     [degraded] flag.  A trip can only lose the round in flight, never
     the best-so-far. *)
  let rec climb vt current steps =
    if steps >= max_steps then
      { best = vt; score = current; steps; degraded = None }
    else begin
      match
        Budget.check budget;
        (* [local_moves_with] enumerates in [local_moves] order, so the
           trajectory is unchanged; the move labels feed the event log. *)
        let moves = Vtree.local_moves_with vt in
        let candidates = List.map snd moves in
        if !Obs.enabled_ref then
          Obs.incr ~by:(List.length candidates) "vtree_search.candidates";
        (moves, candidates, scores_of candidates)
      with
      | exception Budget.Exhausted r ->
        { best = vt; score = current; steps; degraded = Some r }
      | moves, candidates, scores ->
        (* Select sequentially, in candidate order: first strict minimum
           improving on the current score — byte-identical to the
           sequential hill climb regardless of [domains]. *)
        let best =
          let i = ref (-1) in
          List.fold_left2
            (fun acc candidate s ->
              Stdlib.incr i;
              match acc with
              | Some (_, _, bs) when bs <= s -> acc
              | _ -> if s < current then Some (!i, candidate, s) else acc)
            None candidates scores
        in
        if !Obs.enabled_ref then begin
          let acc_i = match best with Some (i, _, _) -> i | None -> -1 in
          List.iteri
            (fun i ((mv, c), s) ->
              emit_move ~backend:"recompile" ~step:steps ~current
                ~accepted:(i = acc_i) mv (Vtree.fingerprint c) s)
            (List.combine moves scores)
        end;
        (match best with
         | Some (_, vt', s') ->
           Obs.incr "vtree_search.steps";
           climb vt' s' (steps + 1)
         | None -> { best = vt; score = current; steps; degraded = None })
    end
  in
  match List.hd (scores_of [ vt ]) with
  | exception Budget.Exhausted r ->
    (* Not even the starting vtree could be scored: best-so-far is the
       input itself, with no meaningful score. *)
    { best = vt; score = max_int; steps = 0; degraded = Some r }
  | s0 ->
    if !Obs.enabled_ref then
      emit_endpoint ~backend:"recompile" "vtree_search.start" s0 vt;
    let r = climb vt s0 0 in
    if !Obs.enabled_ref then
      emit_endpoint ~backend:"recompile" "vtree_search.done" r.score r.best;
    r

let minimize_exn ?budget ?max_steps ?domains ?cache_cap ~score vt =
  require_complete (minimize ?budget ?max_steps ?domains ?cache_cap ~score vt)

(* In-manager hill climb: rather than recompiling the function for every
   candidate vtree, apply each local move to the live manager with
   [Sdd.apply_move], read [Sdd.size] off the forwarded root, and revert
   with the inverse move.  By canonicity the size read after an edit
   equals the size a fresh compile for that vtree would report, and
   [Vtree.local_moves_with] enumerates candidates in exactly the
   [Vtree.local_moves] order, so the climb retraces [minimize]'s
   trajectory move for move — same final vtree, same final size —
   without ever tabulating the function.

   Budgeting: the budget stays installed on the manager for the whole
   climb, so every edit polls it from inside the rebuild —
   [Sdd.apply_move] is transactional and rolls the manager back to its
   pre-edit state on a trip, which is what makes this anytime variant
   bounded-latency (a single rotation on an adversarial SDD can blow up
   without the poll).  A trip inside the forward half of an apply/revert
   pair leaves [!root] at the pre-move root; a trip inside the revert
   half leaves the manager at the moved vtree, so [!root] is pointed at
   the forwarded handle before reverting.  Either way the caller of the
   anytime variant gets a valid manager whose root still denotes the
   same function ([Sdd.validate] passes, model count unchanged). *)
let minimize_manager ?budget ?(max_steps = 50) ?(cache_cap = default_cache_cap)
    m root0 =
  Obs.span "vtree_search.minimize_manager" @@ fun () ->
  Attribution.with_center (Attribution.rung "minimize") @@ fun () ->
  let budget = match budget with Some b -> b | None -> Sdd.budget m in
  let saved = Sdd.budget m in
  Sdd.set_budget m budget;
  Fun.protect ~finally:(fun () -> Sdd.set_budget m saved) @@ fun () ->
  let cache = Score_cache.create cache_cap in
  let root = ref root0 in
  let boundary_check () =
    Budget.check budget;
    Budget.check_nodes budget (Sdd.num_nodes_allocated m)
  in
  let score_move mv =
    let k = Vtree.fingerprint (Vtree.apply_move (Sdd.vtree m) mv) in
    match Score_cache.find_opt cache k with
    | Some s ->
      if !Obs.enabled_ref then Obs.incr "vtree_search.score_cache_hits";
      (s, k)
    | None ->
      (* Charge the forward/revert edit pair (and its node churn) to the
         targeted vtree node, so the explain report can rank which vtree
         fragments the climb spent its budget on. *)
      Attribution.with_center (Attribution.vnode (move_node mv)) @@ fun () ->
      let fwd = Sdd.apply_move m mv !root in
      (* [fwd] is the only valid handle once the forward edit lands:
         point [root] at it before reverting, so a trip rolled back to
         the moved vtree still leaves [!root] denoting the function. *)
      root := fwd;
      let s = Sdd.size m fwd in
      root := Sdd.apply_move m (Vtree.inverse_move mv) fwd;
      Score_cache.add cache k s;
      (s, k)
  in
  let rec climb current steps =
    if steps >= max_steps then
      { best = !root; score = current; steps; degraded = None }
    else begin
      match
        let moves = Vtree.local_moves_with (Sdd.vtree m) in
        if !Obs.enabled_ref then
          Obs.incr ~by:(List.length moves) "vtree_search.candidates";
        let scores =
          List.map
            (fun (mv, _) ->
              let r = score_move mv in
              boundary_check ();
              r)
            moves
        in
        (moves, scores)
      with
      | exception Budget.Exhausted r ->
        (* A mid-pair trip can leave the manager at the moved vtree
           (see [score_move]), where [current] is stale — re-read. *)
        { best = !root; score = Sdd.size m !root; steps; degraded = Some r }
      | moves, scores ->
        (* Same selection rule as [minimize]: first strict minimum in
           candidate order improving on the current score. *)
        let best =
          let i = ref (-1) in
          List.fold_left2
            (fun acc (mv, _) (s, _) ->
              Stdlib.incr i;
              match acc with
              | Some (_, _, bs) when bs <= s -> acc
              | _ -> if s < current then Some (!i, mv, s) else acc)
            None moves scores
        in
        if !Obs.enabled_ref then begin
          let acc_i = match best with Some (i, _, _) -> i | None -> -1 in
          List.iteri
            (fun i ((mv, _), (s, k)) ->
              emit_move ~backend:"manager" ~step:steps ~current
                ~accepted:(i = acc_i) mv k s)
            (List.combine moves scores)
        end;
        (match best with
         | Some (_, mv, s') -> (
           Obs.incr "vtree_search.steps";
           (* Re-applying the accepted move rebuilds from cold caches and
              can trip; the rollback leaves [!root] valid as-is. *)
           match
             Attribution.with_center (Attribution.vnode (move_node mv))
               (fun () -> Sdd.apply_move m mv !root)
           with
           | r' ->
             root := r';
             climb s' (steps + 1)
           | exception Budget.Exhausted r ->
             { best = !root; score = current; steps; degraded = Some r })
         | None -> { best = !root; score = current; steps; degraded = None })
    end
  in
  let s0 = Sdd.size m !root in
  Score_cache.add cache (Vtree.fingerprint (Sdd.vtree m)) s0;
  match boundary_check () with
  | exception Budget.Exhausted r ->
    (* Pre-tripped budget (cancelled token, expired deadline, node count
       already past the cap): no edit has touched the manager. *)
    { best = !root; score = s0; steps = 0; degraded = Some r }
  | () ->
    if !Obs.enabled_ref then
      emit_endpoint ~backend:"manager" "vtree_search.start" s0 (Sdd.vtree m);
    let r = climb s0 0 in
    if !Obs.enabled_ref then
      emit_endpoint ~backend:"manager" "vtree_search.done" r.score
        (Sdd.vtree m);
    r

let minimize_manager_exn ?budget ?max_steps ?cache_cap m root =
  require_complete (minimize_manager ?budget ?max_steps ?cache_cap m root)

let sdd_size_score ?budget f vt =
  let m = Sdd.manager ?budget vt in
  Sdd.size m (Compile.sdd_of_boolfun m f)

let sdw_score ?budget f vt =
  let m = Sdd.manager ?budget vt in
  Sdd.width m (Compile.sdd_of_boolfun m f)

let fw_score f vt = Factor_width.fw f vt

let minimize_sdd_size ?budget ?max_steps ?domains ?cache_cap f vt =
  minimize ?budget ?max_steps ?domains ?cache_cap
    ~score:(sdd_size_score ?budget f)
    vt

let minimize_sdd_size_exn ?budget ?max_steps ?domains ?cache_cap f vt =
  require_complete (minimize_sdd_size ?budget ?max_steps ?domains ?cache_cap f vt)

let best_known ?budget ?max_steps ?domains f =
  Ctwsdd_error.guard @@ fun () ->
  let vars = Boolfun.variables f in
  if vars = [] then invalid_arg "Vtree_search.best_known: constant function";
  let starts =
    [
      Vtree.right_linear vars;
      Vtree.balanced vars;
      Vtree.random ~seed:1 vars;
      Vtree.random ~seed:2 vars;
    ]
  in
  let domains =
    match domains with Some d -> d | None -> Obs.Worker.default_domains ()
  in
  (* Restarts are the coarser work units, so they take the outer level;
     leftover parallelism goes to per-step candidate scoring inside each
     climb. *)
  let outer = Stdlib.min domains (List.length starts) in
  let inner = Stdlib.max 1 (domains / Stdlib.max 1 outer) in
  let results =
    Obs.Worker.parallel_map ~domains:outer
      (fun vt ->
        Obs.incr "vtree_search.restarts";
        minimize ?budget ?max_steps ~domains:inner
          ~score:(sdd_size_score ?budget f)
          vt)
      starts
  in
  (* Winner by score (start order breaks ties); a climb cut off by the
     budget competes with whatever it reached.  The aggregate is
     degraded as soon as any climb was. *)
  let winner =
    List.fold_left
      (fun acc r -> if r.score < acc.score then r else acc)
      (List.hd results) (List.tl results)
  in
  let degraded =
    List.fold_left
      (fun acc r -> match acc with Some _ -> acc | None -> r.degraded)
      None results
  in
  { winner with degraded }

let best_known_exn ?budget ?max_steps ?domains f =
  match best_known ?budget ?max_steps ?domains f with
  | Error e -> Ctwsdd_error.throw e
  | Ok r -> require_complete r
