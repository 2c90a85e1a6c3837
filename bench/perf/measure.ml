(* One workload measured in this process: the timed passes, the oracle
   checks and the metrics they give. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Small statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted xs = List.sort Float.compare xs

(* Nearest rank: the p-th percentile of 120 samples is the 108th value
   at p = 0.9, leaving 12 samples beyond it. *)
let percentile p xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] ("exclusive"
   method) gives them. *)
let quartiles xs =
  match sorted xs with
  | [] -> invalid_arg "Measure.quartiles: no data"
  | [ x ] -> (x, x, x)
  | l ->
    let d = Array.of_list l in
    let ld = Array.length d in
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

(* An untraced run makes at least [min_passes] passes; passes continue
   while the next one is predicted to end within the run's seconds.
   A traced run alternates untraced and traced passes, at least one of
   each. *)
let min_passes = 3
let max_passes = 9

(* Set-up samples taken after each pass (one more before the first). *)
let setup_per_pass = 2

type metric = { name : string; unit : string; value : float; n : int  (** samples *) }

let metric ?(n = 1) name unit value = { name; unit; value; n }

type result = {
  passes : int;
  pass_walls : float list;  (** wall time of each pass, in order *)
  attempted : int;
  failed : int;
  metrics : metric list;
}

let permutation st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let spawn_and_wait argv =
  let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stderr Unix.stderr in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* One set-up: process start to first timed instance — start the
   executable, generate the workload's inputs, warm up ([perf.exe
   setup]).  Each sample is a fresh child process, so module
   initialization and lazy first-call work are inside it.  The samples
   are spread over the run because the speed of the host drifts over
   tens of seconds: back-to-back 50 ms samples land in one phase, spread
   ones see the same mix of phases as the passes. *)
let setup_once w ~seed =
  let exe = Sys.executable_name in
  let t0 = now () in
  let st =
    spawn_and_wait
      [| exe; "setup"; "--workload"; Workload.name w; "--seed"; string_of_int seed |]
  in
  if st <> Unix.WEXITED 0 then failwith "set-up child failed";
  now () -. t0

(* Lazy first-call work is set-up, not latency: one facade call on the
   smallest instance of each family (families are dealt round-robin
   over size strata, so those come first). *)
let warm_up w (insts : Workload.instance array) =
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun (inst : Workload.instance) ->
      if not (Hashtbl.mem seen inst.family) then begin
        Hashtbl.add seen inst.family ();
        match fst (Program.facade w inst) with
        | Ok _ -> ()
        | Error e -> failwith (Printf.sprintf "warm-up: instance %d: %s" inst.id e)
      end)
    insts

let describe (inst : Workload.instance) =
  Printf.sprintf "instance %d (%s, size %d)" inst.id inst.family inst.size

type traced_pass = { pass : int; total_s : float; counts : Program.counts }

type state = {
  insts : Workload.instance array;
  lat_sum : float array;  (** Σ untraced latency of each instance *)
  alloc : float array;  (** fewest bytes an untraced call of each instance allocated *)
  results : (Program.outcome, string) Stdlib.result list array;
      (** every untraced call of each instance, newest first *)
  mutable untraced_totals : float list;
  mutable traced : traced_pass list;
}

(* Each call starts from a collected heap (outside the timed region),
   as a fresh [ctwsdd] process would.  The bytes it allocates are read
   around the call, outside the timed region too. *)
let untraced_pass w s order =
  let total = ref 0.0 in
  Array.iter
    (fun i ->
      Gc.full_major ();
      let a0 = Gc.allocated_bytes () in
      let r, dt = Program.facade w s.insts.(i) in
      let a1 = Gc.allocated_bytes () in
      s.lat_sum.(i) <- s.lat_sum.(i) +. dt;
      s.alloc.(i) <- Float.min s.alloc.(i) (a1 -. a0);
      total := !total +. dt;
      s.results.(i) <- r :: s.results.(i))
    order;
  s.untraced_totals <- !total :: s.untraced_totals

(* The traced run stopped at an instance whose composed pieces failed
   or disagreed with the facade. *)
exception Parity of string

(* The composed pieces of each instance, with the GC counters read
   around the instance and the answer and compiled size checked against
   the instance's first untraced call. *)
let traced_pass w s p order =
  Spans.current_pass := p;
  let k = Program.empty_counts () in
  Array.iter
    (fun i ->
      let inst = s.insts.(i) in
      Gc.full_major ();
      let g0 = Gc.quick_stat () in
      let o =
        try Program.composed k w inst
        with e -> raise (Parity (describe inst ^ " raised " ^ Printexc.to_string e))
      in
      let g1 = Gc.quick_stat () in
      k.minor_words <- k.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
      k.major_words <- k.major_words +. (g1.Gc.major_words -. g0.Gc.major_words);
      k.major_collections <-
        k.major_collections + (g1.Gc.major_collections - g0.Gc.major_collections);
      match List.rev s.results.(i) with
      | Ok u :: _ ->
        if not (Program.answer_equal u.answer o.answer && u.size = o.size) then
          raise
            (Parity
               (Printf.sprintf "%s: composed %s (size %d) but facade %s (size %d)"
                  (describe inst)
                  (Program.answer_to_string o.answer)
                  o.size
                  (Program.answer_to_string u.answer)
                  u.size))
      | _ -> ())
    order;
  let total = Spans.total "instance" (Spans.of_pass p) in
  s.traced <- { pass = p; total_s = total; counts = k } :: s.traced

(* Oracle checks, outside every timed region: every untraced call must
   match, and each instance must compile to the same size every time. *)
let check_oracles s =
  let attempted = ref 0 and failed = ref 0 and compiled_size = ref 0 in
  Array.iteri
    (fun i inst ->
      let oracle = Program.expected inst in
      let sizes = ref [] in
      List.iter
        (fun r ->
          incr attempted;
          match r with
          | Ok (o : Program.outcome) when Program.matches_oracle oracle o.answer ->
            sizes := o.size :: !sizes
          | Ok o ->
            incr failed;
            Printf.eprintf "perf: %s: wrong answer %s\n%!" (describe inst)
              (Program.answer_to_string o.answer)
          | Error e ->
            incr failed;
            Printf.eprintf "perf: %s: %s\n%!" (describe inst) e)
        s.results.(i);
      match List.sort_uniq compare !sizes with
      | [ size ] -> compiled_size := !compiled_size + size
      | [] -> ()
      | _ ->
        incr failed;
        Printf.eprintf "perf: %s: compiled size differs between calls\n%!" (describe inst))
    s.insts;
  (!attempted, !failed, !compiled_size)

(* An instance's latency is the mean of its timed calls.  The host's
   speed moves by up to 50% in phases of several seconds, so the fastest
   call of an instance mostly records whether the run caught a fast
   phase; the mean averages over the phases the run saw.  Over ten seeds
   of query-sdd, throughput spread 8–11% with the mean and 16–27% with
   the fastest call.

   Memory is reported per instance too: the process's peak heap is set
   by its single largest instance and moves in steps (4.5–5.7 MB over
   twelve seeds of query-sdd), while the mean allocation of the N
   instances spread 0.2–4% over ten seeds. *)
let end_to_end s ~setup_times ~attempted ~failed ~compiled_size =
  let n = Array.length s.insts in
  let calls = float_of_int (List.length s.untraced_totals) in
  let lat = Array.to_list (Array.map (fun t -> t /. calls) s.lat_sum) in
  let sum a = Array.fold_left ( +. ) 0.0 a in
  [
    metric ~n "instances_per_s" "1/s" (float_of_int n /. List.fold_left ( +. ) 0.0 lat);
    metric ~n "latency_p50_ms" "ms" (1000.0 *. percentile 0.5 lat);
    metric ~n "latency_p90_ms" "ms" (1000.0 *. percentile 0.9 lat);
    metric ~n "alloc_mb_per_instance" "MB" (sum s.alloc /. float_of_int n /. 1048576.0);
    metric ~n:(List.length setup_times) "setup_s" "s" (median setup_times);
    metric ~n "compiled_size" "nodes" (float_of_int compiled_size);
    metric ~n:attempted "failed_ratio" "ratio"
      (float_of_int failed /. float_of_int attempted);
  ]

(* Per-layer metrics of the fastest traced pass.  A layer's time is its
   spans' self time; shares are of the traced instance total.  In
   cnf-count the "treewidth" spans are the decomposition probe, which
   runs outside the instance spans, so its share is of a total that
   does not contain it. *)
let per_layer (w : Workload.t) s ~peak_heap_words =
  let tp =
    List.fold_left
      (fun a b -> if b.total_s < a.total_s then b else a)
      (List.hd s.traced) (List.tl s.traced)
  in
  let self = Spans.self_times (Spans.of_pass tp.pass) in
  let n = Array.length s.insts in
  let total = tp.total_s and k = tp.counts in
  let count name v = metric ~n name "count" (float_of_int v) in
  let ratio name a b =
    metric ~n name "ratio" (if b = 0 then 0.0 else float_of_int a /. float_of_int b)
  in
  let self_s l = Option.value ~default:0.0 (self l) in
  let time l = if self l = None then [] else [ metric ~n (l ^ ".self_s") "s" (self_s l) ] in
  let share l = metric ~n (l ^ ".share") "ratio" (self_s l /. total) in
  let is_query = w = Query_sdd || w = Query_auto in
  List.concat
    [
      time "dimacs";
      time "cnf_preprocess";
      (if w = Cnf_count then [ count "cnf_preprocess.components" k.components ] else []);
      time "lineage";
      (if is_query then [ count "lineage.gates" k.gates ] else []);
      time "treewidth";
      [ share "treewidth"; count "treewidth.width_max" k.width_max ];
      (if w = Cnf_count then [ metric ~n "treewidth.probe_s" "s" (self_s "treewidth") ]
       else []);
      time "backend";
      [ share "backend" ];
      time "wmc";
      [
        share "wmc";
        count "sdd.nodes_allocated" k.nodes_allocated;
        ratio "sdd.live_ratio" k.live_nodes k.nodes_allocated;
        ratio "sdd.unique_hit_ratio" k.unique_hits k.unique_lookups;
        ratio "sdd.apply_hit_ratio" k.apply_hits k.apply_lookups;
        count "sdd.lookups" k.lookups;
        metric ~n "sdd.bytes_per_node" "B"
          (float_of_int (8 * k.heap_words) /. float_of_int (max 1 k.nodes_allocated));
        metric ~n "gc.minor_mwords" "Mwords" (k.minor_words /. 1e6);
        metric ~n "gc.major_mwords" "Mwords" (k.major_words /. 1e6);
        count "gc.major_collections" k.major_collections;
        metric "gc.peak_heap_mb" "MB"
          (float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1048576.0);
        metric "trace.overhead_ratio" "ratio"
          ((total /. List.fold_left Float.min infinity s.untraced_totals) -. 1.0);
        metric ~n "trace.self_coverage" "ratio" ((total -. self_s "instance") /. total);
      ];
    ]

let run w ~seed ~seconds ~trace =
  let setup_times = ref [] in
  let sample_setup k =
    if not trace then
      for _ = 1 to k do
        setup_times := setup_once w ~seed :: !setup_times
      done
  in
  sample_setup 1;
  let insts = Workload.instances w ~seed in
  let n = Array.length insts in
  warm_up w insts;
  let s =
    {
      insts;
      lat_sum = Array.make n 0.0;
      alloc = Array.make n infinity;
      results = Array.make n [];
      untraced_totals = [];
      traced = [];
    }
  in
  let kind p = if trace && p mod 2 = 1 then `Traced else `Untraced in
  let last_wall = Hashtbl.create 2 in
  let order_rng = Random.State.make [| seed; 0x5eed |] in
  let t_start = now () in
  let rec loop p walls =
    let minimum_met =
      if trace then s.untraced_totals <> [] && s.traced <> []
      else List.length s.untraced_totals >= min_passes
    in
    let next_fits =
      match Hashtbl.find_opt last_wall (kind p) with
      | Some t -> now () -. t_start +. t <= seconds
      | None -> true
    in
    if p >= max_passes || (minimum_met && not next_fits) then (p, List.rev walls)
    else begin
      let order = permutation order_rng n in
      let p0 = now () in
      (match kind p with
       | `Untraced -> untraced_pass w s order
       | `Traced -> traced_pass w s p order);
      let wall = now () -. p0 in
      Hashtbl.replace last_wall (kind p) wall;
      sample_setup setup_per_pass;
      loop (p + 1) (wall :: walls)
    end
  in
  let passes, pass_walls = loop 0 [] in
  let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let attempted, failed, compiled_size = check_oracles s in
  let metrics =
    if trace then begin
      Spans.write_chrome (Printf.sprintf "TRACE_perf_%s.json" (Workload.name w));
      per_layer w s ~peak_heap_words
    end
    else end_to_end s ~setup_times:!setup_times ~attempted ~failed ~compiled_size
  in
  { passes; pass_walls; attempted; failed; metrics }
