(* E20 — arena node store: flat per-node heap across scale, generational
   compaction, and a batch of independent applies.

   Three fixed workloads over segmented-chain CNFs (conjunctions of
   (¬x_i ∨ x_{i+1}) with the chain broken every [seg] variables —
   treewidth 1, model count (seg+1)^(segments), built clause by clause
   so the apply loop churns dead intermediates like a real compile):

     - scale: builds sized to ~1e4 / ~1e5 / ~1e6 live nodes with
       compaction armed, compacted and censused at the end.  The gated
       signal is the e20.scale.<target>.bytes_per_node gauge staying
       flat while live nodes grow two orders of magnitude — an arena
       regression that reintroduces per-node boxing shows up as a jump;
     - compaction: the same build with compaction armed vs disarmed.
       Armed, the arena capacity tracks the live size; disarmed, the
       append-only store keeps every dead intermediate;
     - apply: K = 8 independent pair-conjoins in one manager — each
       pair lives in its own vtree block (so the conjoins are
       independent) but overlaps within the pair (chain ∧ skip-chain
       over the same block, so each conjoin is a real apply, not the
       O(1) decision a disjoint conjunction makes).  The span keeps its
       historical name e20.apply.d1 so the trajectory in BENCH_E20.json
       stays comparable.  Model counts cross-check against the product
       of per-block counts.

   Keep the workload fixed: changing it invalidates the trajectory. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, 1000.0 *. (Unix.gettimeofday () -. t0))

let var prefix i = Printf.sprintf "%s%06d" prefix i

let variables prefix n = List.init n (fun i -> var prefix i)

(* Conjoin the segmented chain clause by clause.  Every conjoin
   obsoletes the previous accumulator spine, so an armed manager gets
   real garbage to collect; [maybe_compact] is the same checkpoint the
   compile loops use. *)
let build_chain m prefix n seg =
  let acc = ref (Sdd.true_ m) in
  for i = 0 to n - 2 do
    if (i + 1) mod seg <> 0 then begin
      let clause =
        Sdd.disjoin m
          (Sdd.literal m (var prefix i) false)
          (Sdd.literal m (var prefix (i + 1)) true)
      in
      acc := Sdd.maybe_compact m (Sdd.conjoin m !acc clause)
    end
  done;
  !acc

(* A chain of [seg]-variable segments has (seg+1) models per segment. *)
let chain_count n seg =
  Bigint.pow (Bigint.of_int (seg + 1)) ((n + seg - 1) / seg)

let seg = 32

let run () =
  Table.section "E20 — arena store: scale, compaction, apply";

  (* 1. Scale: per-node heap bytes stay flat while live nodes grow
     1e4 -> 1e6.  Compaction is armed so the census sees the live SDD,
     not the build's churn. *)
  let rows =
    List.map
      (fun (label, n) ->
        let vt = Vtree.balanced (variables "v" n) in
        let m = Sdd.manager ~compact_every:(max 4096 (2 * n)) vt in
        let root, ms =
          time (fun () ->
              Obs.span ("e20.scale." ^ label) @@ fun () ->
              build_chain m "v" n seg)
        in
        assert (Bigint.equal (Sdd.model_count m root) (chain_count n seg));
        let root = Sdd.compact m root in
        let c = Sdd.census m in
        let live = c.Sdd.allocated in
        Obs.gauge_set
          ("e20.scale." ^ label ^ ".bytes_per_node")
          c.Sdd.bytes_per_node;
        Obs.gauge_set ("e20.scale." ^ label ^ ".live_nodes") live;
        [
          label;
          Table.fi n;
          Table.fi live;
          Table.fi (Sdd.node_count m root);
          Table.fi c.Sdd.bytes_per_node;
          Table.fi (Sdd.compactions m);
          Printf.sprintf "%.1f" ms;
        ])
      [ ("1e4", 1_600); ("1e5", 16_000); ("1e6", 160_000) ]
  in
  Table.print
    ~title:"scale: per-node arena bytes across two orders of magnitude"
    ~header:
      [ "target"; "vars"; "live nodes"; "decisions"; "bytes/node";
        "compactions"; "ms" ]
    rows;

  (* 2. Compaction ablation at the 1e5 scale: armed keeps the arena
     near the live size, disarmed retains every dead intermediate. *)
  let n = 16_000 in
  let rows =
    List.map
      (fun (mode, compact_every) ->
        let vt = Vtree.balanced (variables "v" n) in
        let m = Sdd.manager ?compact_every vt in
        let root, ms =
          time (fun () ->
              Obs.span ("e20.compact." ^ mode) @@ fun () ->
              build_chain m "v" n seg)
        in
        assert (Bigint.equal (Sdd.model_count m root) (chain_count n seg));
        let c = Sdd.census m in
        [
          mode;
          Printf.sprintf "%.1f" ms;
          Table.fi c.Sdd.allocated;
          Table.fi c.Sdd.data_capacity;
          Table.fi (8 * c.Sdd.approx_heap_words);
          Table.fi (Sdd.compactions m);
        ])
      [ ("armed", Some 8192); ("disarmed", None) ]
  in
  Table.print
    ~title:
      (Printf.sprintf
         "compaction: segmented chain over %d variables, armed vs disarmed" n)
    ~header:
      [ "mode"; "ms"; "allocated"; "capacity"; "arena bytes"; "compactions" ]
    rows;

  (* 3. Apply: K independent pair-conjoins.  Each block gets a
     chain and a skip-chain (¬x_i ∨ x_{i+2}) over the same variables —
     within a pair the conjoin is a real structural apply (the skip
     clauses are implied, so the expected count is known), across pairs
     the blocks are vtree-independent.  Blocks are compiled once in
     their own managers, then imported into a fresh composed manager so
     the caches start cold. *)
  let k = 8 and l = 500 in
  let blocks =
    List.init k (fun j ->
        let prefix = Printf.sprintf "c%d_" j in
        let m = Sdd.manager (Vtree.balanced (variables prefix l)) in
        let a = build_chain m prefix l l in
        let b =
          let acc = ref (Sdd.true_ m) in
          for i = 0 to l - 3 do
            acc :=
              Sdd.conjoin m !acc
                (Sdd.disjoin m
                   (Sdd.literal m (var prefix i) false)
                   (Sdd.literal m (var prefix (i + 2)) true))
          done;
          !acc
        in
        (m, a, b))
  in
  let vt, offsets =
    Vtree.of_forest (List.map (fun (m, _, _) -> Sdd.vtree m) blocks)
  in
  let m = Sdd.manager vt in
  let pairs =
    List.mapi
      (fun i (cm, a, b) ->
        let imp r = Sdd.import ~dst:m ~map:(fun v -> v + offsets.(i)) cm r in
        (imp a, imp b))
      blocks
  in
  let rs, ms =
    time (fun () ->
        Obs.span "e20.apply.d1" @@ fun () ->
        List.map (fun (a, b) -> Sdd.conjoin m a b) pairs)
  in
  (* Chain ∧ skip-chain = chain: (l+1) models on the block, free
     everywhere else in the composed vtree. *)
  let expected =
    Bigint.mul (Bigint.of_int (l + 1)) (Bigint.pow2 ((k - 1) * l))
  in
  List.iter
    (fun r -> assert (Bigint.equal (Sdd.model_count m r) expected))
    rs;
  let total_size = List.fold_left (fun a r -> a + Sdd.size m r) 0 rs in
  Table.print
    ~title:
      (Printf.sprintf "apply: %d independent chain-%d ∧ skip-chain conjoins"
         k l)
    ~header:[ "pairs"; "ms"; "total size" ]
    [ [ Table.fi k; Printf.sprintf "%.1f" ms; Table.fi total_size ] ]
