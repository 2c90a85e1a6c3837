(* Canonical SDDs: hash-consed, compressed, trimmed.

   Node storage is an arena.  Instead of one boxed [node_data] record
   per node, the manager keeps a struct-of-arrays store — a kind byte, a
   vtree-node word and an auxiliary word per node, plus an offset into a
   shared flat element buffer holding the prime/sub pairs of every
   decision back to back.  A node costs ~3 words + 2 words per element,
   with no per-node heap object, no tuple boxing and no GC scanning of
   the payload (every array is immediate ints).

   A manager is used from one domain at a time.  The store and the node
   count are still published through [Atomic.t]s because the census of a
   dump ([census_all], run from a signal handler or a budget trip) can
   read a manager owned by a worker domain: growth copies into fresh
   arrays and republishes, and an old snapshot stays valid for every
   node it covers, because node cells are written once, before [count]
   moves past them.

   Tombstones left by dynamic vtree edits are reclaimed by a periodic
   compaction pass ([compact] / [maybe_compact]): mark from the caller's
   roots, relocate live nodes into exact-fit arrays with a monotone
   remap, rebuild the unique table and rewrite the packed-int caches
   through the remap.  Each compaction bumps the manager's generation
   counter; the census reports garbage words and generations so the
   telemetry surface shows reclamation at work. *)

type t = int

(* Apply/negate/condition caches use a single unboxed int key (node ids
   and vtree nodes packed into one word), so a lookup allocates nothing
   and hashing is one multiply instead of a polymorphic traversal. *)
module Int_key = struct
  type t = int

  let equal (a : int) (b : int) = a = b
  let hash (x : int) = (x * 0x9e3779b97f4a7c1) lsr 33 land 0x3fffffff
end

module Int_tbl = Hashtbl.Make (Int_key)

(* ------------------------------------------------------------------ *)
(* Arena store                                                         *)
(* ------------------------------------------------------------------ *)

(* Node kinds, one byte each in [store.kind]. *)
let k_tomb = '\000' (* slot killed by an edit, awaiting compaction *)
let k_const = '\001' (* aux = 0 (⊥) or 1 (⊤); ids 0 and 1 only *)
let k_lit = '\002' (* vnode = vtree leaf, aux = polarity (0/1) *)
let k_dec = '\003' (* vnode = vtree node, aux = element count, off set *)

type store = {
  kind : Bytes.t;
  vnode : int array;  (* vtree node; -1 for constants *)
  aux : int array;  (* constant value / literal polarity / element count *)
  off : int array;  (* decision: base index into [elems]; -1 otherwise *)
  elems : int array;  (* prime/sub pairs of all decisions, back to back *)
}

(* The unique table: open addressing (linear probing) over node ids, -1
   free, at most half full.  A decision's key [(v, p0, s0, p1, s1, ...)]
   is never copied out of the arena: hashing and equality read it from
   the node's columns and its element pairs. *)
type unique = { mutable slots : int array; mutable entries : int }

let unique_initial_slots = 256

type manager = {
  mutable vt : Vtree.t;
  store : store Atomic.t;
  count : int Atomic.t;  (* node slots handed out *)
  mutable elems_len : int;  (* words used in [store.elems] *)
  mutable budget : Budget.t;
  unique : unique;
  mutable lit_tbl : int array;  (* 2*leaf + polarity -> node id, -1 free *)
  and_cache : int Int_tbl.t;
  or_cache : int Int_tbl.t;
  neg_cache : int Int_tbl.t;
  cond_cache : int Int_tbl.t;
  (* Generational compaction state. *)
  mutable dead_nodes : int;  (* tombstones since the last compaction *)
  mutable dead_elems : int;  (* element pairs those tombstones strand *)
  mutable generation : int;
  mutable compactions_done : int;
  mutable compact_every : int;  (* max_int = never *)
  mutable last_compact_count : int;
  cs_unique : Obs.Cache.t;
  cs_and : Obs.Cache.t;
  cs_or : Obs.Cache.t;
  cs_neg : Obs.Cache.t;
  cs_cond : Obs.Cache.t;
}

(* Weak registry of live managers, so process-level consumers (the
   run record's census) can enumerate
   them without keeping them alive.  Registration is once per manager;
   the mutex covers managers created on several domains at once. *)
let registry_mu = Mutex.create ()
let registry : manager Weak.t ref = ref (Weak.create 8)

let register_manager m =
  Mutex.lock registry_mu;
  let w = !registry in
  let n = Weak.length w in
  let rec free i = if i >= n then None else if Weak.check w i then free (i + 1) else Some i in
  (match free 0 with
  | Some i -> Weak.set w i (Some m)
  | None ->
    let w' = Weak.create (2 * n) in
    Weak.blit w 0 w' 0 n;
    Weak.set w' n (Some m);
    registry := w');
  Mutex.unlock registry_mu

let live_managers () =
  Mutex.lock registry_mu;
  let w = !registry in
  let out = ref [] in
  for i = Weak.length w - 1 downto 0 do
    match Weak.get w i with Some m -> out := m :: !out | None -> ()
  done;
  Mutex.unlock registry_mu;
  !out

(* Apply keys pack the commuted operand pair; node ids stay far below
   2^31 in any workload that fits in memory. *)
let[@inline] pair_key a b = (a lsl 31) lor b

let initial_store () =
  let cap = 1024 in
  let kind = Bytes.make cap k_tomb in
  let vnode = Array.make cap (-1) in
  let aux = Array.make cap 0 in
  let off = Array.make cap (-1) in
  Bytes.unsafe_set kind 0 k_const;
  Bytes.unsafe_set kind 1 k_const;
  aux.(1) <- 1;
  { kind; vnode; aux; off; elems = Array.make 1024 0 }

let manager ?(budget = Budget.unlimited) ?(compact_every = max_int) vt =
  if compact_every < 1 then
    invalid_arg "Sdd.manager: compact_every must be positive";
  let unique = { slots = Array.make unique_initial_slots (-1); entries = 0 } in
  let and_cache = Int_tbl.create 128 in
  let or_cache = Int_tbl.create 128 in
  let neg_cache = Int_tbl.create 32 in
  let cond_cache = Int_tbl.create 32 in
  let m =
    {
      vt;
      store = Atomic.make (initial_store ());
      count = Atomic.make 2;
      elems_len = 0;
      budget;
      unique;
      lit_tbl = Array.make (2 * Vtree.num_nodes vt) (-1);
      and_cache;
      or_cache;
      neg_cache;
      cond_cache;
      dead_nodes = 0;
      dead_elems = 0;
      generation = 0;
      compactions_done = 0;
      compact_every;
      last_compact_count = 2;
      cs_unique =
        Obs.Cache.create ~size:(fun () -> unique.entries) "sdd.unique";
      cs_and =
        Obs.Cache.create ~size:(fun () -> Int_tbl.length and_cache) "sdd.and_cache";
      cs_or =
        Obs.Cache.create ~size:(fun () -> Int_tbl.length or_cache) "sdd.or_cache";
      cs_neg =
        Obs.Cache.create ~size:(fun () -> Int_tbl.length neg_cache) "sdd.neg_cache";
      cs_cond =
        Obs.Cache.create
          ~size:(fun () -> Int_tbl.length cond_cache)
          "sdd.cond_cache";
    }
  in
  Int_tbl.replace m.neg_cache 0 1;
  Int_tbl.replace m.neg_cache 1 0;
  register_manager m;
  m

let vtree m = m.vt
let num_nodes_allocated m = Atomic.get m.count
let budget m = m.budget
let set_budget m b = m.budget <- b

let set_compact_every m n =
  if n < 1 then invalid_arg "Sdd.set_compact_every: must be positive";
  m.compact_every <- n

let generation m = m.generation
let compactions m = m.compactions_done

(* Direct field bumps: local enough for ocamlopt to inline, so the hot
   apply/negate paths pay two stores, not a cross-module call. *)
let[@inline] cache_hit (c : Obs.Cache.t) =
  c.Obs.Cache.hits <- c.Obs.Cache.hits + 1

let[@inline] cache_miss (c : Obs.Cache.t) =
  c.Obs.Cache.misses <- c.Obs.Cache.misses + 1

let stats m =
  List.map Obs.Cache.snapshot
    [ m.cs_unique; m.cs_and; m.cs_or; m.cs_neg; m.cs_cond ]

(* Unique-table and apply-cache occupancy telemetry: entry watermarks
   and the unique table's load factor.  Called after whole-circuit
   compiles and dynamic edits, not per operation. *)
let probe_occupancy m =
  let u = m.unique in
  Obs.gauge_max "sdd.unique.entries_peak" u.entries;
  Obs.hist_record "sdd.unique.load_pct" (100 * u.entries / Array.length u.slots);
  Obs.gauge_max "sdd.apply_cache.entries_peak"
    (Int_tbl.length m.and_cache + Int_tbl.length m.or_cache)

(* ------------------------------------------------------------------ *)
(* Manager census (run-record surface)                                 *)
(* ------------------------------------------------------------------ *)

type census = {
  allocated : int;
  decisions : int;
  literals : int;
  tombstones : int;
  elements : int;
  unique_entries : int;
  unique_slots : int;
  apply_entries : int;
  neg_entries : int;
  cond_entries : int;
  data_capacity : int;
  approx_heap_words : int;
  bytes_per_node : int;
  garbage_words : int;
  generation : int;
  compactions : int;
}

(* Exact walk over the node store; O(allocated), called at dump/export
   time only, never on a hot path.  The estimate counts the arena
   arrays themselves (per-node storage is flat: ~25/8 words of header
   across the four column arrays plus the element pairs), the literal
   table and the unique table's slots.  [garbage_words] is the slice of
   that total stranded by tombstones — reclaimable by the next
   compaction. *)
let census m =
  let st = Atomic.get m.store in
  let count = Stdlib.min (Atomic.get m.count) (Bytes.length st.kind) in
  let decisions = ref 0
  and literals = ref 0
  and tombstones = ref 0
  and elements = ref 0 in
  let cap = Bytes.length st.kind in
  let words =
    ((cap + 7) / 8) + (3 * cap) + Array.length st.elems
    + Array.length m.lit_tbl + Array.length m.unique.slots
  in
  for id = 2 to count - 1 do
    let k = Bytes.unsafe_get st.kind id in
    if k = k_dec then begin
      Stdlib.incr decisions;
      elements := !elements + st.aux.(id)
    end
    else if k = k_lit then Stdlib.incr literals
    else Stdlib.incr tombstones
  done;
  {
    allocated = count;
    decisions = !decisions;
    literals = !literals;
    tombstones = !tombstones;
    elements = !elements;
    unique_entries = m.unique.entries;
    unique_slots = Array.length m.unique.slots;
    apply_entries = Int_tbl.length m.and_cache + Int_tbl.length m.or_cache;
    neg_entries = Int_tbl.length m.neg_cache;
    cond_entries = Int_tbl.length m.cond_cache;
    data_capacity = cap;
    approx_heap_words = words;
    bytes_per_node = 8 * words / Stdlib.max 1 count;
    garbage_words = (3 * !tombstones) + (2 * m.dead_elems);
    generation = m.generation;
    compactions = m.compactions_done;
  }

let census_to_json c =
  Obs.Json.Obj
    [
      ("allocated", Obs.Json.Int c.allocated);
      ("decisions", Obs.Json.Int c.decisions);
      ("literals", Obs.Json.Int c.literals);
      ("tombstones", Obs.Json.Int c.tombstones);
      ("elements", Obs.Json.Int c.elements);
      ("unique_entries", Obs.Json.Int c.unique_entries);
      ("unique_slots", Obs.Json.Int c.unique_slots);
      ("apply_entries", Obs.Json.Int c.apply_entries);
      ("neg_entries", Obs.Json.Int c.neg_entries);
      ("cond_entries", Obs.Json.Int c.cond_entries);
      ("data_capacity", Obs.Json.Int c.data_capacity);
      ("approx_heap_words", Obs.Json.Int c.approx_heap_words);
      ("bytes_per_node", Obs.Json.Int c.bytes_per_node);
      ("garbage_words", Obs.Json.Int c.garbage_words);
      ("generation", Obs.Json.Int c.generation);
      ("compactions", Obs.Json.Int c.compactions);
    ]

let census_all () = List.map census (live_managers ())

(* Occupancy gauges for the run record's [gauges] section: cheap
   summary numbers (no node walk) refreshed whenever occupancy is
   probed. *)
let occupancy_gauges m =
  if !Obs.enabled_ref then begin
    Obs.gauge_set "sdd.nodes_allocated" (Atomic.get m.count);
    Obs.gauge_set "sdd.unique.entries" m.unique.entries;
    Obs.gauge_set "sdd.apply_cache.entries"
      (Int_tbl.length m.and_cache + Int_tbl.length m.or_cache)
  end;
  Obs.Ring.record Obs.Ring.Note "sdd.occupancy"
    ~args:
      [
        ("allocated", Obs.Json.Int (Atomic.get m.count));
        ("unique_entries", Obs.Json.Int m.unique.entries);
      ]

let false_ _ = 0
let true_ _ = 1
(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* Budget checkpoint: every node allocation gates on [active] (one load
   + branch when unlimited, see bench/overhead.ml).  The node cap is
   exact — same allocation sequence, same trip point — while
   clock/cancellation/heap ride the amortized poll. *)
let[@inline] budget_gate m =
  if m.budget.Budget.active then begin
    Budget.check_nodes m.budget (Atomic.get m.count);
    Budget.poll m.budget
  end

(* Store growth.  Copies into fresh arrays and republishes the record;
   a census reading an old snapshot stays correct because every cell it
   can name was written before [count] moved past it.  Returns the store
   to write into. *)
let ensure_node_capacity m st id =
  if id < Bytes.length st.kind then st
  else begin
    let cap = Bytes.length st.kind in
    let cap' = 2 * cap in
    let kind = Bytes.make cap' k_tomb in
    Bytes.blit st.kind 0 kind 0 cap;
    let vnode = Array.make cap' (-1) in
    Array.blit st.vnode 0 vnode 0 cap;
    let aux = Array.make cap' 0 in
    Array.blit st.aux 0 aux 0 cap;
    let off = Array.make cap' (-1) in
    Array.blit st.off 0 off 0 cap;
    let st' = { kind; vnode; aux; off; elems = st.elems } in
    Atomic.set m.store st';
    st'
  end

let ensure_elems_capacity m st needed =
  if needed <= Array.length st.elems then st
  else begin
    let cap = ref (2 * Array.length st.elems) in
    while needed > !cap do
      cap := 2 * !cap
    done;
    let elems = Array.make !cap 0 in
    Array.blit st.elems 0 elems 0 m.elems_len;
    let st' = { st with elems } in
    Atomic.set m.store st';
    st'
  end

(* Allocation telemetry, shared by the allocators below. *)
let[@inline] after_alloc m count =
  if !Obs.enabled_ref then begin
    Obs.incr "sdd.alloc";
    Obs.gauge_max "sdd.nodes_allocated" count;
    Attribution.charge_nodes 1
  end;
  (* Occupancy pulse: one flight-recorder note (and gauge refresh) every
     4096 allocations, so a dump's ring tail shows growth history without
     taxing the per-alloc path beyond a mask-and-branch. *)
  if count land 4095 = 0 then occupancy_gauges m

(* Node allocation.  Cells are fully written before [count] moves past
   them. *)
let alloc_lit m leaf polarity =
  budget_gate m;
  let id = Atomic.get m.count in
  let st = ensure_node_capacity m (Atomic.get m.store) id in
  Bytes.unsafe_set st.kind id k_lit;
  st.vnode.(id) <- leaf;
  st.aux.(id) <- polarity;
  st.off.(id) <- -1;
  Atomic.set m.count (id + 1);
  after_alloc m (id + 1);
  id

(* Writes the [k] elements of [elems] just past the used end of the
   element buffer, where [alloc_dec] commits them and the unique table
   can compare them in place; returns the store holding them. *)
let stage m elems k =
  let base = m.elems_len in
  let st = ensure_elems_capacity m (Atomic.get m.store) (base + (2 * k)) in
  List.iteri
    (fun i (p, s) ->
      st.elems.(base + (2 * i)) <- p;
      st.elems.(base + (2 * i) + 1) <- s)
    elems;
  st

(* Commits a decision whose [k] elements [stage] has just written. *)
let alloc_dec m v k =
  budget_gate m;
  let id = Atomic.get m.count in
  let st = ensure_node_capacity m (Atomic.get m.store) id in
  let base = m.elems_len in
  Bytes.unsafe_set st.kind id k_dec;
  st.vnode.(id) <- v;
  st.aux.(id) <- k;
  st.off.(id) <- base;
  m.elems_len <- base + (2 * k);
  Atomic.set m.count (id + 1);
  after_alloc m (id + 1);
  if !Obs.enabled_ref then Attribution.charge_elements k;
  id

(* Literal lookup by vtree leaf and polarity (0/1); misses allocate. *)
let literal_at m leaf polarity =
  let slot = (2 * leaf) + polarity in
  let cached = m.lit_tbl.(slot) in
  if cached >= 0 then cached
  else begin
    let id = alloc_lit m leaf polarity in
    m.lit_tbl.(slot) <- id;
    id
  end

let literal m v polarity =
  literal_at m (Vtree.leaf_of_var m.vt v) (Bool.to_int polarity)

let vtree_node m a =
  let st = Atomic.get m.store in
  if Bytes.unsafe_get st.kind a = k_const then None else Some st.vnode.(a)

let equal (a : t) (b : t) = a = b
let is_true _ a = a = 1
let is_false _ a = a = 0

(* Elements of decision [id] as a (prime, sub) list, newest snapshot not
   required: cells are immutable once published. *)
let elements_list st id =
  let k = st.aux.(id) and base = st.off.(id) in
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1)
        ((st.elems.(base + (2 * i)), st.elems.(base + (2 * i) + 1)) :: acc)
  in
  go (k - 1) []

(* ------------------------------------------------------------------ *)
(* Cache access                                                        *)
(* ------------------------------------------------------------------ *)

(* Missing entries return -1 (node ids are non-negative) so the hot
   path is exception-free. *)
let[@inline] cache_find (tbl : int Int_tbl.t) key =
  match Int_tbl.find tbl key with r -> r | exception Not_found -> -1

(* ------------------------------------------------------------------ *)
(* Node construction: compression, trimming, unique table              *)
(* ------------------------------------------------------------------ *)

(* Polymorphic hashing only samples a bounded prefix of a structured
   key, so wide decision nodes would collide pathologically; hash the
   whole key [(v, p0, s0, ...)] FNV-1a style instead. *)
let[@inline] fnv h x =
  let h = (h lxor (x land 0xffff)) * 0x01000193 land 0x3fffffff in
  (h lxor ((x lsr 16) land 0xffff)) * 0x01000193 land 0x3fffffff

let rec same_elems elems a b i n =
  i >= n || (elems.(a + i) = elems.(b + i) && same_elems elems a b (i + 1) n)

let rec probe slots mask st v base k i =
  let id = slots.(i) in
  if
    id < 0
    || st.vnode.(id) = v
       && st.aux.(id) = k
       && same_elems st.elems st.off.(id) base 0 (2 * k)
  then i
  else probe slots mask st v base k ((i + 1) land mask)

(* The slot holding the decision keyed by [v] and the [k] pairs at
   [base] in [st.elems], else the free slot where it belongs (the table
   is at most half full, so the probe ends). *)
let unique_slot slots st v base k =
  let h = ref (fnv 0x811c9dc5 v) and mask = Array.length slots - 1 in
  for i = base to base + (2 * k) - 1 do h := fnv !h st.elems.(i) done;
  probe slots mask st v base k (!h land mask)

let slot_of slots st id =
  unique_slot slots st st.vnode.(id) st.off.(id) st.aux.(id)

(* Claims the free slot [i] for decision [id].  Past half load the table
   doubles, rehashed from the arena columns (no key is stored). *)
let unique_add u st i id =
  u.slots.(i) <- id;
  u.entries <- u.entries + 1;
  if 2 * u.entries > Array.length u.slots then begin
    let slots = Array.make (2 * Array.length u.slots) (-1) in
    Array.iter
      (fun id -> if id >= 0 then slots.(slot_of slots st id) <- id)
      u.slots;
    u.slots <- slots
  end

let unique_reset u =
  u.slots <- Array.make unique_initial_slots (-1);
  u.entries <- 0

(* Find-or-claim of a canonical decision. *)
let unique_find_or_add m v sorted k =
  let st = stage m sorted k in
  let i = unique_slot m.unique.slots st v m.elems_len k in
  let id = m.unique.slots.(i) in
  if id >= 0 then (cache_hit m.cs_unique; id)
  else begin
    cache_miss m.cs_unique;
    let id = alloc_dec m v k in
    unique_add m.unique (Atomic.get m.store) i id;
    id
  end

(* ------------------------------------------------------------------ *)
(* Right-linear vtrees (OBDDs)                                         *)
(* ------------------------------------------------------------------ *)

(* An OBDD is exactly a canonical SDD over a right-linear vtree
   (Section 2.2 of the paper).  There every decision has exactly two
   elements whose primes are the two literals of one variable, so apply
   reduces to the classic Shannon/ITE recursion — cofactor both operands
   on the topmost variable, recurse twice, rebuild — with no
   [elements_at] views, no prime cross products and no prime conjoins.
   The helpers below are that recursion's view of the arena.

   Pre-order ids of a right-linear vtree: the spine internals are the
   even ids 0, 2, ..., the leaf deciding level k is 2k+1, and the last
   variable keeps the final even id — so levels are pure id arithmetic,
   no per-manager tables. *)
let[@inline] level_of st a =
  let u = st.vnode.(a) in
  if Bytes.unsafe_get st.kind a = k_dec then u / 2
  else if u land 1 = 1 then (u - 1) / 2
  else u / 2

(* (hi, lo) cofactors of [a] on the variable of [lvl]; [la] is [a]'s
   own level ([> lvl] means [a] does not mention the variable). *)
let cofactors st a la lvl =
  if la > lvl then (a, a)
  else if Bytes.unsafe_get st.kind a = k_lit then
    if st.aux.(a) = 1 then (1, 0) else (0, 1)
  else begin
    assert (st.aux.(a) = 2) (* canonical right-linear: exactly 2 elements *);
    let base = st.off.(a) in
    let s1 = st.elems.(base + 1) and s2 = st.elems.(base + 3) in
    if st.aux.(st.elems.(base)) = 1 then (s1, s2) else (s2, s1)
  end

(* Canonical node for ITE(x_lvl, hi, lo): trims mirror [mk_decision]
   ([hi = lo] merge, literal shortcuts), and the interned element list /
   unique key match its layout exactly, so the nodes are the ones the
   element product would build. *)
let mk_node m lvl hi lo =
  if hi = lo then hi
  else begin
    let leaf = (2 * lvl) + 1 in
    if hi = 1 && lo = 0 then literal_at m leaf 1
    else if hi = 0 && lo = 1 then literal_at m leaf 0
    else begin
      let pos = literal_at m leaf 1 and neg = literal_at m leaf 0 in
      let v = 2 * lvl in
      let sorted =
        if pos < neg then [ (pos, hi); (neg, lo) ] else [ (neg, lo); (pos, hi) ]
      in
      unique_find_or_add m v sorted 2
    end
  end

let rec negate m a =
  let c = cache_find m.neg_cache a in
  if c >= 0 then begin
    cache_hit m.cs_neg;
    c
  end
  else begin
    cache_miss m.cs_neg;
    let st = Atomic.get m.store in
    let k = Bytes.unsafe_get st.kind a in
    let r =
      if k = k_const then 1 - st.aux.(a)
      else if k = k_lit then literal_at m st.vnode.(a) (1 - st.aux.(a))
      else
        mk_decision m st.vnode.(a)
          (List.map (fun (p, s) -> (p, negate m s)) (elements_list st a))
    in
    Int_tbl.replace m.neg_cache a r;
    Int_tbl.replace m.neg_cache r a;
    r
  end

(* Compression: drop ⊥ primes, then merge the elements sharing a sub
   by disjoining their primes; subs keep their first-occurrence order. *)
and compress m elems =
  (* (sub, its primes newest first), newest sub first. *)
  let groups =
    List.fold_left
      (fun groups (p, s) ->
        if p = 0 then groups
        else
          match List.assq s groups with
          | ps -> ps := p :: !ps; groups
          | exception Not_found -> (s, ref [ p ]) :: groups)
      [] elems
  in
  List.rev_map
    (fun (s, ps) ->
      match !ps with
      | [ p ] -> (p, s)
      | ps -> (List.fold_left (fun acc p -> disjoin m acc p) 0 ps, s))
    groups

(* Builds the node for a decision at vtree node [v] from an element list
   whose primes are pairwise disjoint and jointly exhaustive (some primes
   may be ⊥): compressed, trimmed, sorted by prime and interned in the
   unique table. *)
and mk_decision m v elems =
  match compress m elems with
  | [] -> 0
  | [ (p, s) ] ->
    assert (p = 1);
    s
  | [ (p, 1); (_, 0) ] | [ (_, 0); (p, 1) ] -> p
  | compressed ->
    let k = List.length compressed in
    if !Obs.enabled_ref then Obs.hist_record "sdd.decision_fanout" k;
    unique_find_or_add m v
      (List.sort (fun (p1, _) (p2, _) -> Int.compare p1 p2) compressed)
      k

(* ------------------------------------------------------------------ *)
(* Apply                                                               *)
(* ------------------------------------------------------------------ *)

(* Elements of [a] viewed as a decision at vtree node [v] (an ancestor of
   a's vtree node, or the node itself). *)
and elements_at m v a =
  let st = Atomic.get m.store in
  if Bytes.unsafe_get st.kind a = k_dec && st.vnode.(a) = v then
    elements_list st a
  else begin
    let u = st.vnode.(a) in
    if Vtree.in_left_subtree m.vt v u then [ (a, 1); (negate m a, 0) ]
    else begin
      assert (Vtree.in_right_subtree m.vt v u);
      [ (1, a) ]
    end
  end

(* The one apply.  The trivial cases and the caches are shared; a miss
   is computed by the ITE recursion when the manager is an OBDD (its
   vtree is right-linear — the flag lives in the immutable vtree, so an
   edit or its rollback, which swap [m.vt], can never leave it stale)
   and by the element product otherwise. *)
and apply m op_and a b =
  let cache = if op_and then m.and_cache else m.or_cache in
  let neutral = if op_and then 1 else 0 in
  let absorbing = if op_and then 0 else 1 in
  if a = absorbing || b = absorbing then absorbing
  else if a = neutral then b
  else if b = neutral then a
  else if a = b then a
  else if cache_find m.neg_cache a = b then absorbing
  else begin
    let key = pair_key (Stdlib.min a b) (Stdlib.max a b) in
    let cstat = if op_and then m.cs_and else m.cs_or in
    let cached = cache_find cache key in
    if cached >= 0 then begin
      cache_hit cstat;
      cached
    end
    else begin
      cache_miss cstat;
      if !Obs.enabled_ref then Attribution.charge_apply_miss ();
      let r =
        if Vtree.is_right_linear m.vt then begin
          let st = Atomic.get m.store in
          let la = level_of st a and lb = level_of st b in
          let lvl = Stdlib.min la lb in
          let ah, al = cofactors st a la lvl in
          let bh, bl = cofactors st b lb lvl in
          let hi = apply m op_and ah bh in
          let lo = apply m op_and al bl in
          mk_node m lvl hi lo
        end
        else begin
          let va = Option.get (vtree_node m a) in
          let vb = Option.get (vtree_node m b) in
          if va = vb && Vtree.is_leaf m.vt va then begin
            (* Two distinct literals on the same variable. *)
            if op_and then 0 else 1
          end
          else begin
            let v = Vtree.lca m.vt va vb in
            let v =
              (* If one argument sits at [v] it must be a decision there;
                 if both are below on the same side, lca can be a strict
                 descendant of where we must decide — but lca of two
                 distinct nodes is internal unless equal. *)
              if Vtree.is_leaf m.vt v then Option.get (Vtree.parent m.vt v) else v
            in
            let ea = elements_at m v a in
            let eb = elements_at m v b in
            let out = ref [] in
            List.iter
              (fun (p1, s1) ->
                List.iter
                  (fun (p2, s2) ->
                    let p = conjoin m p1 p2 in
                    if p <> 0 then begin
                      let s = apply m op_and s1 s2 in
                      out := (p, s) :: !out
                    end)
                  eb)
              ea;
            if !Obs.enabled_ref then
              Obs.hist_record "sdd.apply_elements" (List.length !out);
            mk_decision m v !out
          end
        end
      in
      Int_tbl.replace cache key r;
      r
    end
  end

and conjoin m a b = apply m true a b
and disjoin m a b = apply m false a b

(* Pairwise, level by level; an odd trailing operand waits a level. *)
let rec fold_pairs op unit = function
  | [] -> unit
  | [ a ] -> a
  | l ->
    let rec pairs = function
      | a :: b :: rest -> let ab = op a b in ab :: pairs rest (* left first *)
      | rest -> rest
    in
    fold_pairs op unit (pairs l)

let conjoin_list m l = fold_pairs (conjoin m) 1 l
let disjoin_list m l = fold_pairs (disjoin m) 0 l

(* ------------------------------------------------------------------ *)
(* Conditioning                                                        *)
(* ------------------------------------------------------------------ *)

let condition m a x value =
  match Vtree.leaf_of_var m.vt x with
  | exception Not_found ->
    (* x is not in the vtree, so no node of the manager mentions it. *)
    a
  | lx ->
    let num_nodes = Vtree.num_nodes m.vt in
    let rec go a =
      let st = Atomic.get m.store in
      let k = Bytes.unsafe_get st.kind a in
      if k = k_const then a
      else if k = k_lit then begin
        if st.vnode.(a) = lx then (if st.aux.(a) = Bool.to_int value then 1 else 0)
        else a
      end
      else begin
        let v = st.vnode.(a) in
        if not (Vtree.is_ancestor m.vt v lx) then a
        else begin
          let key = (((a * num_nodes) + lx) lsl 1) lor Bool.to_int value in
          let cached = cache_find m.cond_cache key in
          if cached >= 0 then begin
            cache_hit m.cs_cond;
            cached
          end
          else begin
            cache_miss m.cs_cond;
            let in_left = Vtree.is_ancestor m.vt (Vtree.left m.vt v) lx in
            let elems' =
              List.map
                (fun (p, s) -> if in_left then (go p, s) else (p, go s))
                (elements_list st a)
            in
            let r = mk_decision m v elems' in
            Int_tbl.replace m.cond_cache key r;
            r
          end
        end
      end
    in
    go a
(* ------------------------------------------------------------------ *)
(* Generational compaction                                             *)
(* ------------------------------------------------------------------ *)

let rebuild_unique m =
  let u = m.unique in
  unique_reset u;
  let st = Atomic.get m.store in
  let n = Atomic.get m.count in
  for id = 2 to n - 1 do
    if Bytes.unsafe_get st.kind id = k_dec then
      unique_add u st (slot_of u.slots st id) id
  done

let reset_caches m =
  Int_tbl.reset m.and_cache;
  Int_tbl.reset m.or_cache;
  Int_tbl.reset m.neg_cache;
  Int_tbl.reset m.cond_cache

let seed_neg m =
  Int_tbl.replace m.neg_cache 0 1;
  Int_tbl.replace m.neg_cache 1 0

(* The entries of the and, or, neg and cond caches, in that order. *)
let save_caches m =
  let entries tbl = Int_tbl.fold (fun k r acc -> (k, r) :: acc) tbl [] in
  (entries m.and_cache, entries m.or_cache, entries m.neg_cache,
   entries m.cond_cache)

let mask31 = (1 lsl 31) - 1

(* Re-inserts saved cache entries after the node ids moved: [node] maps
   an old id to its new one, or to -1 when the node was dropped (the
   entries touching it go), and [leaf] maps the vtree leaf of a cond
   key.  Apply keys are re-ordered min/max under the new ids; the neg
   cache holds both directions of each pair, so each entry is mapped as
   it stands.  The vtree keeps its node count across a move, so the
   cond key packing is unchanged. *)
let reinsert_caches m ~node ~leaf (s_and, s_or, s_neg, s_cond) =
  let nn = Vtree.num_nodes m.vt in
  let reinsert_apply tbl =
    List.iter (fun (k, r) ->
        let a = node (k lsr 31) and b = node (k land mask31) and r = node r in
        if a >= 0 && b >= 0 && r >= 0 then
          Int_tbl.replace tbl (pair_key (Stdlib.min a b) (Stdlib.max a b)) r)
  in
  reinsert_apply m.and_cache s_and;
  reinsert_apply m.or_cache s_or;
  List.iter
    (fun (a, b) ->
      let a = node a and b = node b in
      if a >= 0 && b >= 0 then Int_tbl.replace m.neg_cache a b)
    s_neg;
  List.iter
    (fun (k, r) ->
      let value = k land 1 and k2 = k lsr 1 in
      let a = node (k2 / nn) and r = node r in
      if a >= 0 && r >= 0 then
        Int_tbl.replace m.cond_cache
          ((((a * nn) + leaf (k2 mod nn)) lsl 1) lor value)
          r)
    s_cond

(* Compaction: mark live nodes from [roots], relocate them into
   exact-fit arrays with a monotone remap (ascending old id → ascending
   new id, so prime-sorted element order and unique keys stay
   canonical), rebuild the unique table and literal table, and rewrite
   the packed-int caches through the remap.  Supersedes the reachability
   GC that dynamic edits perform on their own roots: it reclaims
   tombstones and dead intermediates across the whole manager, and
   resets the per-node heap overhead to the live set.

   All raising (the budget poll during marking) happens before any
   mutation, so a mid-compaction trip leaves the manager untouched —
   [dynamic_edit] relies on this to keep its transaction rollback
   simple.  Returns the remapped roots, positionally. *)
let compact_roots m (roots : int array) : int array =
  Budget.check m.budget;
  let t0 = Unix.gettimeofday () in
  let st = Atomic.get m.store in
  let n = Atomic.get m.count in
  let old_node_cap = Bytes.length st.kind in
  let old_elems_cap = Array.length st.elems in
  (* -- Mark (iterative: E20-scale chains overflow the OCaml stack). -- *)
  let live = Bytes.make n '\000' in
  Bytes.unsafe_set live 0 '\001';
  Bytes.unsafe_set live 1 '\001';
  let n_live = ref 2 and live_pairs = ref 0 in
  (* Literals always survive: lit_tbl must stay total over created
     literals, and there are at most two per variable. *)
  for id = 2 to n - 1 do
    if Bytes.unsafe_get st.kind id = k_lit then begin
      Bytes.unsafe_set live id '\001';
      incr n_live
    end
  done;
  let stack = ref (Array.make 1024 0) in
  let sp = ref 0 in
  let push x =
    if !sp >= Array.length !stack then begin
      let s' = Array.make (2 * Array.length !stack) 0 in
      Array.blit !stack 0 s' 0 !sp;
      stack := s'
    end;
    !stack.(!sp) <- x;
    incr sp
  in
  Array.iter
    (fun r -> if r >= 2 && Bytes.unsafe_get live r = '\000' then push r)
    roots;
  while !sp > 0 do
    decr sp;
    let id = !stack.(!sp) in
    if Bytes.unsafe_get live id = '\000' then begin
      Budget.poll m.budget;
      Bytes.unsafe_set live id '\001';
      if Bytes.unsafe_get st.kind id = k_dec then begin
        incr n_live;
        let k = st.aux.(id) and base = st.off.(id) in
        live_pairs := !live_pairs + k;
        for i = 0 to (2 * k) - 1 do
          let x = st.elems.(base + i) in
          if x >= 2 && Bytes.unsafe_get live x = '\000' then push x
        done
      end
    end
  done;
  (* -- Remap: monotone in old id, so relative order is preserved. -- *)
  let remap = Array.make (Stdlib.max n 2) (-1) in
  remap.(0) <- 0;
  remap.(1) <- 1;
  let next = ref 2 in
  for id = 2 to n - 1 do
    if Bytes.unsafe_get live id = '\001' then begin
      remap.(id) <- !next;
      incr next
    end
  done;
  (* -- Relocate into exact-fit arrays. -- *)
  let node_cap = Stdlib.max 1024 !next in
  let elems_cap = Stdlib.max 1024 (2 * !live_pairs) in
  let kind = Bytes.make node_cap k_tomb in
  let vnode = Array.make node_cap (-1) in
  let aux = Array.make node_cap 0 in
  let off = Array.make node_cap (-1) in
  let elems = Array.make elems_cap 0 in
  Bytes.unsafe_set kind 0 k_const;
  Bytes.unsafe_set kind 1 k_const;
  aux.(1) <- 1;
  let epos = ref 0 in
  for id = 2 to n - 1 do
    if Bytes.unsafe_get live id = '\001' then begin
      let nid = remap.(id) in
      let kch = Bytes.unsafe_get st.kind id in
      Bytes.unsafe_set kind nid kch;
      vnode.(nid) <- st.vnode.(id);
      aux.(nid) <- st.aux.(id);
      if kch = k_dec then begin
        let k = st.aux.(id) and base = st.off.(id) in
        off.(nid) <- !epos;
        for i = 0 to (2 * k) - 1 do
          elems.(!epos + i) <- remap.(st.elems.(base + i))
        done;
        epos := !epos + (2 * k)
      end
    end
  done;
  (* Save cache entries before the store flips (decode needs nothing,
     but keep mutation strictly after all reads of the old state). *)
  let saved = save_caches m in
  Atomic.set m.store { kind; vnode; aux; off; elems };
  Atomic.set m.count !next;
  m.elems_len <- !epos;
  (* Literal table: same vtree, new ids. *)
  Array.fill m.lit_tbl 0 (Array.length m.lit_tbl) (-1);
  for nid = 2 to !next - 1 do
    if Bytes.unsafe_get kind nid = k_lit then
      m.lit_tbl.((2 * vnode.(nid)) + aux.(nid)) <- nid
  done;
  rebuild_unique m;
  (* Caches: reinsert through the remap, dropping entries that touch a
     collected node.  The remap is monotone, so commuted apply keys
     stay min/max-ordered and stored element sort orders were already
     preserved above. *)
  reset_caches m;
  reinsert_caches m ~node:(Array.get remap) ~leaf:Fun.id saved;
  (* Bookkeeping + telemetry: every compaction records one event with
     relocation and pause figures. *)
  let relocated = !next - 2 in
  let words_before = (3 * old_node_cap) + (old_node_cap / 8) + old_elems_cap in
  let words_after = (3 * node_cap) + (node_cap / 8) + elems_cap in
  let reclaimed = Stdlib.max 0 (words_before - words_after) in
  m.dead_nodes <- 0;
  m.dead_elems <- 0;
  m.generation <- m.generation + 1;
  m.compactions_done <- m.compactions_done + 1;
  m.last_compact_count <- !next;
  let pause_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  if !Obs.enabled_ref then begin
    Obs.incr "sdd.compaction";
    Attribution.charge_compaction_pause pause_us
  end;
  Obs.event "sdd.compaction"
    [
      ("relocated", Obs.Json.Int relocated);
      ("reclaimed_words", Obs.Json.Int reclaimed);
      ("pause_us", Obs.Json.Int pause_us);
      ("generation", Obs.Json.Int m.generation);
    ];
  Array.map (fun r -> if r < 2 then r else remap.(r)) roots

let compact m root = (compact_roots m [| root |]).(0)

(* Due when the manager has allocated [compact_every] nodes since the
   last pass or edits have stranded that many tombstones. *)
let compact_due m =
  m.compact_every <> max_int
  && (Atomic.get m.count - m.last_compact_count >= m.compact_every
     || m.dead_nodes >= m.compact_every)

let maybe_compact m root = if compact_due m then compact m root else root
(* ------------------------------------------------------------------ *)
(* Dynamic vtree edits                                                 *)
(* ------------------------------------------------------------------ *)

(* A local move (rotation or child swap) at an internal vtree node
   changes how functions straddling that node decompose, but nothing
   else: the decisions that must be rebuilt semantically are exactly
   those normalized to the edited node (and, for rotations, to the
   rotated child).  Every other node survives with at most a renumbered
   vtree id, because [Vtree.of_shape] assigns pre-order ids: the edit
   shifts the id blocks of the three grandchild subtrees by constant
   offsets and leaves everything outside the edited subtree in place.

   The rewrite walks the nodes reachable from the caller's root in
   dependency order (elements before the decision referencing them —
   ascending ids are NOT that order once the manager has been edited
   before, because a decision can keep a small id through a unique-table
   claim while an earlier edit rebuilt its elements to freshly allocated
   larger ids), maintaining a forwarding array [fwd] with the invariant
   that [fwd.(a)] is the new canonical id of the function of old node
   [a]:

   - literals keep their ids (the leaf id is remapped);
   - an unaffected decision keeps its id unless an equal node was
     already created by an earlier rebuild, in which case it forwards to
     it — the unique table is re-keyed either way;
   - an affected decision is recomputed as [∨ᵢ fwd(pᵢ) ∧ fwd(sᵢ)] with
     the ordinary apply, which renormalizes it to the new vtree.

   The walk doubles as a garbage collection: nodes not reachable from
   the root (dead compile intermediates, leftovers of earlier edits) are
   tombstoned instead of rewritten, so a long chain of edits — the
   in-manager vtree search applies and reverts hundreds — costs
   O(reachable) per edit rather than O(allocated); tombstones accumulate
   in the dead counters until [compact] relocates the live set.  This is
   exactly the documented handle contract: an edit invalidates every
   outstanding handle except the forwarded root it returns.

   The apply/negate/condition caches are snapshotted, cleared for the
   duration of the rebuild (their entries reference old ids), and then
   reinserted with keys and values passed through [fwd] — a cached
   result is the canonical node of a function, and [fwd] maps old
   canonical ids to new canonical ids of the same functions, so entries
   whose nodes survive the collection are corrected, and only entries
   referencing dropped nodes are discarded. *)

let subtree_span vt u = (2 * Vtree.num_vars_below vt u) - 1

let dynamic_edit m move root =
  Obs.span "sdd.edit" @@ fun () ->
  (* The edit is transactional under a budget.  A rotation can rebuild
     affected decisions through [disjoin]/[conjoin], and on adversarial
     inputs (inversion lineage) that rebuild blows up — so it must stay
     pollable, yet a trip mid-rebuild would leave the tables
     half-migrated.  Resolution: snapshot the pre-edit state (arena
     cells up to [count], element buffer up to [elems_len], lit_tbl,
     and the caches already saved below for forwarding), run the
     rebuild with the budget live, and on [Budget.Exhausted] roll the
     manager back to the snapshot before re-raising.  Callers always
     observe either the completed edit or the untouched pre-edit
     manager.  Unbudgeted edits skip the snapshot entirely. *)
  Budget.check m.budget;
  let old_vt = m.vt in
  (* Validates the move (raises Invalid_argument before any mutation). *)
  let new_vt = Vtree.apply_move old_vt move in
  let nn = Vtree.num_nodes old_vt in
  let map = Array.init nn Fun.id in
  let affected = Array.make nn false in
  let shift u by =
    let lo = u and len = subtree_span old_vt u in
    for i = lo to lo + len - 1 do
      map.(i) <- i + by
    done
  in
  (match move with
  | Vtree.Swap v ->
    affected.(v) <- true;
    let a = Vtree.left old_vt v and b = Vtree.right old_vt v in
    let sa = subtree_span old_vt a and sb = subtree_span old_vt b in
    shift a sb;
    shift b (-sa)
  | Vtree.Rotate_right v ->
    (* ((a b) c) -> (a (b c)): only the a-block moves (one slot left,
       into the place of the dissolved child); b and c keep their ids. *)
    let w = Vtree.left old_vt v in
    affected.(v) <- true;
    affected.(w) <- true;
    map.(w) <- -1;
    shift (Vtree.left old_vt w) (-1)
  | Vtree.Rotate_left v ->
    (* (a (b c)) -> ((a b) c): the a-block moves one slot right, under
       the fresh internal node; b and c keep their ids. *)
    let w = Vtree.right old_vt v in
    affected.(v) <- true;
    affected.(w) <- true;
    map.(w) <- -1;
    shift (Vtree.left old_vt v) 1);
  let old_count = Atomic.get m.count in
  let old_elems_len = m.elems_len in
  let saved = save_caches m in
  (* Rollback snapshot, taken only when the budget can trip: the arena
     prefix (the rebuild rewrites literal leaves and unaffected
     decisions in place) and lit_tbl.  The caches are already saved
     above, and the unique table is reconstructible from the restored
     cells — tombstoning keeps it in bijection with live decisions. *)
  let snapshot =
    if m.budget.Budget.active then begin
      let st = Atomic.get m.store in
      Some
        ( Bytes.sub st.kind 0 old_count,
          Array.sub st.vnode 0 old_count,
          Array.sub st.aux 0 old_count,
          Array.sub st.off 0 old_count,
          Array.sub st.elems 0 old_elems_len,
          Array.copy m.lit_tbl,
          m.dead_nodes,
          m.dead_elems )
    end
    else None
  in
  let rollback (s_kind, s_vnode, s_aux, s_off, s_elems, s_lit, s_dn, s_de) =
    m.vt <- old_vt;
    let st = Atomic.get m.store in
    Bytes.blit s_kind 0 st.kind 0 old_count;
    Array.blit s_vnode 0 st.vnode 0 old_count;
    Array.blit s_aux 0 st.aux 0 old_count;
    Array.blit s_off 0 st.off 0 old_count;
    Array.blit s_elems 0 st.elems 0 old_elems_len;
    Atomic.set m.count old_count;
    m.elems_len <- old_elems_len;
    m.dead_nodes <- s_dn;
    m.dead_elems <- s_de;
    Array.blit s_lit 0 m.lit_tbl 0 (Array.length s_lit);
    reset_caches m;
    reinsert_caches m ~node:Fun.id ~leaf:Fun.id saved;
    rebuild_unique m;
    if !Obs.enabled_ref then Obs.incr "sdd.edit.rolled_back"
  in
  let on_trip handler f =
    try f () with Budget.Exhausted _ as e -> handler (); raise e
  in
  on_trip (fun () -> Option.iter rollback snapshot) @@ fun () ->
  reset_caches m;
  unique_reset m.unique;
  Array.fill m.lit_tbl 0 (Array.length m.lit_tbl) (-1);
  m.vt <- new_vt;
  seed_neg m;
  let fwd = Array.init old_count Fun.id in
  let live = Array.make old_count false in
  live.(0) <- true;
  live.(1) <- true;
  (* Literals first: they depend on nothing, and refilling lit_tbl up
     front keeps [literal] (hence [negate]) from allocating duplicate
     literal nodes during the decision rebuilds below.  All literals are
     kept live regardless of reachability — there are at most two per
     variable and lit_tbl must stay consistent. *)
  let st0 = Atomic.get m.store in
  for id = 2 to old_count - 1 do
    if Bytes.unsafe_get st0.kind id = k_lit then begin
      let leaf' = map.(st0.vnode.(id)) in
      st0.vnode.(id) <- leaf';
      m.lit_tbl.((2 * leaf') + st0.aux.(id)) <- id;
      live.(id) <- true
    end
  done;
  (* Decisions reachable from the root, in dependency order (elements
     recursively before the decision referencing them). *)
  let rebuilt = ref 0 in
  let rec process id =
    if id >= 2 && id < old_count && not live.(id) then begin
      live.(id) <- true;
      let st = Atomic.get m.store in
      if Bytes.unsafe_get st.kind id = k_dec then begin
        let u = st.vnode.(id) in
        let pairs = elements_list st id in
        List.iter
          (fun (p, s) ->
            process p;
            process s)
          pairs;
        if affected.(u) then begin
          incr rebuilt;
          fwd.(id) <-
            List.fold_left
              (fun acc (p, s) -> disjoin m acc (conjoin m fwd.(p) fwd.(s)))
              0 pairs
        end
        else begin
          (* Rewrite the cells in place (the rebuilds above may have
             grown the store, so refetch the snapshot), then claim them;
             if an equal node exists, [id] forwards to it and is
             tombstoned below. *)
          let st = Atomic.get m.store in
          st.vnode.(id) <- map.(u);
          let base = st.off.(id) in
          List.iteri
            (fun i (p, s) ->
              st.elems.(base + (2 * i)) <- p;
              st.elems.(base + (2 * i) + 1) <- s)
            (List.sort
               (fun (p1, _) (p2, _) -> Int.compare p1 p2)
               (List.map (fun (p, s) -> (fwd.(p), fwd.(s))) pairs));
          let tbl = m.unique in
          let i = slot_of tbl.slots st id in
          if tbl.slots.(i) >= 0 then fwd.(id) <- tbl.slots.(i)
          else unique_add tbl st i id
        end
      end
    end
  in
  process root;
  (* Tombstone every node that forwarded away or fell unreachable: its
     data still describes the old vtree, and a later edit must not
     mistake it for a live decision (it could steal a unique-table claim
     from the live node of the same function).  Dead ids are never
     referenced again — every surviving handle and cache entry goes
     through [fwd], and entries touching dead nodes are dropped. *)
  let tombstoned = ref 0 in
  let stf = Atomic.get m.store in
  for id = 2 to old_count - 1 do
    if (not live.(id)) || fwd.(id) <> id then begin
      let kch = Bytes.unsafe_get stf.kind id in
      if kch <> k_tomb then begin
        if kch = k_dec then m.dead_elems <- m.dead_elems + stf.aux.(id);
        Bytes.unsafe_set stf.kind id k_tomb;
        m.dead_nodes <- m.dead_nodes + 1;
        incr tombstoned
      end
    end
  done;
  (* Reinsert the cache entries whose nodes survived, under forwarded
     keys; entries referencing collected nodes are dropped. *)
  reinsert_caches m
    ~node:(fun a -> if live.(a) then fwd.(a) else -1)
    ~leaf:(Array.get map) saved;
  if !Obs.enabled_ref then begin
    Obs.incr
      (match move with
      | Vtree.Swap _ -> "sdd.edit.swap"
      | Vtree.Rotate_left _ -> "sdd.edit.rotate_left"
      | Vtree.Rotate_right _ -> "sdd.edit.rotate_right");
    Obs.incr ~by:!rebuilt "sdd.edit.rebuilt_decisions";
    Obs.incr ~by:!tombstoned "sdd.edit.tombstoned";
    Obs.hist_record "sdd.edit.tombstoned_per_edit" !tombstoned;
    probe_occupancy m
  end;
  (* Opt-in generational compaction rides the same transaction: a
     budget trip inside [compact] (which only raises before mutating)
     rolls the whole edit back. *)
  maybe_compact m fwd.(root)

let apply_move = dynamic_edit
let swap m v root = dynamic_edit m (Vtree.Swap v) root
let rotate_left m v root = dynamic_edit m (Vtree.Rotate_left v) root
let rotate_right m v root = dynamic_edit m (Vtree.Rotate_right v) root
(* ------------------------------------------------------------------ *)
(* Structure and views                                                 *)
(* ------------------------------------------------------------------ *)

let decision m v elems =
  if Vtree.is_leaf m.vt v then invalid_arg "Sdd.decision: leaf vtree node";
  mk_decision m v elems

(* Cross-manager transfer: rebuild [root]'s function inside [dst],
   mapping vtree nodes through [map].  As long as the mapped fragment of
   [dst]'s vtree has the same shape and variables as [src]'s (the
   contract [Vtree.of_forest] offsets satisfy), every source decision is
   a valid partition at the mapped node, so the rebuild goes through
   [mk_decision] — re-canonicalized in [dst]'s unique table — in one
   memoized O(size) pass.  This is how per-component SDDs compiled in
   independent managers are conjoined under a composed vtree.  No
   compaction fires inside the import: the memo maps source ids to
   [dst] ids and a relocation would dangle its values. *)
let import ~dst ~map src root =
  let memo = Int_tbl.create 256 in
  let rec go a =
    match Int_tbl.find_opt memo a with
    | Some b -> b
    | None ->
      let st = Atomic.get src.store in
      let k = Bytes.unsafe_get st.kind a in
      let b =
        if k = k_const then st.aux.(a)
        else if k = k_lit then
          literal_at dst
            (Vtree.leaf_of_var dst.vt (Vtree.var_of_leaf src.vt st.vnode.(a)))
            st.aux.(a)
        else begin
          let elems' =
            List.map
              (fun (p, s) ->
                let p' = go p in
                (p', go s))
              (elements_list st a)
          in
          mk_decision dst (map st.vnode.(a)) elems'
        end
      in
      Int_tbl.add memo a b;
      b
  in
  go root

type view =
  | False
  | True
  | Literal of string * bool
  | Decision of Vtree.node * (t * t) list

let view m a =
  let st = Atomic.get m.store in
  let k = Bytes.unsafe_get st.kind a in
  if k = k_const then (if st.aux.(a) = 1 then True else False)
  else if k = k_lit then
    Literal (Vtree.var_of_leaf m.vt st.vnode.(a), st.aux.(a) = 1)
  else Decision (st.vnode.(a), elements_list st a)

(* The non-constant nodes reachable from [root], each after every node
   its elements name.  Ascending ids are not that order once the
   manager has been edited (see [dynamic_edit]), and E20-scale chains
   overflow the OCaml stack, so this is an iterative depth-first
   search: an expanded node stays on the stack as its complement and is
   emitted once everything pushed above it is done. *)
let post_order m st root =
  let seen = Bytes.make (Atomic.get m.count) '\000' in
  let push buf len x =
    if !len >= Array.length !buf then begin
      let b = Array.make (2 * !len) 0 in
      Array.blit !buf 0 b 0 !len;
      buf := b
    end;
    !buf.(!len) <- x;
    incr len
  in
  let stack = ref (Array.make 64 0) and sp = ref 0 in
  let out = ref (Array.make 64 0) and len = ref 0 in
  if root >= 2 then push stack sp root;
  while !sp > 0 do
    let x = !stack.(!sp - 1) in
    if x < 0 then begin
      decr sp;
      push out len (lnot x)
    end
    else if Bytes.unsafe_get seen x <> '\000' then decr sp
    else begin
      Bytes.unsafe_set seen x '\001';
      !stack.(!sp - 1) <- lnot x;
      if Bytes.unsafe_get st.kind x = k_dec then begin
        let base = st.off.(x) in
        for i = (2 * st.aux.(x)) - 1 downto 0 do
          let y = st.elems.(base + i) in
          if y >= 2 && Bytes.unsafe_get seen y = '\000' then push stack sp y
        done
      end
    end
  done;
  Array.sub !out 0 !len

(* Each reachable decision with its vtree node and element list. *)
let reachable_decisions m a =
  let st = Atomic.get m.store in
  Array.fold_left
    (fun acc x ->
      if Bytes.unsafe_get st.kind x = k_dec then
        (x, st.vnode.(x), elements_list st x) :: acc
      else acc)
    [] (post_order m st a)

(* Σ [f k] over the reachable decisions, [k] their element counts. *)
let sum_decisions m a f =
  let st = Atomic.get m.store in
  Array.fold_left
    (fun acc x ->
      if Bytes.unsafe_get st.kind x = k_dec then acc + f st.aux.(x) else acc)
    0 (post_order m st a)

let size m a = sum_decisions m a Fun.id
let node_count m a = sum_decisions m a (fun _ -> 1)

let width_profile m a =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (_, v, elems) ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt tbl v) in
      Hashtbl.replace tbl v (cur + List.length elems))
    (reachable_decisions m a);
  List.sort compare (Hashtbl.fold (fun v c acc -> (v, c) :: acc) tbl [])

let width m a =
  List.fold_left (fun acc (_, c) -> Stdlib.max acc c) 0 (width_profile m a)

let validate m a =
  let check_one (_, v, elems) =
    if Vtree.is_leaf m.vt v then Error "decision normalized to a leaf"
    else begin
      let lv = Vtree.left m.vt v and rv = Vtree.right m.vt v in
      let inside side x =
        match vtree_node m x with
        | None -> true
        | Some u -> Vtree.is_ancestor m.vt side u
      in
      let structured =
        List.for_all (fun (p, s) -> inside lv p && inside rv s) elems
      in
      if not structured then Error "element not structured by the vtree node"
      else begin
        let primes = List.map fst elems in
        let subs = List.map snd elems in
        if List.length (List.sort_uniq compare subs) <> List.length subs then
          Error "not compressed: duplicate subs"
        else if List.exists (fun p -> p = 0) primes then
          Error "false prime"
        else if disjoin_list m primes <> 1 then Error "primes not exhaustive"
        else begin
          let rec pairwise = function
            | [] -> Ok ()
            | p :: rest ->
              if List.exists (fun q -> conjoin m p q <> 0) rest then
                Error "primes not pairwise disjoint"
              else pairwise rest
          in
          pairwise primes
        end
      end
    end
  in
  List.fold_left
    (fun acc d -> Result.bind acc (fun () -> check_one d))
    (Ok ()) (reachable_decisions m a)
(* ------------------------------------------------------------------ *)
(* Counting                                                            *)
(* ------------------------------------------------------------------ *)

(* The three counters below are one bottom-up pass in three semirings.
   A node's value is relative to its own vtree node [u]: its weighted
   models over the variables below [u].  An element's prime and sub are
   read at the two children of the decision's vtree node; a node
   normalized lower down is lifted across the vtree gap by [lift], which
   accounts for the gap's variables the way [top] does for ⊤. *)
type 'a semiring = {
  zero : 'a;
  add : 'a -> 'a -> 'a;
  mul : 'a -> 'a -> 'a;
  lit : Vtree.node -> int -> 'a;  (* literal at a leaf, by polarity *)
  top : Vtree.node -> 'a;  (* ⊤ over the variables below a vtree node *)
  lift : Vtree.node -> Vtree.node -> 'a -> 'a;  (* from [u] up to [w] *)
}

(* Calls [f] once per vtree leaf whose literal is reachable.  These are
   the only variables a weight function is asked about: a pinned vtree
   may carry variables the weight function rejects, and those sit in
   vtree gaps, where their factor cancels. *)
let iter_literal_leaves m st order f =
  let seen = Bytes.make (Vtree.num_nodes m.vt) '\000' in
  Array.iter
    (fun id ->
      let leaf = st.vnode.(id) in
      if
        Bytes.unsafe_get st.kind id = k_lit
        && Bytes.unsafe_get seen leaf = '\000'
      then begin
        Bytes.unsafe_set seen leaf '\001';
        f leaf
      end)
    order

(* The one counting pass: over [order] (from [post_order]), memoized in
   an array indexed by node id, reading the arena columns directly.
   Elements with a ⊥ prime or sub contribute nothing and are skipped.
   Returns [root]'s value at the vtree root. *)
let count_pass m st order root r =
  let vt = m.vt in
  let memo = Array.make (Atomic.get m.count) r.zero in
  let at x w =
    if x = 0 then r.zero
    else if x = 1 then r.top w
    else r.lift st.vnode.(x) w memo.(x)
  in
  Array.iter
    (fun id ->
      let v = st.vnode.(id) in
      memo.(id) <-
        (if Bytes.unsafe_get st.kind id = k_lit then r.lit v st.aux.(id)
         else begin
           let lv = Vtree.left vt v and rv = Vtree.right vt v in
           let base = st.off.(id) in
           let acc = ref r.zero in
           for i = 0 to st.aux.(id) - 1 do
             let p = st.elems.(base + (2 * i))
             and s = st.elems.(base + (2 * i) + 1) in
             if p <> 0 && s <> 0 then
               acc := r.add !acc (r.mul (at p lv) (at s rv))
           done;
           !acc
         end))
    order;
  at root (Vtree.root vt)

(* Weights (1, 1): ⊤ below [w] has 2^|vars(w)| models, and a gap of g
   variables doubles g times. *)
let model_count m a =
  let st = Atomic.get m.store in
  let nv = Vtree.num_vars_below m.vt in
  count_pass m st (post_order m st a) a
    {
      zero = Bigint.zero;
      add = Bigint.add;
      mul = Bigint.mul;
      lit = (fun _ _ -> Bigint.one);
      top = (fun w -> Bigint.pow2 (nv w));
      lift = (fun u w x -> if u = w then x else Bigint.shift_left x (nv w - nv u));
    }

(* The weights of the two polarities sum to 1, so ⊤ and vtree gaps
   contribute factor 1. *)
let probability m a weight =
  let st = Atomic.get m.store in
  let order = post_order m st a in
  let w = Array.make (Vtree.num_nodes m.vt) 0.0 in
  iter_literal_leaves m st order (fun leaf ->
      w.(leaf) <- weight (Vtree.var_of_leaf m.vt leaf));
  count_pass m st order a
    {
      zero = 0.0;
      add = ( +. );
      mul = ( *. );
      lit = (fun leaf pol -> if pol = 1 then w.(leaf) else 1.0 -. w.(leaf));
      top = (fun _ -> 1.0);
      lift = (fun _ _ x -> x);
    }

(* Exact probability in integers.  A variable with weight num/den gets
   the integer weights num and den − num; a vtree node [v] gets D(v),
   the product of the denominators below it, so a node's value is its
   probability times D of its vtree node, and a gap from [u] up to [w]
   multiplies by D(w)/D(u).  Per-variable denominators, not a common
   lcm, keep D small when they are many and coprime.  Variables without
   a reachable literal get denominator 1 (their factor cancels).  The
   one gcd is the final [Ratio.make]. *)
let probability_ratio m a weight =
  let st = Atomic.get m.store in
  let vt = m.vt in
  let order = post_order m st a in
  let nn = Vtree.num_nodes vt in
  let pos = Array.make nn Bigint.zero and neg = Array.make nn Bigint.zero in
  let d = Array.make nn Bigint.one in
  iter_literal_leaves m st order (fun leaf ->
      let w = weight (Vtree.var_of_leaf vt leaf) in
      pos.(leaf) <- Ratio.num w;
      neg.(leaf) <- Bigint.sub (Ratio.den w) (Ratio.num w);
      d.(leaf) <- Ratio.den w);
  (* Vtree ids are pre-order: children after their parent. *)
  for v = nn - 1 downto 0 do
    if not (Vtree.is_leaf vt v) then
      d.(v) <- Bigint.mul d.(Vtree.left vt v) d.(Vtree.right vt v)
  done;
  (* Gap factors D(w)/D(u): the product of D(sibling) along the path
     from [u] up to [w], memoized per (u, w) pair. *)
  let gaps = Array.make nn [] in
  let rec factor u w =
    if u = w then Bigint.one
    else begin
      match List.assq_opt w gaps.(u) with
      | Some f -> f
      | None ->
        let p = Option.get (Vtree.parent vt u) in
        let sib = if Vtree.left vt p = u then Vtree.right vt p else Vtree.left vt p in
        let f = Bigint.mul d.(sib) (factor p w) in
        gaps.(u) <- (w, f) :: gaps.(u);
        f
    end
  in
  let lift u w x = if u = w then x else Bigint.mul x (factor u w) in
  Ratio.make
    (count_pass m st order a
       {
         zero = Bigint.zero;
         add = Bigint.add;
         mul = Bigint.mul;
         lit = (fun leaf pol -> if pol = 1 then pos.(leaf) else neg.(leaf));
         top = (fun w -> d.(w));
         lift;
       })
    d.(Vtree.root vt)

let any_model m a =
  if a = 0 then None
  else begin
    let st = Atomic.get m.store in
    let bindings = ref [] in
    let rec go a =
      let k = Bytes.unsafe_get st.kind a in
      if k = k_const then assert (st.aux.(a) = 1)
      else if k = k_lit then
        bindings :=
          (Vtree.var_of_leaf m.vt st.vnode.(a), st.aux.(a) = 1) :: !bindings
      else begin
        (* Canonicity: a node other than ⊥ is satisfiable, so some element
           has a satisfiable (non-⊥) sub; its prime is non-⊥ by
           construction. *)
        let p, s =
          match List.find_opt (fun (_, s) -> s <> 0) (elements_list st a) with
          | Some e -> e
          | None -> assert false
        in
        go p;
        go s
      end
    in
    go a;
    let partial = !bindings in
    let all = Vtree.variables m.vt in
    Some
      (List.map
         (fun v ->
           match List.assoc_opt v partial with
           | Some b -> (v, b)
           | None -> (v, false))
         all)
  end

(* ------------------------------------------------------------------ *)
(* Compilation and export                                              *)
(* ------------------------------------------------------------------ *)

let compile_circuit m c =
  Obs.span "sdd.compile_circuit" @@ fun () ->
  (* Up-front check so a pre-cancelled or already-expired budget trips
     deterministically even on circuits too small to hit a poll. *)
  Budget.check m.budget;
  let n = Circuit.size c in
  let res = Array.make n 0 in
  for i = 0 to n - 1 do
    res.(i) <-
      (match Circuit.gate c i with
      | Circuit.Var v -> literal m v true
      | Circuit.Const b -> if b then 1 else 0
      | Circuit.Not j -> negate m res.(j)
      | Circuit.And js -> conjoin_list m (List.map (Array.get res) js)
      | Circuit.Or js -> disjoin_list m (List.map (Array.get res) js));
    (* Per-gate compaction checkpoint (opt-in via [compact_every]): the
       live roots are exactly the gate results computed so far. *)
    if compact_due m then begin
      let roots = compact_roots m (Array.sub res 0 (i + 1)) in
      Array.blit roots 0 res 0 (i + 1)
    end
  done;
  if !Obs.enabled_ref then probe_occupancy m;
  res.(Circuit.output c)

(* ------------------------------------------------------------------ *)
(* OBDD specialization                                                 *)
(* ------------------------------------------------------------------ *)

(* An OBDD manager is an ordinary manager over a right-linear vtree: [apply] already runs the ITE recursion there, so what this
   module adds is the OBDD view of the nodes — per-level census, width
   and size — and sifting by vtree edits. *)
module Obdd = struct
  let manager ?budget ?compact_every order =
    manager ?budget ?compact_every (Vtree.right_linear order)

  let order m = Vtree.leaf_order m.vt

  let check m name =
    if not (Vtree.is_right_linear m.vt) then
      invalid_arg
        (name ^ ": needs a canonical manager over a right-linear vtree")

  (* OBDD node census per level: the root plus the hi/lo closure, one
     node per decision (a literal in node position is the one-decision
     OBDD of that variable, so it counts too).  Primes are encoding, not
     nodes. *)
  let level_profile m a =
    check m "Sdd.Obdd.level_profile";
    let st = Atomic.get m.store in
    let vars = Array.of_list (Vtree.leaf_order m.vt) in
    let counts = Array.make (Array.length vars) 0 in
    let seen = Hashtbl.create 64 in
    let stack = ref [ a ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | x :: rest ->
        stack := rest;
        if
          (not (Hashtbl.mem seen x))
          && Bytes.unsafe_get st.kind x <> k_const
        then begin
          Hashtbl.add seen x ();
          let lvl = level_of st x in
          counts.(lvl) <- counts.(lvl) + 1;
          if Bytes.unsafe_get st.kind x = k_dec then begin
            let hi, lo = cofactors st x lvl lvl in
            stack := hi :: lo :: !stack
          end
        end
    done;
    Array.to_list (Array.mapi (fun i c -> (vars.(i), c)) counts)

  let width m a =
    List.fold_left (fun acc (_, c) -> Stdlib.max acc c) 0 (level_profile m a)

  let size m a = List.fold_left (fun acc (_, c) -> acc + c) 0 (level_profile m a)

  (* Exchange the variables at positions [i] and [i + 1] in place.  The
     spine node deciding position [i] has pre-order id [2i]: rotating it
     left gathers both leaves under its new left child [2i + 1], a swap
     there exchanges them, and rotating right restores the spine.  The
     last pair already shares one internal node, so one swap does it.
     Self-inverse. *)
  let transpose m n i root =
    let v = 2 * i in
    if i = n - 2 then swap m v root
    else rotate_right m v (swap m (v + 1) (rotate_left m v root))

  (* First-improvement hill climbing over adjacent transpositions:
     restart from the top after every strict improvement, undo a
     rejected candidate by transposing back. *)
  let sift m root =
    check m "Sdd.Obdd.sift";
    let n = List.length (order m) in
    let rec climb root current i =
      if i >= n - 1 then root
      else begin
        let cand = transpose m n i root in
        let s = size m cand in
        if s < current then climb cand s 0
        else climb (transpose m n i cand) current (i + 1)
      end
    in
    climb root (size m root) 0
end

let of_boolfun_naive m f =
  let terms =
    List.map
      (fun asg ->
        conjoin_list m
          (List.map (fun (v, b) -> literal m v b) (Boolfun.Smap.bindings asg)))
      (Boolfun.models f)
  in
  disjoin_list m terms

let eval m a asg =
  (* Memoized per call so that shared subnodes are evaluated once: total
     work is linear in the number of reachable elements. *)
  let st = Atomic.get m.store in
  let memo = Hashtbl.create 64 in
  let rec go a =
    match Hashtbl.find_opt memo a with
    | Some r -> r
    | None ->
      let r =
        let k = Bytes.unsafe_get st.kind a in
        if k = k_const then st.aux.(a) = 1
        else if k = k_lit then
          Boolfun.Smap.find (Vtree.var_of_leaf m.vt st.vnode.(a)) asg
          = (st.aux.(a) = 1)
        else begin
          let rec find = function
            | [] -> assert false (* exhaustive *)
            | (p, s) :: rest -> if go p then go s else find rest
          in
          find (elements_list st a)
        end
      in
      Hashtbl.add memo a r;
      r
  in
  go a

let to_boolfun m a =
  let st = Atomic.get m.store in
  let vars = Vtree.variables m.vt in
  (* Bit position of each leaf's variable in the sorted variable order:
     literals evaluate with two shifts instead of a map lookup, and the
     tabulation loop allocates no assignments. *)
  let pos_of_leaf = Array.make (Vtree.num_nodes m.vt) (-1) in
  List.iteri (fun j v -> pos_of_leaf.(Vtree.leaf_of_var m.vt v) <- j) vars;
  let memo = Int_tbl.create 64 in
  Boolfun.of_fun_index vars (fun i ->
      Int_tbl.reset memo;
      let rec go a =
        let k = Bytes.unsafe_get st.kind a in
        if k = k_const then st.aux.(a) = 1
        else if k = k_lit then
          (i lsr pos_of_leaf.(st.vnode.(a))) land 1 = st.aux.(a)
        else begin
          match Int_tbl.find memo a with
          | r -> r
          | exception Not_found ->
            let rec find = function
              | [] -> assert false (* exhaustive *)
              | (p, s) :: rest -> if go p then go s else find rest
            in
            let r = find (elements_list st a) in
            Int_tbl.add memo a r;
            r
        end
      in
      go a)

let to_nnf_circuit m a =
  let st = Atomic.get m.store in
  let b = Circuit.Builder.create () in
  let memo = Hashtbl.create 64 in
  let rec go a =
    match Hashtbl.find_opt memo a with
    | Some r -> r
    | None ->
      let r =
        let k = Bytes.unsafe_get st.kind a in
        if k = k_const then Circuit.Builder.const b (st.aux.(a) = 1)
        else if k = k_lit then begin
          let v = Vtree.var_of_leaf m.vt st.vnode.(a) in
          if st.aux.(a) = 1 then Circuit.Builder.var b v
          else Circuit.Builder.not_ b (Circuit.Builder.var b v)
        end
        else
          Circuit.Builder.or_ b
            (List.map
               (fun (p, s) -> Circuit.Builder.and_ b [ go p; go s ])
               (elements_list st a))
      in
      Hashtbl.add memo a r;
      r
  in
  Circuit.Builder.build b (go a)

let pp m ppf a =
  let rec go ppf a =
    let st = Atomic.get m.store in
    let k = Bytes.unsafe_get st.kind a in
    if k = k_const then
      Format.pp_print_string ppf (if st.aux.(a) = 1 then "T" else "F")
    else if k = k_lit then begin
      let v = Vtree.var_of_leaf m.vt st.vnode.(a) in
      if st.aux.(a) = 1 then Format.pp_print_string ppf v
      else Format.fprintf ppf "~%s" v
    end
    else begin
      Format.fprintf ppf "@[<hov 1>[@%d" st.vnode.(a);
      List.iter
        (fun (p, s) -> Format.fprintf ppf " (%a,%a)" go p go s)
        (elements_list st a);
      Format.fprintf ppf "]@]"
    end
  in
  go ppf a
