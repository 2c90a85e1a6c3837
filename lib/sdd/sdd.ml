(* Canonical SDDs: hash-consed, compressed, trimmed.

   Node storage is an arena.  Instead of one boxed [node_data] record
   per node, the manager keeps a struct-of-arrays store — a kind byte, a
   vtree-node word and an auxiliary word per node, plus an offset into a
   shared flat element buffer holding the prime/sub pairs of every
   decision back to back.  A node costs ~3 words + 2 words per element,
   with no per-node heap object, no tuple boxing and no GC scanning of
   the payload (every array is immediate ints).

   An apply miss allocates nothing on the OCaml heap: the arena cells
   and the cache slot it claims live in flat arrays that only double
   now and then ([Cache_tbl]).  Its element views, the prime/sub
   product, the compression groups and the sort by prime live on one
   growable [int] scratch stack per manager ([reserve]): each recursive
   call claims a frame on top and pops it on return, and a decision is
   copied into the element buffer only to be interned.  A budget trip
   unwinds with frames still claimed; the public entry points pop back
   to where they found the stack.

   A manager is used from one domain at a time.  The store and the node
   count are still published through [Atomic.t]s because the census of a
   dump ([census_all], run from a signal handler or a budget trip) can
   read a manager owned by a worker domain: growth copies into fresh
   arrays and republishes, and an old snapshot stays valid for every
   node it covers, because node cells are written once, before [count]
   moves past them.

   Vtree edits and compaction share one relocation pass ([rebuild]):
   it copies the nodes reachable from the caller's roots (and every
   literal) into a fresh arena in ascending id order, re-deriving by
   apply the decisions a vtree edit invalidates, and forwards the caches
   through the old-to-new id map.  The old arena, unique table, literal
   table and caches are set aside until the pass commits, so a budget
   trip (or any exception) mid-pass is undone by putting them back.
   Every allocation appends after the nodes it names, so a decision's
   elements always have smaller ids than the decision itself and
   ascending id order is a dependency order. *)

type t = int

(* [Int_tbl] is the [to_boolfun] memo; [Int_key.hash] also places subs
   in [mk_decision_at]'s group table. *)
module Int_key = struct
  type t = int

  let equal (a : int) (b : int) = a = b
  let hash (x : int) = (x * 0x9e3779b97f4a7c1) lsr 33 land 0x3fffffff
end

module Int_tbl = Hashtbl.Make (Int_key)

(* The apply/negate/condition caches.  A key is one unboxed int (node
   ids and vtree nodes packed into one word) and a value is a node id,
   so a table is two flat arrays: keys in an [int array], -1 marking a
   free slot, and values as 32-bit words in a [Bytes.t] (node ids stay
   below 2^31, see [ensure_node_capacity]), 1.5 words a slot.  Open
   addressing with linear probing from a multiplicative hash of the key;
   at most 3/4 full, doubling from 16 slots.  Nothing is ever evicted,
   so a cache answers exactly as an unbounded map would: the hit/miss
   sequence, and with it every node id, does not depend on the table.
   A lookup allocates nothing, raises nothing and compares only ints. *)
module Cache_tbl = struct
  type t = {
    mutable keys : int array;
    mutable vals : Bytes.t;
    mutable shift : int;  (* 63 - log2 (slots): the hash keeps the top bits *)
    mutable entries : int;
  }

  external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
  external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

  let initial_bits = 4

  let make bits =
    {
      keys = Array.make (1 lsl bits) (-1);
      vals = Bytes.create (4 lsl bits);
      shift = 63 - bits;
      entries = 0;
    }

  let create () = make initial_bits

  (* The slot holding [k], else the free slot where it belongs. *)
  let rec slot keys mask k i =
    let x = Array.unsafe_get keys i in
    if x = k || x < 0 then i else slot keys mask k ((i + 1) land mask)

  let[@inline] home t k = (k * 0x9e3779b97f4a7c1) lsr t.shift

  let find t k =
    let keys = t.keys in
    let i = slot keys (Array.length keys - 1) k (home t k) in
    if Array.unsafe_get keys i = k then Int32.to_int (get32 t.vals (4 * i))
    else -1

  let iter f t =
    Array.iteri
      (fun i k -> if k >= 0 then f k (Int32.to_int (get32 t.vals (4 * i))))
      t.keys

  let rec replace t k v =
    let keys = t.keys in
    let i = slot keys (Array.length keys - 1) k (home t k) in
    set32 t.vals (4 * i) (Int32.of_int v);
    if Array.unsafe_get keys i < 0 then begin
      Array.unsafe_set keys i k;
      t.entries <- t.entries + 1;
      if 4 * t.entries > 3 * Array.length keys then begin
        let t' = make (64 - t.shift) in
        iter (replace t') t;
        t.keys <- t'.keys;
        t.vals <- t'.vals;
        t.shift <- t'.shift
      end
    end

  let length t = t.entries
  let words t = Array.length t.keys + (Bytes.length t.vals / 8)
end

(* ------------------------------------------------------------------ *)
(* Arena store                                                         *)
(* ------------------------------------------------------------------ *)

(* Node kinds, one byte each in [store.kind]. *)
let k_free = '\000' (* slot past the node count *)
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

(* The arena fields are mutable so that a relocation can swap in a fresh
   arena and, on a trip, swap the old one back. *)
type manager = {
  mutable vt : Vtree.t;
  store : store Atomic.t;
  count : int Atomic.t;  (* node slots handed out *)
  mutable elems_len : int;  (* words used in [store.elems] *)
  mutable budget : Budget.t;
  (* Added to [count] wherever the node cap and the allocation telemetry
     read it: 0, except inside a relocation (see [claim_dec]). *)
  mutable gate_offset : int;
  mutable unique : unique;
  mutable lit_tbl : int array;  (* 2*leaf + polarity -> node id, -1 free *)
  mutable and_cache : Cache_tbl.t;
  mutable or_cache : Cache_tbl.t;
  mutable neg_cache : Cache_tbl.t;
  mutable cond_cache : Cache_tbl.t;
  (* The apply miss path's scratch stack (see above) and its top. *)
  mutable scratch : int array;
  mutable sp : int;
  (* Generational compaction state. *)
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

let new_store ~nodes ~elems =
  let kind = Bytes.make nodes k_free in
  let vnode = Array.make nodes (-1) in
  let aux = Array.make nodes 0 in
  let off = Array.make nodes (-1) in
  Bytes.unsafe_set kind 0 k_const;
  Bytes.unsafe_set kind 1 k_const;
  aux.(1) <- 1;
  { kind; vnode; aux; off; elems = Array.make elems 0 }

(* A manager's node state: the part a relocation replaces, and sets
   aside until it commits. *)
type arena = {
  a_vt : Vtree.t;
  a_store : store;
  a_count : int;
  a_elems_len : int;
  a_unique : unique;
  a_lit : int array;
  a_and : Cache_tbl.t;
  a_or : Cache_tbl.t;
  a_neg : Cache_tbl.t;
  a_cond : Cache_tbl.t;
}

(* An empty arena over [vt], sized for [nodes] nodes and [pairs]
   element pairs besides the constants. *)
let fresh vt ~nodes ~pairs =
  {
    a_vt = vt;
    a_store =
      new_store ~nodes:(Stdlib.max 1024 (nodes + 2))
        ~elems:(Stdlib.max 1024 (2 * pairs));
    a_count = 2;
    a_elems_len = 0;
    a_unique = { slots = Array.make unique_initial_slots (-1); entries = 0 };
    a_lit = Array.make (2 * Vtree.num_nodes vt) (-1);
    a_and = Cache_tbl.create ();
    a_or = Cache_tbl.create ();
    a_neg =
      (let t = Cache_tbl.create () in
       Cache_tbl.replace t 0 1;
       Cache_tbl.replace t 1 0;
       t);
    a_cond = Cache_tbl.create ();
  }

let manager ?(budget = Budget.unlimited) ?(compact_every = max_int) vt =
  if compact_every < 1 then
    invalid_arg "Sdd.manager: compact_every must be positive";
  (* The cache statistics read their table sizes through a weak pointer:
     a relocation replaces the tables, and the statistics must not keep
     a dead manager alive. *)
  let self = Weak.create 1 in
  let size (f : manager -> int) () =
    match Weak.get self 0 with Some m -> f m | None -> 0
  in
  let a = fresh vt ~nodes:0 ~pairs:0 in
  let m =
    {
      vt;
      store = Atomic.make a.a_store;
      count = Atomic.make a.a_count;
      elems_len = a.a_elems_len;
      budget;
      gate_offset = 0;
      unique = a.a_unique;
      lit_tbl = a.a_lit;
      and_cache = a.a_and;
      or_cache = a.a_or;
      neg_cache = a.a_neg;
      cond_cache = a.a_cond;
      scratch = Array.make 64 0;
      sp = 0;
      compactions_done = 0;
      compact_every;
      last_compact_count = 2;
      cs_unique =
        Obs.Cache.create ~size:(size (fun m -> m.unique.entries)) "sdd.unique";
      cs_and =
        Obs.Cache.create
          ~size:(size (fun m -> Cache_tbl.length m.and_cache))
          "sdd.and_cache";
      cs_or =
        Obs.Cache.create
          ~size:(size (fun m -> Cache_tbl.length m.or_cache))
          "sdd.or_cache";
      cs_neg =
        Obs.Cache.create
          ~size:(size (fun m -> Cache_tbl.length m.neg_cache))
          "sdd.neg_cache";
      cs_cond =
        Obs.Cache.create
          ~size:(size (fun m -> Cache_tbl.length m.cond_cache))
          "sdd.cond_cache";
    }
  in
  Weak.set self 0 (Some m);
  register_manager m;
  m

let vtree m = m.vt
let num_nodes_allocated m = Atomic.get m.count
let budget m = m.budget
let set_budget m b = m.budget <- b

let set_compact_every m n =
  if n < 1 then invalid_arg "Sdd.set_compact_every: must be positive";
  m.compact_every <- n

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
    (Cache_tbl.length m.and_cache + Cache_tbl.length m.or_cache)

(* ------------------------------------------------------------------ *)
(* Manager census (run-record surface)                                 *)
(* ------------------------------------------------------------------ *)

type census = {
  allocated : int;
  decisions : int;
  literals : int;
  elements : int;
  unique_entries : int;
  unique_slots : int;
  apply_entries : int;
  neg_entries : int;
  cond_entries : int;
  data_capacity : int;
  scratch_words : int;
  cache_words : int;
  approx_heap_words : int;
  bytes_per_node : int;
  compactions : int;
}

(* Exact walk over the node store; O(allocated), called at dump/export
   time only, never on a hot path.  The estimate counts the arena
   arrays themselves (per-node storage is flat: ~25/8 words of header
   across the four column arrays plus the element pairs), the literal
   table, the unique table's slots and the scratch stack; the caches
   are counted apart, exactly, in [cache_words]. *)
let census m =
  let st = Atomic.get m.store in
  let count = Stdlib.min (Atomic.get m.count) (Bytes.length st.kind) in
  let decisions = ref 0 and literals = ref 0 and elements = ref 0 in
  let cap = Bytes.length st.kind in
  let words =
    ((cap + 7) / 8) + (3 * cap) + Array.length st.elems
    + Array.length m.lit_tbl + Array.length m.unique.slots
    + Array.length m.scratch
  in
  for id = 2 to count - 1 do
    let k = Bytes.unsafe_get st.kind id in
    if k = k_dec then begin
      Stdlib.incr decisions;
      elements := !elements + st.aux.(id)
    end
    else if k = k_lit then Stdlib.incr literals
  done;
  {
    allocated = count;
    decisions = !decisions;
    literals = !literals;
    elements = !elements;
    unique_entries = m.unique.entries;
    unique_slots = Array.length m.unique.slots;
    apply_entries = Cache_tbl.length m.and_cache + Cache_tbl.length m.or_cache;
    neg_entries = Cache_tbl.length m.neg_cache;
    cond_entries = Cache_tbl.length m.cond_cache;
    data_capacity = cap;
    scratch_words = Array.length m.scratch;
    cache_words =
      Cache_tbl.words m.and_cache + Cache_tbl.words m.or_cache
      + Cache_tbl.words m.neg_cache + Cache_tbl.words m.cond_cache;
    approx_heap_words = words;
    bytes_per_node = 8 * words / Stdlib.max 1 count;
    compactions = m.compactions_done;
  }

let census_to_json c =
  Obs.Json.Obj
    [
      ("allocated", Obs.Json.Int c.allocated);
      ("decisions", Obs.Json.Int c.decisions);
      ("literals", Obs.Json.Int c.literals);
      ("elements", Obs.Json.Int c.elements);
      ("unique_entries", Obs.Json.Int c.unique_entries);
      ("unique_slots", Obs.Json.Int c.unique_slots);
      ("apply_entries", Obs.Json.Int c.apply_entries);
      ("neg_entries", Obs.Json.Int c.neg_entries);
      ("cond_entries", Obs.Json.Int c.cond_entries);
      ("data_capacity", Obs.Json.Int c.data_capacity);
      ("scratch_words", Obs.Json.Int c.scratch_words);
      ("cache_words", Obs.Json.Int c.cache_words);
      ("approx_heap_words", Obs.Json.Int c.approx_heap_words);
      ("bytes_per_node", Obs.Json.Int c.bytes_per_node);
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
      (Cache_tbl.length m.and_cache + Cache_tbl.length m.or_cache)
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
    Budget.check_nodes m.budget (Atomic.get m.count + m.gate_offset);
    Budget.poll m.budget
  end

(* Node ids stay below 2^31: apply keys pack two of them into one word
   and the caches store them in 32 bits. *)
let max_nodes = 1 lsl 31

(* Store growth.  Copies into fresh arrays and republishes the record;
   a census reading an old snapshot stays correct because every cell it
   can name was written before [count] moved past it.  Returns the store
   to write into. *)
let ensure_node_capacity m st id =
  if id < Bytes.length st.kind then st
  else begin
    if id >= max_nodes then
      invalid_arg "Sdd: more than 2^31 nodes in one manager";
    let cap = Bytes.length st.kind in
    let cap' = if 2 * cap > max_nodes then max_nodes else 2 * cap in
    let kind = Bytes.make cap' k_free in
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

(* Allocation telemetry, shared by the allocators below; [count] is the
   node count as the budget gate reads it. *)
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

(* Node writers.  Cells are fully written before [count] moves past
   them. *)
let[@inline] put_lit m leaf polarity =
  let id = Atomic.get m.count in
  let st = ensure_node_capacity m (Atomic.get m.store) id in
  Bytes.unsafe_set st.kind id k_lit;
  st.vnode.(id) <- leaf;
  st.aux.(id) <- polarity;
  st.off.(id) <- -1;
  Atomic.set m.count (id + 1);
  id

(* Commits a decision whose [k] elements are written just past the used
   end of the element buffer (see [intern]). *)
let[@inline] put_dec m v k =
  let id = Atomic.get m.count in
  let st = ensure_node_capacity m (Atomic.get m.store) id in
  let base = m.elems_len in
  Bytes.unsafe_set st.kind id k_dec;
  st.vnode.(id) <- v;
  st.aux.(id) <- k;
  st.off.(id) <- base;
  m.elems_len <- base + (2 * k);
  Atomic.set m.count (id + 1);
  id

let alloc_lit m leaf polarity =
  budget_gate m;
  let id = put_lit m leaf polarity in
  after_alloc m (id + 1 + m.gate_offset);
  id

let alloc_dec m v k =
  budget_gate m;
  let id = put_dec m v k in
  after_alloc m (id + 1 + m.gate_offset);
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

(* Find-or-claim of the decision at [v] whose [k] pairs are written just
   past the used end of the element buffer: the unique table compares
   them in place, and a miss commits them as a new node. *)
let intern m v k =
  let i = unique_slot m.unique.slots (Atomic.get m.store) v m.elems_len k in
  let id = m.unique.slots.(i) in
  if id >= 0 then (cache_hit m.cs_unique; id)
  else begin
    cache_miss m.cs_unique;
    let id = alloc_dec m v k in
    unique_add m.unique (Atomic.get m.store) i id;
    id
  end

(* ------------------------------------------------------------------ *)
(* Scratch stack                                                       *)
(* ------------------------------------------------------------------ *)

(* Claims [n] words on top of the scratch stack and returns their base;
   the claimer pops back to that base when done.  Growth replaces
   [m.scratch], so no caller holds the array across a call that can
   reserve: every write after a recursive call re-reads the field. *)
let reserve m n =
  let base = m.sp in
  let need = base + n in
  if need > Array.length m.scratch then begin
    let cap = ref (2 * Array.length m.scratch) in
    while need > !cap do cap := 2 * !cap done;
    let s = Array.make !cap 0 in
    Array.blit m.scratch 0 s 0 base;
    m.scratch <- s
  end;
  m.sp <- need;
  base

(* Pushes the element pairs of decision [a] (of store [st]) onto the
   scratch stack of [m] and returns their base. *)
let push_elems m st a =
  let n = 2 * st.aux.(a) in
  let base = reserve m n in
  Array.blit st.elems st.off.(a) m.scratch base n;
  base

let swap_pairs s a b =
  let p = s.(a) and q = s.(a + 1) in
  s.(a) <- s.(b);
  s.(a + 1) <- s.(b + 1);
  s.(b) <- p;
  s.(b + 1) <- q

(* Sifts pair [i] down the max-heap of the first [n] pairs at [off]. *)
let rec sift_down s off i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c =
      if l + 1 < n && s.(off + (2 * l) + 2) > s.(off + (2 * l)) then l + 1 else l
    in
    if s.(off + (2 * c)) > s.(off + (2 * i)) then begin
      swap_pairs s (off + (2 * i)) (off + (2 * c));
      sift_down s off c n
    end
  end

(* [sort_pairs s off k] heapsorts the [k] (prime, sub) pairs at
   [s.(off)] by prime, in place.  Most fan-outs are small, but E8's
   lower-bound families reach 65,536 elements, so the sort must not be
   quadratic.  Primes are distinct, so stability does not matter. *)
let sort_pairs s off k =
  for i = (k / 2) - 1 downto 0 do sift_down s off i k done;
  for n = k - 1 downto 1 do
    swap_pairs s off (off + (2 * n));
    sift_down s off 0 n
  done

(* ------------------------------------------------------------------ *)
(* Right-linear vtrees (OBDDs)                                         *)
(* ------------------------------------------------------------------ *)

(* An OBDD is exactly a canonical SDD over a right-linear vtree
   (Section 2.2 of the paper).  There every decision has exactly two
   elements whose primes are the two literals of one variable, so apply
   reduces to the classic Shannon/ITE recursion — cofactor both operands
   on the topmost variable, recurse twice, rebuild — with no element
   views, no prime cross products and no prime conjoins.  The helpers
   below are that recursion's view of the arena.

   Pre-order ids of a right-linear vtree: the spine internals are the
   even ids 0, 2, ..., the leaf deciding level k is 2k+1, and the last
   variable keeps the final even id — so levels are pure id arithmetic,
   no per-manager tables. *)
let[@inline] level_of st a =
  let u = st.vnode.(a) in
  if Bytes.unsafe_get st.kind a = k_dec then u / 2
  else if u land 1 = 1 then (u - 1) / 2
  else u / 2

(* The [hi] (else lo) cofactor of [a] on the variable of [lvl]; [la] is
   [a]'s own level ([> lvl] means [a] does not mention the variable). *)
let cofactor st a la lvl hi =
  if la > lvl then a
  else if Bytes.unsafe_get st.kind a = k_lit then
    if (st.aux.(a) = 1) = hi then 1 else 0
  else begin
    assert (st.aux.(a) = 2) (* canonical right-linear: exactly 2 elements *);
    let base = st.off.(a) in
    (* The positive literal's element holds the hi sub. *)
    if (st.aux.(st.elems.(base)) = 1) = hi then st.elems.(base + 1)
    else st.elems.(base + 3)
  end

(* Canonical node for ITE(x_lvl, hi, lo): trims mirror [mk_decision_at]
   ([hi = lo] merge, literal shortcuts), and the two pairs written to the
   element buffer match its sorted layout exactly, so the nodes are the
   ones the element product would build. *)
let mk_node m lvl hi lo =
  if hi = lo then hi
  else begin
    let leaf = (2 * lvl) + 1 in
    if hi = 1 && lo = 0 then literal_at m leaf 1
    else if hi = 0 && lo = 1 then literal_at m leaf 0
    else begin
      let pos = literal_at m leaf 1 and neg = literal_at m leaf 0 in
      let st = ensure_elems_capacity m (Atomic.get m.store) (m.elems_len + 4) in
      let e = m.elems_len in
      let lt = pos < neg in
      st.elems.(e) <- (if lt then pos else neg);
      st.elems.(e + 1) <- (if lt then hi else lo);
      st.elems.(e + 2) <- (if lt then neg else pos);
      st.elems.(e + 3) <- (if lt then lo else hi);
      intern m (2 * lvl) 2
    end
  end

(* ------------------------------------------------------------------ *)
(* Apply, negation, decisions                                          *)
(* ------------------------------------------------------------------ *)

(* Fan-out up to which [mk_decision_at] finds a sub's group by a scan.
   Timed on the grouping loop alone, the scan is faster up to 16
   elements, even at 24, and slower from 32 on (3x at 128); the perf
   workloads' decisions have at most 16. *)
let group_scan_limit = 24

(* The recursion below builds no list, tuple or closure on a miss: it
   works on the scratch stack, and only the public entry points after
   it restore the stack pointer on an exception. *)
let rec negate_rec m a =
  let c = Cache_tbl.find m.neg_cache a in
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
      else begin
        (* The subs negated in element order; the primes stay. *)
        let v = st.vnode.(a) and n = st.aux.(a) in
        let base = push_elems m st a in
        for i = 0 to n - 1 do
          let s = negate_rec m m.scratch.(base + (2 * i) + 1) in
          m.scratch.(base + (2 * i) + 1) <- s
        done;
        let r = mk_decision_at m v base n in
        m.sp <- base;
        r
      end
    in
    Cache_tbl.replace m.neg_cache a r;
    Cache_tbl.replace m.neg_cache r a;
    r
  end

(* Builds the node for a decision at vtree node [v] from the [n]
   elements at [base] on the scratch stack, whose primes are pairwise
   disjoint and jointly exhaustive (some primes may be ⊥): compressed,
   trimmed, sorted by prime and interned in the unique table.

   Compression drops ⊥ primes and merges the elements sharing a sub by
   disjoining their primes.  Which disjoins run, in which order, decides
   the ids of the nodes they allocate, so the order is fixed: the groups
   are made in order of their sub's first element, and disjoined last
   group first, each as [((⊥ ∨ p_last) ∨ ...) ∨ p_first] over its
   elements from last to first (a group of one is its prime). *)
and mk_decision_at m v base n =
  (* A group is a (prime, sub) pair at [g0], its prime ⊥ until the fold
     below when it has several, and its newest element at [h0]; each
     element's sub slot is overwritten by the index of the previous
     element of its group (-1 for the first).  A sub's group is found
     by scanning the groups so far, or, past [group_scan_limit]
     elements, through an open-addressed table of group indices at
     [t0] (linear probing, -1 empty), so a wide decision groups in
     linear time. *)
  let tsize =
    if n <= group_scan_limit then 0
    else begin
      let t = ref 1 in
      while !t < 2 * n do t := 2 * !t done;
      !t
    end
  in
  let g0 = reserve m ((3 * n) + tsize) in
  let h0 = g0 + (2 * n) in
  let t0 = h0 + n in
  let g = ref 0 in
  let s = m.scratch in
  if tsize > 0 then Array.fill s t0 tsize (-1);
  for i = 0 to n - 1 do
    let p = s.(base + (2 * i)) in
    if p <> 0 then begin
      let sub = s.(base + (2 * i) + 1) in
      let j = ref (!g - 1) in
      if tsize = 0 then
        while !j >= 0 && s.(g0 + (2 * !j) + 1) <> sub do decr j done
      else begin
        let k = ref (Int_key.hash sub land (tsize - 1)) in
        while s.(t0 + !k) >= 0 && s.(g0 + (2 * s.(t0 + !k)) + 1) <> sub do
          k := (!k + 1) land (tsize - 1)
        done;
        j := s.(t0 + !k);
        if !j < 0 then s.(t0 + !k) <- !g
      end;
      if !j < 0 then begin
        j := !g;
        s.(g0 + (2 * !j)) <- p;
        s.(g0 + (2 * !j) + 1) <- sub;
        s.(base + (2 * i) + 1) <- -1;
        incr g
      end
      else begin
        s.(g0 + (2 * !j)) <- 0;
        s.(base + (2 * i) + 1) <- s.(h0 + !j)
      end;
      s.(h0 + !j) <- i
    end
  done;
  let g = !g in
  for j = g - 1 downto 0 do
    if m.scratch.(g0 + (2 * j)) = 0 then begin
      let acc = ref 0 and i = ref m.scratch.(h0 + j) in
      while !i >= 0 do
        acc := disjoin_rec m !acc m.scratch.(base + (2 * !i));
        i := m.scratch.(base + (2 * !i) + 1)
      done;
      m.scratch.(g0 + (2 * j)) <- !acc
    end
  done;
  let s = m.scratch in
  let r =
    if g = 0 then 0
    else if g = 1 then begin
      assert (s.(g0) = 1);
      s.(g0 + 1)
    end
    else if g = 2 && s.(g0 + 1) = 1 && s.(g0 + 3) = 0 then s.(g0)
    else if g = 2 && s.(g0 + 1) = 0 && s.(g0 + 3) = 1 then s.(g0 + 2)
    else begin
      if !Obs.enabled_ref then Obs.hist_record "sdd.decision_fanout" g;
      sort_pairs s g0 g;
      let st = ensure_elems_capacity m (Atomic.get m.store) (m.elems_len + (2 * g)) in
      Array.blit s g0 st.elems m.elems_len (2 * g);
      intern m v g
    end
  in
  m.sp <- g0;
  r

(* Pushes the elements of [a] viewed as a decision at vtree node [v] (an
   ancestor of a's vtree node, or the node itself) and returns their
   count. *)
and push_view m v a =
  let st = Atomic.get m.store in
  if Bytes.unsafe_get st.kind a = k_dec && st.vnode.(a) = v then begin
    ignore (push_elems m st a);
    st.aux.(a)
  end
  else begin
    let u = st.vnode.(a) in
    if Vtree.in_left_subtree m.vt v u then begin
      let na = negate_rec m a in
      let base = reserve m 4 in
      let s = m.scratch in
      s.(base) <- a;
      s.(base + 1) <- 1;
      s.(base + 2) <- na;
      s.(base + 3) <- 0;
      2
    end
    else begin
      assert (Vtree.in_right_subtree m.vt v u);
      let base = reserve m 2 in
      m.scratch.(base) <- 1;
      m.scratch.(base + 1) <- a;
      1
    end
  end

(* The one apply.  The trivial cases and the caches are shared; a miss
   is computed by the ITE recursion when the manager is an OBDD (its
   vtree is right-linear — the flag lives in the immutable vtree, so an
   edit or its rollback, which swap [m.vt], can never leave it stale)
   and by the element product otherwise. *)
and apply_rec m op_and a b =
  let cache = if op_and then m.and_cache else m.or_cache in
  let neutral = if op_and then 1 else 0 in
  let absorbing = if op_and then 0 else 1 in
  if a = absorbing || b = absorbing then absorbing
  else if a = neutral then b
  else if b = neutral then a
  else if a = b then a
  else if Cache_tbl.find m.neg_cache a = b then absorbing
  else begin
    let key = if a < b then pair_key a b else pair_key b a in
    let cstat = if op_and then m.cs_and else m.cs_or in
    let cached = Cache_tbl.find cache key in
    if cached >= 0 then begin
      cache_hit cstat;
      cached
    end
    else begin
      cache_miss cstat;
      if !Obs.enabled_ref then Attribution.charge_apply_miss ();
      let st = Atomic.get m.store in
      let r =
        if Vtree.is_right_linear m.vt then begin
          let la = level_of st a and lb = level_of st b in
          let lvl = if la < lb then la else lb in
          let ah = cofactor st a la lvl true and al = cofactor st a la lvl false in
          let bh = cofactor st b lb lvl true and bl = cofactor st b lb lvl false in
          let hi = apply_rec m op_and ah bh in
          let lo = apply_rec m op_and al bl in
          mk_node m lvl hi lo
        end
        else begin
          let va = st.vnode.(a) and vb = st.vnode.(b) in
          if va = vb && Vtree.is_leaf m.vt va then begin
            (* Two distinct literals on the same variable. *)
            if op_and then 0 else 1
          end
          else
            (* Distinct nodes that are not both one leaf have an internal
               lca, and one sitting there is a decision there. *)
            product m op_and (Vtree.lca m.vt va vb) a b
        end
      in
      Cache_tbl.replace cache key r;
      r
    end
  end

(* The element product at [v]: both views, then each non-⊥ prime
   conjunction with the apply of its subs, taken in (i, j) order.  The
   recursive calls pop what they claim, so each product is pushed as it
   is made, 2 words, on top of the ones before it; the run is then
   reversed in place, so the decision reads them newest first. *)
and product m op_and v a b =
  let base = m.sp in
  let ka = push_view m v a in
  let kb = push_view m v b in
  let out = m.sp in
  for i = 0 to ka - 1 do
    for j = 0 to kb - 1 do
      let ea = base + (2 * i) and eb = base + (2 * (ka + j)) in
      let p = conjoin_rec m m.scratch.(ea) m.scratch.(eb) in
      if p <> 0 then begin
        let s = apply_rec m op_and m.scratch.(ea + 1) m.scratch.(eb + 1) in
        let o = reserve m 2 in
        m.scratch.(o) <- p;
        m.scratch.(o + 1) <- s
      end
    done
  done;
  let n = (m.sp - out) / 2 in
  for i = 0 to (n / 2) - 1 do
    swap_pairs m.scratch (out + (2 * i)) (out + (2 * (n - 1 - i)))
  done;
  if !Obs.enabled_ref then Obs.hist_record "sdd.apply_elements" n;
  let r = mk_decision_at m v out n in
  m.sp <- base;
  r

and conjoin_rec m a b = apply_rec m true a b
and disjoin_rec m a b = apply_rec m false a b

(* Public entry points.  A budget trip mid-recursion leaves frames
   claimed on the scratch stack; popping back here, not per recursion
   level, keeps it from creeping across trips. *)
let conjoin m a b =
  let sp = m.sp in
  match conjoin_rec m a b with r -> r | exception e -> m.sp <- sp; raise e

let disjoin m a b =
  let sp = m.sp in
  match disjoin_rec m a b with r -> r | exception e -> m.sp <- sp; raise e

let negate m a =
  let sp = m.sp in
  match negate_rec m a with r -> r | exception e -> m.sp <- sp; raise e

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
          let cached = Cache_tbl.find m.cond_cache key in
          if cached >= 0 then begin
            cache_hit m.cs_cond;
            cached
          end
          else begin
            cache_miss m.cs_cond;
            (* Condition the primes or the subs, whichever side holds
               [x], in element order. *)
            let side =
              if Vtree.is_ancestor m.vt (Vtree.left m.vt v) lx then 0 else 1
            in
            let n = st.aux.(a) in
            let base = push_elems m st a in
            for i = 0 to n - 1 do
              let x = go m.scratch.(base + (2 * i) + side) in
              m.scratch.(base + (2 * i) + side) <- x
            done;
            let r = mk_decision_at m v base n in
            m.sp <- base;
            Cache_tbl.replace m.cond_cache key r;
            r
          end
        end
      end
    in
    let sp = m.sp in
    (match go a with r -> r | exception e -> m.sp <- sp; raise e)
(* ------------------------------------------------------------------ *)
(* Relocation: compaction, vtree edits, import                         *)
(* ------------------------------------------------------------------ *)

(* Relocated copies are found or claimed as [literal_at] and [intern]
   find or build nodes, but outside the budget gate and the allocation
   telemetry: a copy is not new work.  Each claimed slot comes off
   [gate_offset], so during a relocation the node cap reads the arena
   the pass started from plus the nodes apply builds. *)
let claim_lit m leaf polarity =
  let slot = (2 * leaf) + polarity in
  let id = m.lit_tbl.(slot) in
  if id >= 0 then id
  else begin
    let id = put_lit m leaf polarity in
    m.lit_tbl.(slot) <- id;
    m.gate_offset <- m.gate_offset - 1;
    id
  end

let claim_dec m v k =
  let i = unique_slot m.unique.slots (Atomic.get m.store) v m.elems_len k in
  let id = m.unique.slots.(i) in
  if id >= 0 then id
  else begin
    let id = put_dec m v k in
    unique_add m.unique (Atomic.get m.store) i id;
    m.gate_offset <- m.gate_offset - 1;
    id
  end

(* Marks the nodes of [st] below [n] reachable from [roots] — and every
   literal when [all_literals] — in one descending sweep, which sees
   each decision before its elements.  Returns the marks and the number
   of marked nodes and element pairs. *)
let mark st n roots ~all_literals =
  let live = Bytes.make n '\000' in
  Array.iter (fun r -> if r >= 2 then Bytes.unsafe_set live r '\001') roots;
  let nodes = ref 0 and pairs = ref 0 in
  for id = n - 1 downto 2 do
    let kind = Bytes.unsafe_get st.kind id in
    if all_literals && kind = k_lit then Bytes.unsafe_set live id '\001';
    if Bytes.unsafe_get live id <> '\000' then begin
      incr nodes;
      if kind = k_dec then begin
        let k = st.aux.(id) and base = st.off.(id) in
        pairs := !pairs + k;
        for i = base to base + (2 * k) - 1 do
          Bytes.unsafe_set live st.elems.(i) '\001'
        done
      end
    end
  done;
  (live, !nodes, !pairs)

(* The one relocation loop.  Copies the marked nodes of [st] (below
   [n]) into [dst] in ascending id order, a dependency order, and
   returns [fwd]: the [dst] id of each copied node, -1 for the rest.
   [vnode] maps a vtree node of [st] to its place in [dst]'s vtree, or
   to -1 where a vtree edit changed how functions decompose: a decision
   there is re-derived as [∨ᵢ fwd(pᵢ) ∧ fwd(sᵢ)] by apply, which
   renormalizes it to the new vtree.  Every other decision keeps its
   partition: its elements are forwarded, re-sorted by prime if the
   forwarding reordered them, and found or claimed through [dec];
   literals go through [lit]. *)
let relocate ~dst ~lit ~dec st n live vnode =
  let fwd = Array.make n (-1) in
  fwd.(0) <- 0;
  fwd.(1) <- 1;
  let rederived = ref 0 in
  for id = 2 to n - 1 do
    if Bytes.unsafe_get live id <> '\000' then begin
      if dst.budget.Budget.active then Budget.poll dst.budget;
      let v = vnode st.vnode.(id) in
      fwd.(id) <-
        (if Bytes.unsafe_get st.kind id = k_lit then lit v st.aux.(id)
         else begin
           let k = st.aux.(id) and base = st.off.(id) in
           if v < 0 then begin
             incr rederived;
             let acc = ref 0 in
             for i = 0 to k - 1 do
               let p = fwd.(st.elems.(base + (2 * i)))
               and s = fwd.(st.elems.(base + (2 * i) + 1)) in
               acc := disjoin_rec dst !acc (conjoin_rec dst p s)
             done;
             !acc
           end
           else begin
             let e = dst.elems_len in
             let d =
               ensure_elems_capacity dst (Atomic.get dst.store) (e + (2 * k))
             in
             let sorted = ref true in
             for i = 0 to k - 1 do
               let p = fwd.(st.elems.(base + (2 * i))) in
               if i > 0 && p < d.elems.(e + (2 * i) - 2) then sorted := false;
               d.elems.(e + (2 * i)) <- p;
               d.elems.(e + (2 * i) + 1) <- fwd.(st.elems.(base + (2 * i) + 1))
             done;
             if not !sorted then sort_pairs d.elems e k;
             dec v k
           end
         end)
    end
  done;
  if !rederived > 0 && !Obs.enabled_ref then
    Obs.incr ~by:!rederived "sdd.edit.rebuilt_decisions";
  fwd

let current m =
  {
    a_vt = m.vt;
    a_store = Atomic.get m.store;
    a_count = Atomic.get m.count;
    a_elems_len = m.elems_len;
    a_unique = m.unique;
    a_lit = m.lit_tbl;
    a_and = m.and_cache;
    a_or = m.or_cache;
    a_neg = m.neg_cache;
    a_cond = m.cond_cache;
  }

let install m a =
  m.vt <- a.a_vt;
  Atomic.set m.store a.a_store;
  Atomic.set m.count a.a_count;
  m.elems_len <- a.a_elems_len;
  m.unique <- a.a_unique;
  m.lit_tbl <- a.a_lit;
  m.and_cache <- a.a_and;
  m.or_cache <- a.a_or;
  m.neg_cache <- a.a_neg;
  m.cond_cache <- a.a_cond;
  m.gate_offset <- 0

let mask31 = (1 lsl 31) - 1

(* Forwards the cache entries of the set-aside arena [a] into [m]'s
   tables through [fwd]; an entry naming a node that was not relocated
   goes.  Apply keys are re-ordered min/max under the new ids; the neg
   cache holds both directions of each pair, so each entry is mapped as
   it stands.  A vtree edit keeps the vtree's node count, so the cond
   key packing is unchanged; [leaf] maps its vtree leaf. *)
let forward_caches m a fwd leaf =
  let nn = Vtree.num_nodes m.vt in
  let forward_apply src dst =
    Cache_tbl.iter
      (fun k r ->
        let x = fwd.(k lsr 31) and y = fwd.(k land mask31) and r = fwd.(r) in
        if x >= 0 && y >= 0 && r >= 0 then
          Cache_tbl.replace dst (if x < y then pair_key x y else pair_key y x) r)
      src
  in
  forward_apply a.a_and m.and_cache;
  forward_apply a.a_or m.or_cache;
  Cache_tbl.iter
    (fun x y ->
      let x = fwd.(x) and y = fwd.(y) in
      if x >= 0 && y >= 0 then Cache_tbl.replace m.neg_cache x y)
    a.a_neg;
  Cache_tbl.iter
    (fun k r ->
      let value = k land 1 and k2 = k lsr 1 in
      let x = fwd.(k2 / nn) and r = fwd.(r) in
      if x >= 0 && r >= 0 then
        Cache_tbl.replace m.cond_cache
          ((((x * nn) + leaf (k2 mod nn)) lsl 1) lor value)
          r)
    a.a_cond

(* Rebuilds the nodes reachable from [roots], and every literal, into a
   fresh arena over [vt] (see [relocate] for [vnode]) and returns the
   forwarding map.  Until the pass commits, the old arena is only set
   aside: any exception — a budget trip in the full check up front, the
   re-derivations or the amortized poll — reinstalls it, so the caller
   sees the manager either rebuilt or exactly as before.  Meanwhile the
   node cap reads the old arena's count plus the nodes apply builds;
   after the commit, the new arena's. *)
let rebuild m vt vnode roots =
  let old = current m in
  let live, nodes, pairs =
    mark old.a_store old.a_count roots ~all_literals:true
  in
  let sp = m.sp in
  match
    install m (fresh vt ~nodes ~pairs);
    m.gate_offset <- old.a_count - 2;
    Budget.check m.budget;
    let fwd =
      relocate ~dst:m ~lit:(claim_lit m) ~dec:(claim_dec m) old.a_store
        old.a_count live vnode
    in
    forward_caches m old fwd vnode;
    fwd
  with
  | fwd ->
    m.gate_offset <- 0;
    m.last_compact_count <- Atomic.get m.count;
    fwd
  | exception e ->
    m.sp <- sp;
    install m old;
    raise e

(* Compaction: the relocation with the vtree unchanged.  Ascending ids
   map to ascending ids, so every decision's elements stay sorted by
   prime and the unique table is filled in the order a fresh compile
   would fill it.  Returns the relocated roots, positionally. *)
let compact_roots m (roots : int array) : int array =
  let t0 = Unix.gettimeofday () in
  let words st =
    let cap = Bytes.length st.kind in
    (3 * cap) + (cap / 8) + Array.length st.elems
  in
  let words_before = words (Atomic.get m.store) in
  let fwd = rebuild m m.vt Fun.id roots in
  (* Bookkeeping + telemetry: every compaction records one event with
     relocation and pause figures. *)
  let relocated = Atomic.get m.count - 2 in
  let reclaimed = Stdlib.max 0 (words_before - words (Atomic.get m.store)) in
  m.compactions_done <- m.compactions_done + 1;
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
      ("compactions", Obs.Json.Int m.compactions_done);
    ];
  Array.map (Array.get fwd) roots

let compact m root = (compact_roots m [| root |]).(0)

(* Due when the manager has allocated [compact_every] nodes since the
   last relocation. *)
let compact_due m =
  m.compact_every <> max_int
  && Atomic.get m.count - m.last_compact_count >= m.compact_every

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

   So an edit is the relocation pass with the move's id-shift map, the
   affected vtree nodes mapped to -1: the root's nodes are copied, or
   re-derived by apply, into a fresh arena over the new vtree, and a
   copy that meets an equal node apply built earlier in the pass takes
   that node.  The caches are forwarded through the relocation, so only
   entries naming nodes that did not survive are dropped. *)

let subtree_span vt u = (2 * Vtree.num_vars_below vt u) - 1

let apply_move m move root =
  Obs.span "sdd.edit" @@ fun () ->
  let old_vt = m.vt in
  (* Validates the move (raises Invalid_argument before any mutation). *)
  let new_vt = Vtree.apply_move old_vt move in
  let map = Array.init (Vtree.num_nodes old_vt) Fun.id in
  let shift u by =
    for i = u to u + subtree_span old_vt u - 1 do
      map.(i) <- i + by
    done
  in
  (match move with
  | Vtree.Swap v ->
    let a = Vtree.left old_vt v and b = Vtree.right old_vt v in
    shift a (subtree_span old_vt b);
    shift b (-subtree_span old_vt a);
    map.(v) <- -1
  | Vtree.Rotate_right v ->
    (* ((a b) c) -> (a (b c)): only the a-block moves (one slot left,
       into the place of the dissolved child); b and c keep their ids. *)
    let w = Vtree.left old_vt v in
    shift (Vtree.left old_vt w) (-1);
    map.(v) <- -1;
    map.(w) <- -1
  | Vtree.Rotate_left v ->
    (* (a (b c)) -> ((a b) c): the a-block moves one slot right, under
       the fresh internal node; b and c keep their ids. *)
    let w = Vtree.right old_vt v in
    shift (Vtree.left old_vt v) 1;
    map.(v) <- -1;
    map.(w) <- -1);
  match rebuild m new_vt (Array.get map) [| root |] with
  | fwd ->
    if !Obs.enabled_ref then begin
      Obs.incr
        (match move with
        | Vtree.Swap _ -> "sdd.edit.swap"
        | Vtree.Rotate_left _ -> "sdd.edit.rotate_left"
        | Vtree.Rotate_right _ -> "sdd.edit.rotate_right");
      probe_occupancy m
    end;
    fwd.(root)
  | exception e ->
    if !Obs.enabled_ref then Obs.incr "sdd.edit.rolled_back";
    raise e

let swap m v root = apply_move m (Vtree.Swap v) root
let rotate_left m v root = apply_move m (Vtree.Rotate_left v) root
let rotate_right m v root = apply_move m (Vtree.Rotate_right v) root

(* Cross-manager transfer: the relocation loop writing into [dst], with
   vtree nodes mapped through [map] and literals by variable.  As long
   as the mapped fragment of [dst]'s vtree has the same shape and
   variables as [src]'s (the contract [Vtree.of_forest] offsets
   satisfy), every source decision is a valid partition at the mapped
   node, so its forwarded elements are interned as they stand.  Copies
   into [dst] are new nodes there: they go through its budget gate.
   This is how per-component SDDs compiled in independent managers are
   conjoined under a composed vtree. *)
let import ~dst ~map src root =
  let st = Atomic.get src.store and n = Atomic.get src.count in
  let live, _, _ = mark st n [| root |] ~all_literals:false in
  let vnode u =
    if Vtree.is_leaf src.vt u then
      Vtree.leaf_of_var dst.vt (Vtree.var_of_leaf src.vt u)
    else map u
  in
  (relocate ~dst ~lit:(literal_at dst) ~dec:(intern dst) st n live vnode).(root)
(* ------------------------------------------------------------------ *)
(* Structure and views                                                 *)
(* ------------------------------------------------------------------ *)

let decision m v elems =
  if Vtree.is_leaf m.vt v then invalid_arg "Sdd.decision: leaf vtree node";
  let sp = m.sp in
  let n = List.length elems in
  let base = reserve m (2 * n) in
  List.iteri
    (fun i (p, s) ->
      m.scratch.(base + (2 * i)) <- p;
      m.scratch.(base + (2 * i) + 1) <- s)
    elems;
  match mk_decision_at m v base n with
  | r -> m.sp <- sp; r
  | exception e -> m.sp <- sp; raise e

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
   its elements name.  Ascending ids are such an order, but sweeping
   them costs O(allocated), and E20-scale chains overflow the OCaml
   stack, so this is an iterative depth-first search, O(reachable): an
   expanded node stays on the stack as its complement and is emitted
   once everything pushed above it is done. *)
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
            stack :=
              cofactor st x lvl lvl true :: cofactor st x lvl lvl false :: !stack
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
