(* Observability: spans, counters, gauges, histograms, GC telemetry, and
   the flight-recorder ring that stores every span completion and
   structured event.  See the interface for the cost
   model; the invariant throughout is that with the master switch off
   every aggregating instrument is a single load and branch. *)

let enabled_ref = ref false
let enabled_flag = enabled_ref
let enabled () = !enabled_flag

(* Advanced by [reset]; shared by all domains, so what a worker records
   under the current generation belongs to the run. *)
let generation_ctr = Atomic.make 0
let generation () = Atomic.get generation_ctr

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let to_string j =
    let buf = Buffer.create 256 in
    let rec go = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Int i -> Buffer.add_string buf (string_of_int i)
      | Float f ->
        if Float.is_finite f then begin
          (* %.17g round-trips every finite double; force a '.' or
             exponent so the value parses back as a float. *)
          let s = Printf.sprintf "%.17g" f in
          let floaty = String.exists (fun c -> c = '.' || c = 'e') s in
          Buffer.add_string buf (if floaty then s else s ^ ".0")
        end
        else Buffer.add_string buf "null"
      | String s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
      | List l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          l;
        Buffer.add_char buf ']'
      | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            go (String k);
            Buffer.add_char buf ':';
            go v)
          fields;
        Buffer.add_char buf '}'
    in
    go j;
    Buffer.contents buf

  exception Parse_error of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = Stdlib.incr pos in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then advance ()
      else fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      if !pos + String.length word <= n
         && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else begin
          match s.[!pos] with
          | '"' -> advance ()
          | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else begin
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'u' ->
                 advance ();
                 if !pos + 4 > n then fail "truncated \\u escape";
                 let code =
                   try int_of_string ("0x" ^ String.sub s !pos 4)
                   with _ -> fail "bad \\u escape"
                 in
                 pos := !pos + 4;
                 (* Encode the code point as UTF-8 (BMP only). *)
                 if code < 0x80 then Buffer.add_char buf (Char.chr code)
                 else if code < 0x800 then begin
                   Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                   Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                 end
                 else begin
                   Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                   Buffer.add_char buf
                     (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                   Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                 end
               | c -> fail (Printf.sprintf "bad escape %C" c)
             end);
            go ()
          | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
        end
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_float = ref false in
      if peek () = Some '-' then advance ();
      while
        !pos < n
        &&
        match s.[!pos] with
        | '0' .. '9' -> true
        | '.' | 'e' | 'E' | '+' | '-' ->
          is_float := true;
          true
        | _ -> false
      do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      if !is_float then
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number"
      else begin
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> fail "bad number"
      end
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields ((k, v) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Obj (fields [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          List (items [])
        end
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected %C" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing input";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Track ids, run IDs and the trace epoch                              *)
(* ------------------------------------------------------------------ *)

(* Every domain gets a stable track id: 0 for the main domain, fresh ids
   for spawned workers.  Ring entries carry it, and the Chrome trace
   draws one track per id. *)
let next_tid = Atomic.make 1

let tid_key : int Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      if Domain.is_main_domain () then 0 else Atomic.fetch_and_add next_tid 1)

let current_tid () = Domain.DLS.get tid_key

let run_seq = Atomic.make 0

let fresh_run_id () =
  let us = int_of_float (now () *. 1e6) in
  Printf.sprintf "r-%010x-%04x-%02x"
    (us land 0xff_ffff_ffff)
    (Unix.getpid () land 0xffff)
    (Atomic.fetch_and_add run_seq 1 land 0xff)

(* The process-wide ID, replaced by [set_run_id]; per-domain overrides
   stack on top through DLS so [with_run_id] needs no synchronization. *)
let global_run : string Atomic.t = Atomic.make (fresh_run_id ())

let run_override_key : string option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let run_id () =
  match !(Domain.DLS.get run_override_key) with
  | Some r -> r
  | None -> Atomic.get global_run

let set_run_id r = Atomic.set global_run r

let with_run_id r f =
  let slot = Domain.DLS.get run_override_key in
  let saved = !slot in
  slot := Some r;
  Fun.protect ~finally:(fun () -> slot := saved) f

(* Timestamps are recorded absolute and rebased to the epoch of the last
   [reset] on export. *)
let epoch_key : float ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref (now ()))

let epoch () = !(Domain.DLS.get epoch_key)

(* ------------------------------------------------------------------ *)
(* The flight-recorder ring                                            *)
(* ------------------------------------------------------------------ *)

module Ring = struct
  type kind = Event | Span | Budget_poll | Budget_trip | Note

  let kind_to_string = function
    | Event -> "event"
    | Span -> "span"
    | Budget_poll -> "budget_poll"
    | Budget_trip -> "budget_trip"
    | Note -> "note"

  type entry = {
    kind : kind;
    name : string;
    ts : float;
    tid : int;
    run : string;
    dur_s : float;
    args : (string * Json.t) list;
  }

  let sentinel =
    { kind = Note; name = ""; ts = 0.0; tid = 0; run = ""; dur_s = 0.0;
      args = [] }

  (* Writers from every domain share one ring: the cursor is claimed
     with fetch-and-add and each slot receives a fully built immutable
     entry, so writers never block and readers see well-formed entries. *)
  type t = { slots : entry array; cursor : int Atomic.t }

  let mk cap = { slots = Array.make cap sentinel; cursor = Atomic.make 0 }

  (* Replaced wholesale on resize and clear; a writer racing either
     lands in whichever ring it loaded. *)
  let ring = ref (mk 4096)

  let capacity () = Array.length !ring.slots

  let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

  let set_capacity n = ring := mk (pow2_at_least (Stdlib.max 16 n) 16)
  let clear () = ring := mk (capacity ())
  let recorded () = Atomic.get !ring.cursor
  let overwritten () = Stdlib.max 0 (recorded () - capacity ())

  let record ?(dur_s = 0.0) ?(args = []) kind name =
    let e =
      { kind; name; ts = now (); tid = current_tid (); run = run_id (); dur_s;
        args }
    in
    let r = !ring in
    let i = Atomic.fetch_and_add r.cursor 1 in
    r.slots.(i land (Array.length r.slots - 1)) <- e

  let tail ?max:(limit = max_int) () =
    let r = !ring in
    let cap = Array.length r.slots in
    let c = Atomic.get r.cursor in
    let n = Stdlib.min (Stdlib.min c cap) limit in
    List.init n (fun j -> r.slots.((c - n + j) land (cap - 1)))

  let entry_to_json e =
    Json.Obj
      [
        ("kind", Json.String (kind_to_string e.kind));
        ("name", Json.String e.name);
        ("ts_unix_s", Json.Float e.ts);
        ("tid", Json.Int e.tid);
        ("run", Json.String e.run);
        ("dur_s", Json.Float e.dur_s);
        ("args", Json.Obj e.args);
      ]
end

(* The attribution profiler shares the master switch: one [set_enabled]
   arms both the classic instruments and the cost-center stack.  The
   ring grows to hold a whole collected run and shrinks back to a
   crash-recorder tail when collection stops; a resize empties it. *)
let set_enabled b =
  enabled_flag := b;
  Attribution.set_enabled b;
  let cap = if b then 1 lsl 18 else 4096 in
  if Ring.capacity () <> cap then Ring.set_capacity cap

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                 *)
(* ------------------------------------------------------------------ *)

(* All metric state is domain-local: worker domains spawned by the
   parallel search record into their own tables and hand the result back
   through {!Worker.capture}/{!Worker.absorb}, so instruments never race
   on shared hash tables.  The main domain's slots hold the exported
   state. *)

let counters_key : (string, int ref) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let gauges_key : (string, int ref) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let counter_tbl () = Domain.DLS.get counters_key
let gauge_tbl () = Domain.DLS.get gauges_key

let cell tbl name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add tbl name r;
    r

let incr ?(by = 1) name =
  if !enabled_flag then begin
    let r = cell (counter_tbl ()) name in
    r := !r + by
  end

let counter_value name =
  match Hashtbl.find_opt (counter_tbl ()) name with Some r -> !r | None -> 0

let sorted_bindings tbl =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) tbl []
  |> List.sort compare

let counters () = sorted_bindings (counter_tbl ())

let gauge_set name v = if !enabled_flag then cell (gauge_tbl ()) name := v

let gauge_max name v =
  if !enabled_flag then begin
    let r = cell (gauge_tbl ()) name in
    if v > !r then r := v
  end

let gauge_value name =
  Option.map (fun r -> !r) (Hashtbl.find_opt (gauge_tbl ()) name)

let gauges () = sorted_bindings (gauge_tbl ())

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  (* Log-scale: bucket [i] counts the samples of bit length [i], i.e.
     bucket 0 holds the value 0 and bucket i >= 1 holds (2^(i-1), 2^i-1].
     63 buckets cover every non-negative OCaml int; negative samples
     clamp to 0.  Constant-size state, O(1) record, exact count/sum. *)
  let nbuckets = 63

  type t = {
    hname : string;
    hbuckets : int array;
    mutable hcount : int;
    mutable hsum : int;
    mutable hmin : int;
    mutable hmax : int;
  }

  let create name =
    {
      hname = name;
      hbuckets = Array.make nbuckets 0;
      hcount = 0;
      hsum = 0;
      hmin = max_int;
      hmax = min_int;
    }

  let name h = h.hname
  let count h = h.hcount
  let sum h = h.hsum

  let bucket_of v =
    let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
    go v 0

  let record ?(n = 1) h v =
    let v = if v < 0 then 0 else v in
    let b = bucket_of v in
    h.hbuckets.(b) <- h.hbuckets.(b) + n;
    h.hcount <- h.hcount + n;
    h.hsum <- h.hsum + (n * v);
    if v < h.hmin then h.hmin <- v;
    if v > h.hmax then h.hmax <- v

  let merge dst src =
    Array.iteri
      (fun i c -> if c > 0 then dst.hbuckets.(i) <- dst.hbuckets.(i) + c)
      src.hbuckets;
    dst.hcount <- dst.hcount + src.hcount;
    dst.hsum <- dst.hsum + src.hsum;
    if src.hmin < dst.hmin then dst.hmin <- src.hmin;
    if src.hmax > dst.hmax then dst.hmax <- src.hmax

  (* Percentile estimate: the upper bound of the bucket where the
     cumulative count first reaches p% of the samples, clamped to the
     observed [min, max] so exact extremes stay exact. *)
  let percentile h p =
    if h.hcount = 0 then 0
    else begin
      let target =
        Stdlib.max 1
          (int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.hcount)))
      in
      let rec go i cum =
        if i >= nbuckets then h.hmax
        else begin
          let cum = cum + h.hbuckets.(i) in
          if cum >= target then begin
            let ub = if i = 0 then 0 else (1 lsl Stdlib.min i 62) - 1 in
            Stdlib.min h.hmax (Stdlib.max h.hmin ub)
          end
          else go (i + 1) cum
        end
      in
      go 0 0
    end

  type snapshot = {
    hist : string;
    count : int;
    sum : int;
    min_value : int;
    max_value : int;
    p50 : int;
    p90 : int;
    p99 : int;
    buckets : (int * int) list;
  }

  let snapshot h =
    let buckets = ref [] in
    for i = nbuckets - 1 downto 0 do
      if h.hbuckets.(i) > 0 then begin
        let ub = if i = 0 then 0 else (1 lsl Stdlib.min i 62) - 1 in
        buckets := (ub, h.hbuckets.(i)) :: !buckets
      end
    done;
    {
      hist = h.hname;
      count = h.hcount;
      sum = h.hsum;
      min_value = (if h.hcount = 0 then 0 else h.hmin);
      max_value = (if h.hcount = 0 then 0 else h.hmax);
      p50 = percentile h 50.0;
      p90 = percentile h 90.0;
      p99 = percentile h 99.0;
      buckets = !buckets;
    }
end

let hists_key : (string, Histogram.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

let hist_tbl () = Domain.DLS.get hists_key

let hist_cell name =
  let tbl = hist_tbl () in
  match Hashtbl.find_opt tbl name with
  | Some h -> h
  | None ->
    let h = Histogram.create name in
    Hashtbl.add tbl name h;
    h

let hist_record ?(n = 1) name v =
  if !enabled_flag then Histogram.record ~n (hist_cell name) v

let hist_value name =
  Option.map Histogram.snapshot (Hashtbl.find_opt (hist_tbl ()) name)

let histograms () =
  Hashtbl.fold (fun _ h acc -> Histogram.snapshot h :: acc) (hist_tbl ()) []
  |> List.sort (fun a b -> compare a.Histogram.hist b.Histogram.hist)

(* ------------------------------------------------------------------ *)
(* Structured events                                                   *)
(* ------------------------------------------------------------------ *)

(* Structured events (search trajectories, pipeline decisions, budget
   trips): named, timestamped, with JSON arguments, read back from the
   ring. *)
let event name args = Ring.record Ring.Event name ~args

let is_instant (e : Ring.entry) =
  match e.Ring.kind with
  | Ring.Event | Ring.Budget_trip -> true
  | Ring.Span | Ring.Budget_poll | Ring.Note -> false

(* What the Chrome trace renders: spans, events and budget trips.  Polls
   and notes stay in the ring for dumps only. *)
let rendered () =
  List.filter (fun e -> e.Ring.kind = Ring.Span || is_instant e) (Ring.tail ())

let events () =
  List.filter is_instant (Ring.tail ())
  |> List.stable_sort (fun a b -> Float.compare a.Ring.ts b.Ring.ts)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span_node = {
  sname : string;
  mutable calls : int;
  mutable total : float;
  mutable gminor : float;
  mutable gmajor : float;
  mutable gpromoted : float;
  mutable gminor_c : int;
  mutable gmajor_c : int;
  mutable children : span_node list;  (* reverse first-entry order *)
}

let mk_span name =
  { sname = name; calls = 0; total = 0.0; gminor = 0.0; gmajor = 0.0;
    gpromoted = 0.0; gminor_c = 0; gmajor_c = 0; children = [] }

(* The root is synthetic and never exported directly. *)
type span_state = { mutable sroot : span_node; mutable sstack : span_node list }

let span_key : span_state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { sroot = mk_span "<root>"; sstack = [] })

let span_state () = Domain.DLS.get span_key

let span_depth () = List.length (span_state ()).sstack

let span name f =
  if not !enabled_flag then begin
    (* Aggregation off: no span tree, no GC probes — just time the call
       and drop one completion entry in the ring so a dump shows
       the recent phases. *)
    let t0 = now () in
    match f () with
    | r ->
      Ring.record Ring.Span name ~dur_s:(now () -. t0);
      r
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Ring.record Ring.Span name ~dur_s:(now () -. t0);
      Printexc.raise_with_backtrace e bt
  end
  else begin
    let st = span_state () in
    let parent = match st.sstack with top :: _ -> top | [] -> st.sroot in
    let node =
      match List.find_opt (fun n -> n.sname = name) parent.children with
      | Some n -> n
      | None ->
        let n = mk_span name in
        parent.children <- n :: parent.children;
        n
    in
    st.sstack <- node :: st.sstack;
    (* [Gc.quick_stat]'s [minor_words] advances only at minor
       collections; [Gc.minor_words ()] also counts the live minor heap. *)
    let g0 = Gc.quick_stat () in
    let m0 = Gc.minor_words () in
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        let m1 = Gc.minor_words () in
        let g1 = Gc.quick_stat () in
        node.calls <- node.calls + 1;
        node.total <- node.total +. (t1 -. t0);
        node.gminor <- node.gminor +. (m1 -. m0);
        node.gmajor <- node.gmajor +. (g1.Gc.major_words -. g0.Gc.major_words);
        node.gpromoted <-
          node.gpromoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
        node.gminor_c <-
          node.gminor_c + (g1.Gc.minor_collections - g0.Gc.minor_collections);
        node.gmajor_c <-
          node.gmajor_c + (g1.Gc.major_collections - g0.Gc.major_collections);
        Ring.record Ring.Span name ~dur_s:(t1 -. t0);
        match st.sstack with
        | top :: rest when top == node -> st.sstack <- rest
        | _ -> (* not reached: [reset] keeps the open spans *) ())
      f
  end

type span_tree = {
  span : string;
  calls : int;
  total_s : float;
  gc_minor_words : float;
  gc_major_words : float;
  gc_promoted_words : float;
  gc_minor_collections : int;
  gc_major_collections : int;
  children : span_tree list;
}

let rec freeze n =
  {
    span = n.sname;
    calls = n.calls;
    total_s = n.total;
    gc_minor_words = n.gminor;
    gc_major_words = n.gmajor;
    gc_promoted_words = n.gpromoted;
    gc_minor_collections = n.gminor_c;
    gc_major_collections = n.gmajor_c;
    children = List.rev_map freeze n.children;
  }

let span_roots () = (freeze (span_state ()).sroot).children

(* GC counters at the last [reset], with the exact [Gc.minor_words ()]:
   the exported "gc" section reports deltas against this baseline. *)
let gc_mark () = (Gc.quick_stat (), Gc.minor_words ())

let gc_baseline_key : (Gc.stat * float) Domain.DLS.key =
  Domain.DLS.new_key gc_mark

let reset () =
  Hashtbl.reset (counter_tbl ());
  Hashtbl.reset (gauge_tbl ());
  Hashtbl.reset (hist_tbl ());
  Atomic.incr generation_ctr;
  Ring.clear ();
  Domain.DLS.get epoch_key := now ();
  Domain.DLS.set gc_baseline_key (gc_mark ());
  (* The open spans stay on the stack, emptied, as the new tree's
     spine: a span opened next is a child of the innermost one. *)
  let st = span_state () in
  st.sroot <- mk_span "<root>";
  ignore
    (List.fold_right
       (fun (n : span_node) (parent : span_node) ->
         n.calls <- 0; n.total <- 0.0; n.gminor <- 0.0; n.gmajor <- 0.0;
         n.gpromoted <- 0.0; n.gminor_c <- 0; n.gmajor_c <- 0; n.children <- [];
         parent.children <- [ n ];
         n)
       st.sstack st.sroot);
  Attribution.fresh ()

let hard_reset () =
  reset ();
  set_run_id (fresh_run_id ())

(* ------------------------------------------------------------------ *)
(* Worker domains                                                      *)
(* ------------------------------------------------------------------ *)

module Worker = struct
  type captured = {
    wcounters : (string * int) list;
    wgauges : (string * int) list;
    whists : Histogram.t list;
    wspans : span_tree list;
    wattr : Attribution.row list;
  }

  (* Installs [fresh] in a slot; the returned thunk puts the old value
     back. *)
  let swap k fresh =
    let old = Domain.DLS.get k in
    Domain.DLS.set k fresh;
    fun () -> Domain.DLS.set k old

  (* The GC baseline is left alone: only an export reads it. *)
  let capture f =
    let saved =
      [
        swap counters_key (Hashtbl.create 64);
        swap gauges_key (Hashtbl.create 64);
        swap hists_key (Hashtbl.create 32);
        swap span_key { sroot = mk_span "<root>"; sstack = [] };
        (let a = Attribution.current_state () in
         Attribution.fresh ();
         fun () -> Attribution.install_state a);
      ]
    in
    let restore () = List.iter (fun put_back -> put_back ()) saved in
    match f () with
    | r ->
      let cap =
        {
          wcounters = counters ();
          wgauges = gauges ();
          whists =
            Hashtbl.fold (fun _ h acc -> h :: acc) (hist_tbl ()) [];
          wspans = span_roots ();
          wattr = Attribution.export ();
        }
      in
      restore ();
      (r, cap)
    | exception e ->
      restore ();
      raise e

  (* Merge a frozen worker span tree under [parent], find-or-create by
     name, summing calls, durations and GC deltas — the same
     accumulation rule [span] itself applies to repeat entries. *)
  let rec merge_tree (parent : span_node) (t : span_tree) =
    let node =
      match List.find_opt (fun n -> n.sname = t.span) parent.children with
      | Some n -> n
      | None ->
        let n = mk_span t.span in
        parent.children <- n :: parent.children;
        n
    in
    node.calls <- node.calls + t.calls;
    node.total <- node.total +. t.total_s;
    node.gminor <- node.gminor +. t.gc_minor_words;
    node.gmajor <- node.gmajor +. t.gc_major_words;
    node.gpromoted <- node.gpromoted +. t.gc_promoted_words;
    node.gminor_c <- node.gminor_c + t.gc_minor_collections;
    node.gmajor_c <- node.gmajor_c + t.gc_major_collections;
    List.iter (merge_tree node) t.children

  let absorb cap =
    List.iter
      (fun (k, v) ->
        let r = cell (counter_tbl ()) k in
        r := !r + v)
      cap.wcounters;
    List.iter
      (fun (k, v) ->
        let r = cell (gauge_tbl ()) k in
        if v > !r then r := v)
      cap.wgauges;
    List.iter
      (fun h -> Histogram.merge (hist_cell (Histogram.name h)) h)
      cap.whists;
    let st = span_state () in
    let parent = match st.sstack with top :: _ -> top | [] -> st.sroot in
    List.iter (merge_tree parent) cap.wspans;
    Attribution.absorb cap.wattr

  (* Domain-count policy.  [CTWSDD_DOMAINS] is validated strictly: a
     garbage or non-positive value is a configuration error, not a
     request for the hardware default, so it raises (and the CLI turns
     [domains_env] into a usage error before any work starts). *)
  let domains_env () =
    match Sys.getenv_opt "CTWSDD_DOMAINS" with
    | None -> Ok None
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Ok (Some n)
      | _ ->
        Error
          (Printf.sprintf
             "CTWSDD_DOMAINS: expected a positive domain count, got %S" s))

  let default_domains () =
    match domains_env () with
    | Ok (Some n) -> n
    | Ok None -> Domain.recommended_domain_count ()
    | Error msg -> invalid_arg msg

  (* Order-preserving parallel map over up to [domains] domains with
     atomic work stealing.  The calling domain participates, so [d]
     domains means [d - 1] spawns; each spawned worker runs under
     [capture] and its metrics are absorbed after the join, making the
     instrumented totals independent of the schedule.  Every worker is
     joined even on failure; the first exception is re-raised. *)
  let parallel_map ~domains f items =
    let arr = Array.of_list items in
    let n = Array.length arr in
    let d = Stdlib.min domains n in
    if d <= 1 then List.map f items
    else begin
      let results = Array.make n None in
      let next = Atomic.make 0 in
      (* Steal/idle accounting: every worker counts the items it takes
         off the shared queue and the wall time spent inside [f]; the
         rest of its lifetime is idle (waiting on the shared queue plus
         the tail wait for the last item).  [worker.steals] counts only items
         executed by spawned domains — work that actually migrated off
         the calling domain.  Recorded from inside each worker so the
         numbers ride the ordinary capture/absorb merge and totals are
         independent of the schedule. *)
      let work ~stolen () =
        let t0 = if enabled () then now () else 0. in
        let items = ref 0 and busy = ref 0. in
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (if enabled () then begin
               let t1 = now () in
               results.(i) <- Some (f arr.(i));
               busy := !busy +. (now () -. t1)
             end
             else results.(i) <- Some (f arr.(i)));
            items := !items + 1;
            loop ()
          end
        in
        Fun.protect
          ~finally:(fun () ->
            if enabled () then begin
              incr ~by:!items "worker.items";
              if stolen then incr ~by:!items "worker.steals";
              let idle = now () -. t0 -. !busy in
              hist_record "worker.busy_us" (int_of_float (!busy *. 1e6));
              hist_record "worker.idle_us"
                (int_of_float (Float.max 0. idle *. 1e6))
            end)
          loop
      in
      (* Capture the parent's run ID before spawning: a fresh domain
         starts with the process-global ID, so ring entries from
         workers would otherwise lose per-request attribution. *)
      let rid = run_id () in
      gauge_max "worker.parallel_map.domains" d;
      (* The span brackets spawn-to-join on the calling domain, so its
         total is the parallel region's wall clock and the per-item
         spans [f] opens (from main and absorbed workers alike) land as
         its children — the shape the critical-path/Amdahl extractor
         keys on. *)
      span "worker.parallel_map" (fun () ->
          let spawned =
            List.init (d - 1) (fun _ ->
                Domain.spawn (fun () ->
                    with_run_id rid (fun () -> capture (work ~stolen:true))))
          in
          let main_exn =
            match work ~stolen:false () with
            | () -> None
            | exception e -> Some e
          in
          let joined =
            List.map
              (fun dom -> try Ok (Domain.join dom) with e -> Error e)
              spawned
          in
          List.iter
            (function Ok ((), cap) -> absorb cap | Error _ -> ())
            joined;
          (match main_exn with Some e -> raise e | None -> ());
          List.iter (function Error e -> raise e | Ok _ -> ()) joined);
      Array.to_list (Array.map Option.get results)
    end
end

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let rec span_to_json t =
  Json.Obj
    [
      ("name", Json.String t.span);
      ("calls", Json.Int t.calls);
      ("total_s", Json.Float t.total_s);
      ( "gc",
        Json.Obj
          [
            ("minor_words", Json.Float t.gc_minor_words);
            ("major_words", Json.Float t.gc_major_words);
            ("promoted_words", Json.Float t.gc_promoted_words);
            ("minor_collections", Json.Int t.gc_minor_collections);
            ("major_collections", Json.Int t.gc_major_collections);
          ] );
      ("children", Json.List (List.map span_to_json t.children));
    ]

let hist_to_json (s : Histogram.snapshot) =
  Json.Obj
    [
      ("name", Json.String s.Histogram.hist);
      ("count", Json.Int s.Histogram.count);
      ("sum", Json.Int s.Histogram.sum);
      ("min", Json.Int s.Histogram.min_value);
      ("max", Json.Int s.Histogram.max_value);
      ("p50", Json.Int s.Histogram.p50);
      ("p90", Json.Int s.Histogram.p90);
      ("p99", Json.Int s.Histogram.p99);
      ( "buckets",
        Json.List
          (List.map
             (fun (le, c) ->
               Json.Obj [ ("le", Json.Int le); ("count", Json.Int c) ])
             s.Histogram.buckets) );
    ]

let event_to_json e =
  Json.Obj
    [
      ("name", Json.String e.Ring.name);
      ("ts_s", Json.Float (e.Ring.ts -. epoch ()));
      ("tid", Json.Int e.Ring.tid);
      ("run", Json.String e.Ring.run);
      ("args", Json.Obj e.Ring.args);
    ]

(* Deltas since the last [reset].  A dump pays for the full [Gc.stat]
   (a major-heap walk) and adds the fields only it measures. *)
let gc_to_json ~dump =
  let b, b_minor = Domain.DLS.get gc_baseline_key in
  let g = if dump then Gc.stat () else Gc.quick_stat () in
  Json.Obj
    ([
       ("minor_words", Json.Float (Gc.minor_words () -. b_minor));
       ("major_words", Json.Float (g.Gc.major_words -. b.Gc.major_words));
       ( "promoted_words",
         Json.Float (g.Gc.promoted_words -. b.Gc.promoted_words) );
       ( "minor_collections",
         Json.Int (g.Gc.minor_collections - b.Gc.minor_collections) );
       ( "major_collections",
         Json.Int (g.Gc.major_collections - b.Gc.major_collections) );
       ("compactions", Json.Int (g.Gc.compactions - b.Gc.compactions));
       ("heap_words", Json.Int g.Gc.heap_words);
       ("top_heap_words", Json.Int g.Gc.top_heap_words);
     ]
    @
    if not dump then []
    else
      [
        ("heap_chunks", Json.Int g.Gc.heap_chunks);
        ("live_words", Json.Int g.Gc.live_words);
        ("live_blocks", Json.Int g.Gc.live_blocks);
        ("free_words", Json.Int g.Gc.free_words);
        ("fragments", Json.Int g.Gc.fragments);
      ])

(* [span_events] counts every event the Chrome trace renders (spans and
   instants alike), [instants] the structured events among them. *)
let ring_to_json ~dump =
  let shown = rendered () in
  Json.Obj
    ([
       ("capacity", Json.Int (Ring.capacity ()));
       ("recorded", Json.Int (Ring.recorded ()));
       ("overwritten", Json.Int (Ring.overwritten ()));
       ( "tids",
         Json.List
           (List.map
              (fun t -> Json.Int t)
              (List.sort_uniq compare (List.map (fun e -> e.Ring.tid) shown)))
       );
       ("span_events", Json.Int (List.length shown));
       ("instants", Json.Int (List.length (List.filter is_instant shown)));
     ]
    @
    if dump then
      [ ("entries", Json.List (List.map Ring.entry_to_json (Ring.tail ()))) ]
    else [])

let sections ?(dump = false) () =
  (* Peak-heap gauge: refreshed at every export so the watermark is
     visible among the ordinary gauges too. *)
  gauge_max "gc.top_heap_words" (Gc.quick_stat ()).Gc.top_heap_words;
  [
    ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters ())));
    ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (gauges ())));
    ("histograms", Json.List (List.map hist_to_json (histograms ())));
    ("spans", Json.List (List.map span_to_json (span_roots ())));
    ("events", Json.List (List.map event_to_json (events ())));
    ("gc", gc_to_json ~dump);
    ("ring", ring_to_json ~dump);
  ]

(* The one file writer: a sibling temporary file renamed over [path], so
   a reader never sees a torn document. *)
let write_atomic path contents =
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf ".%s.%d.tmp" (Filename.basename path) (Unix.getpid ()))
  in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc contents;
        close_out oc);
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error msg ->
    (try Sys.remove tmp with Sys_error _ -> ());
    let prefix = tmp ^ ": " in
    Error
      (if String.starts_with ~prefix msg then
         String.sub msg (String.length prefix)
           (String.length msg - String.length prefix)
       else msg)

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                           *)
(* ------------------------------------------------------------------ *)

(* Spans become complete ('X') slices starting at their completion
   time minus their duration; events and budget trips become instants
   ('i'). *)
let trace_json () =
  let start e = e.Ring.ts -. e.Ring.dur_s in
  let evs =
    List.stable_sort (fun a b -> Float.compare (start a) (start b)) (rendered ())
  in
  let base =
    List.fold_left (fun acc e -> Stdlib.min acc (start e)) (epoch ()) evs
  in
  let us t = (t -. base) *. 1e6 in
  let tids = List.sort_uniq compare (0 :: List.map (fun e -> e.Ring.tid) evs) in
  let meta name tid label =
    Json.Obj
      [
        ("name", Json.String name);
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int tid);
        ("args", Json.Obj [ ("name", Json.String label) ]);
      ]
  in
  let metas =
    meta "process_name" 0 "ctwsdd"
    :: List.map
         (fun t ->
           meta "thread_name" t
             (if t = 0 then "main" else Printf.sprintf "domain-%d" t))
         tids
  in
  let ev_json e =
    let common =
      [
        ("name", Json.String e.Ring.name);
        ("cat", Json.String "ctwsdd");
        ("pid", Json.Int 1);
        ("tid", Json.Int e.Ring.tid);
        ("ts", Json.Float (us (start e)));
      ]
    in
    let args =
      if e.Ring.args = [] then [] else [ ("args", Json.Obj e.Ring.args) ]
    in
    if e.Ring.kind = Ring.Span then
      Json.Obj
        (common
        @ [ ("ph", Json.String "X"); ("dur", Json.Float (e.Ring.dur_s *. 1e6)) ]
        @ args)
    else
      Json.Obj
        (common @ [ ("ph", Json.String "i"); ("s", Json.String "t") ] @ args)
  in
  Json.Obj
    [
      ("traceEvents", Json.List (metas @ List.map ev_json evs));
      ("displayTimeUnit", Json.String "ms");
    ]

let write_trace path = write_atomic path (Json.to_string (trace_json ()) ^ "\n")
