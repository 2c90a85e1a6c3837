(* Diff two run records (ctwsdd-run/v1, or the ctwsdd-metrics v1-v4
   files it replaced) and print a per-span speedup table:

     dune exec bench/compare.exe -- \
       [--gate PCT] [--noise-floor MS] OLD.json NEW.json

   Spans are aggregated by name across the whole tree (the same span can
   appear under several parents), so the table reads as "total time spent
   in this phase".  Speedup is old/new; rows are sorted by old total so
   the hottest phases come first.  Spans present in only one file are
   reported as `added` / `removed` rather than dropped.

   With --gate PCT the exit code becomes a CI regression gate: exit 1 if
   any span present in both files — or the wall clock — slowed down by
   more than PCT percent, where the old total is above the noise floor
   (spans in the sub-floor range flap with scheduler noise; 5ms by
   default, tune with --noise-floor MS per runner).  See EXPERIMENTS.md,
   "Performance methodology". *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

(* Spans faster than this in the baseline are exempt from gating;
   overridden by --noise-floor (milliseconds). *)
let default_gate_floor_s = 0.005

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> die "compare: %s" msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  match Obs.Json.of_string (String.trim (read_file path)) with
  | Ok j -> j
  | Error msg -> die "compare: %s: %s" path msg

let float_member name j =
  match Obs.Json.member name j with
  | Some (Obs.Json.Float f) -> Some f
  | Some (Obs.Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* name -> (calls, total_s), aggregated over the span forest. *)
let flatten_spans j =
  let acc : (string, int * float) Hashtbl.t = Hashtbl.create 32 in
  let rec walk = function
    | Obs.Json.Obj _ as node ->
      let name =
        match Obs.Json.member "name" node with
        | Some (Obs.Json.String s) -> s
        | _ -> "?"
      in
      let calls =
        match Obs.Json.member "calls" node with
        | Some (Obs.Json.Int i) -> i
        | _ -> 0
      in
      let total = Option.value ~default:0.0 (float_member "total_s" node) in
      let c0, t0 =
        Option.value ~default:(0, 0.0) (Hashtbl.find_opt acc name)
      in
      Hashtbl.replace acc name (c0 + calls, t0 +. total);
      (match Obs.Json.member "children" node with
       | Some (Obs.Json.List children) -> List.iter walk children
       | _ -> ())
    | _ -> ()
  in
  (match Obs.Json.member "spans" j with
   | Some (Obs.Json.List roots) -> List.iter walk roots
   | _ -> ());
  acc

let fmt_ms t = Printf.sprintf "%.2f" (1000.0 *. t)

let fmt_speedup old_t new_t =
  if new_t <= 0.0 then (if old_t <= 0.0 then "-" else "inf")
  else Printf.sprintf "%.2fx" (old_t /. new_t)

let usage () =
  prerr_endline
    "usage: compare [--gate PCT] [--noise-floor MS] OLD.json NEW.json";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse gate floor = function
    | "--gate" :: pct :: rest ->
      (match float_of_string_opt pct with
       | Some p when p > 0.0 -> parse (Some p) floor rest
       | _ -> die "compare: --gate expects a positive percentage, got %s" pct)
    | "--noise-floor" :: ms :: rest ->
      (match float_of_string_opt ms with
       | Some f when f >= 0.0 -> parse gate (f /. 1000.0) rest
       | _ ->
         die "compare: --noise-floor expects milliseconds >= 0, got %s" ms)
    | [ old_path; new_path ] -> (gate, floor, old_path, new_path)
    | _ -> usage ()
  in
  let gate, gate_floor_s, old_path, new_path =
    parse None default_gate_floor_s args
  in
  let old_j = load old_path and new_j = load new_path in
  let old_spans = flatten_spans old_j and new_spans = flatten_spans new_j in
  let names =
    let tbl = Hashtbl.create 32 in
    let add n _ = Hashtbl.replace tbl n () in
    Hashtbl.iter add old_spans;
    Hashtbl.iter add new_spans;
    Hashtbl.fold (fun n () acc -> n :: acc) tbl []
  in
  let rows =
    names
    |> List.map (fun n ->
           (n, Hashtbl.find_opt old_spans n, Hashtbl.find_opt new_spans n))
    |> List.sort (fun (_, o1, _) (_, o2, _) ->
           let t = function Some (_, t) -> t | None -> -1.0 in
           compare (t o2) (t o1))
    |> List.map (fun (n, o, nw) ->
           match (o, nw) with
           | Some (oc, ot), Some (nc, nt) ->
             [
               n;
               string_of_int oc;
               fmt_ms ot;
               string_of_int nc;
               fmt_ms nt;
               fmt_speedup ot nt;
             ]
           | None, Some (nc, nt) ->
             [ n; "-"; "-"; string_of_int nc; fmt_ms nt; "added" ]
           | Some (oc, ot), None ->
             [ n; string_of_int oc; fmt_ms ot; "-"; "-"; "removed" ]
           | None, None -> assert false)
  in
  Table.print
    ~title:
      (Printf.sprintf "span timings: %s (old) vs %s (new)" old_path new_path)
    ~header:[ "span"; "calls"; "old ms"; "calls"; "new ms"; "speedup" ]
    rows;
  let wall =
    match (float_member "wall_s" old_j, float_member "wall_s" new_j) with
    | Some ow, Some nw ->
      Table.note "wall clock: %s ms -> %s ms (%s)" (fmt_ms ow) (fmt_ms nw)
        (fmt_speedup ow nw);
      Some (ow, nw)
    | _ -> None
  in
  match gate with
  | None -> ()
  | Some pct ->
    let limit = 1.0 +. (pct /. 100.0) in
    let shared_timings =
      List.filter_map
        (fun n ->
          match (Hashtbl.find_opt old_spans n, Hashtbl.find_opt new_spans n) with
          | Some (_, ot), Some (_, nt) -> Some ("span " ^ n, ot, nt)
          | _ -> None)
        names
    in
    let timings =
      match wall with
      | Some (ow, nw) -> ("wall clock", ow, nw) :: shared_timings
      | None -> shared_timings
    in
    let regressions =
      List.filter
        (fun (_, ot, nt) -> ot >= gate_floor_s && nt > ot *. limit)
        timings
    in
    if regressions = [] then
      Printf.printf "GATE OK: no timing regressed beyond +%.0f%% (%d checked, \
                     floor %.1fms)\n"
        pct (List.length timings) (1000.0 *. gate_floor_s)
    else begin
      List.iter
        (fun (what, ot, nt) ->
          Printf.printf "GATE FAIL: %s regressed %.1f%% (%s ms -> %s ms, \
                         threshold +%.0f%%, floor %.1fms)\n"
            what
            (100.0 *. ((nt /. ot) -. 1.0))
            (fmt_ms ot) (fmt_ms nt) pct (1000.0 *. gate_floor_s))
        regressions;
      exit 1
    end
