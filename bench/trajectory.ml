(* Render the vtree-search trajectory recorded in a ctwsdd-run/v1 run
   record as a table:

     dune exec bench/trajectory.exe -- METRICS.json

   Reads the `events` section and prints every `vtree_search.*` event —
   one row per scored candidate move (kind, target node, score, delta,
   accepted?, candidate fingerprint) plus the start/done endpoints — in
   timestamp order, so a hill climb reads top to bottom.  Works on any
   record: `ctwsdd ... --trace FILE`, BENCH_<ids>.json from the bench
   harness, or `Run_record.write` output. *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> die "trajectory: %s" msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

let str_arg args k =
  match Obs.Json.member k args with
  | Some (Obs.Json.String s) -> s
  | Some (Obs.Json.Bool b) -> string_of_bool b
  | Some (Obs.Json.Int i) -> string_of_int i
  | _ -> "-"

let () =
  let path =
    match Array.to_list Sys.argv |> List.tl with
    | [ p ] -> p
    | _ ->
      prerr_endline "usage: trajectory METRICS.json";
      exit 2
  in
  let j =
    match Obs.Json.of_string (String.trim (read_file path)) with
    | Ok j -> j
    | Error msg -> die "trajectory: %s: %s" path msg
  in
  (match Obs.Json.member "schema" j with
   | Some (Obs.Json.String s) when s = Run_record.schema_version -> ()
   | Some (Obs.Json.String s) ->
     die "trajectory: %s has schema %s, need %s" path s
       Run_record.schema_version
   | _ -> die "trajectory: %s is not a ctwsdd run record" path);
  let events =
    match Obs.Json.member "events" j with
    | Some (Obs.Json.List l) -> l
    | _ -> []
  in
  let rows =
    List.filter_map
      (fun e ->
        match Obs.Json.member "name" e with
        | Some (Obs.Json.String name)
          when String.length name >= 13
               && String.sub name 0 13 = "vtree_search." ->
          let ts =
            match Obs.Json.member "ts_s" e with
            | Some (Obs.Json.Float f) -> Printf.sprintf "%.3f" (1000.0 *. f)
            | Some (Obs.Json.Int i) -> Printf.sprintf "%.3f" (1000.0 *. float_of_int i)
            | _ -> "-"
          in
          let args =
            Option.value ~default:(Obs.Json.Obj []) (Obs.Json.member "args" e)
          in
          let phase = String.sub name 13 (String.length name - 13) in
          Some
            [
              ts;
              str_arg args "backend";
              phase;
              str_arg args "step";
              str_arg args "kind";
              str_arg args "node";
              str_arg args "score";
              str_arg args "delta";
              str_arg args "accepted";
              str_arg args "fingerprint";
            ]
        | _ -> None)
      events
  in
  (* CNF pipeline events: one row per preprocessing summary, component
     compile (with its <run>/c<seq>/k<i> sub-attribution) and ladder
     step-down, in timestamp order — the per-component view of a
     `ctwsdd cnf --trace` run or of bench E19. *)
  let cnf_rows =
    List.filter_map
      (fun e ->
        match Obs.Json.member "name" e with
        | Some (Obs.Json.String name)
          when String.length name >= 9 && String.sub name 0 9 = "pipeline." ->
          let ts =
            match Obs.Json.member "ts_s" e with
            | Some (Obs.Json.Float f) -> Printf.sprintf "%.3f" (1000.0 *. f)
            | Some (Obs.Json.Int i) ->
              Printf.sprintf "%.3f" (1000.0 *. float_of_int i)
            | _ -> "-"
          in
          let run =
            match Obs.Json.member "run" e with
            | Some (Obs.Json.String r) -> r
            | _ -> "-"
          in
          let args =
            Option.value ~default:(Obs.Json.Obj []) (Obs.Json.member "args" e)
          in
          let phase = String.sub name 9 (String.length name - 9) in
          let degraded =
            match str_arg args "tripped" with
            | "-" -> str_arg args "degraded"
            | t -> "tripped:" ^ t
          in
          Some
            [
              ts; run; phase;
              str_arg args "component";
              str_arg args "vars";
              str_arg args "clauses";
              str_arg args "size";
              degraded;
            ]
        | _ -> None)
      events
  in
  if rows = [] && cnf_rows = [] then
    Printf.printf
      "no vtree_search or pipeline events in %s (run with observability on)\n"
      path
  else begin
    if rows <> [] then
      Table.print
        ~title:(Printf.sprintf "vtree search trajectory: %s" path)
        ~header:
          [ "ms"; "backend"; "event"; "step"; "kind"; "node"; "score"; "delta";
            "accepted"; "fingerprint" ]
        rows;
    if cnf_rows <> [] then
      Table.print
        ~title:(Printf.sprintf "cnf pipeline trajectory: %s" path)
        ~header:
          [ "ms"; "run"; "event"; "component"; "vars"; "clauses"; "size";
            "degraded" ]
        cnf_rows
  end
