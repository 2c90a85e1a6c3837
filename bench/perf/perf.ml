(* perf.exe — the end-to-end benchmark of ctwsdd.  See README.md for the
   metric dictionary, the workloads and the noise notes.

     perf.exe bench --workload W --seed N --seconds S --trace 0|1 [--record FILE]
     perf.exe run --seed N --out FILE [--runs K] [--seconds S] [--trace]
     perf.exe agree A.json B.json
     perf.exe selftest

   [bench] measures one workload in this process and prints one JSON
   line last on stdout; [run] measures every workload, each in a fresh
   child process, and writes all records to one file; [agree] compares
   two such files against the bounds in BENCHMARK.json; [selftest]
   checks the oracles against brute force.  [perf.exe setup --workload W
   --seed N] is one set-up sample; [bench] spawns it.  Every command that reads
   BENCHMARK.json takes [--benchmark PATH] (default: the current
   directory's). *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Arguments and JSON                                                   *)
(* ------------------------------------------------------------------ *)

(* [--key value] pairs, bare [--flag]s and positional arguments. *)
let parse_args ~flags args =
  let rec go opts pos = function
    | [] -> (opts, List.rev pos)
    | k :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      let key = String.sub k 2 (String.length k - 2) in
      if List.mem key flags then go ((key, "") :: opts) pos rest
      else (
        match rest with
        | v :: rest -> go ((key, v) :: opts) pos rest
        | [] -> die "missing value for %s" k)
    | p :: rest -> go opts (p :: pos) rest
  in
  go [] [] args

let opt opts k = List.assoc_opt k opts
let req opts k = match opt opts k with Some v -> v | None -> die "missing --%s" k

let int_arg opts k ~default =
  match opt opts k with
  | None -> default
  | Some v ->
    (match int_of_string_opt v with Some n -> n | None -> die "--%s: not an integer: %s" k v)

let workload_arg opts =
  let s = req opts "workload" in
  match Workload.of_string s with
  | Some w -> w
  | None ->
    die "unknown workload %s (expected %s)" s
      (String.concat ", " (List.map Workload.name Workload.all))

let read_json path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all with Sys_error e -> die "%s" e
  in
  match Obs.Json.of_string text with Ok v -> v | Error e -> die "%s: %s" path e

let write_json path v =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Obs.Json.to_string v);
      output_char oc '\n')

let member k v = match Obs.Json.member k v with Some x -> x | None -> Obs.Json.Null

let json_string = function Obs.Json.String s -> s | _ -> die "expected a string"

let json_float = function
  | Obs.Json.Int i -> float_of_int i
  | Obs.Json.Float f -> f
  | _ -> die "expected a number"

let json_list = function Obs.Json.List l -> l | _ -> []
let json_assoc = function Obs.Json.Obj l -> l | _ -> []

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                       *)
(* ------------------------------------------------------------------ *)

type bound = { metric : string; better_lower : bool; bound : float }

let benchmark_metrics doc section =
  List.map
    (fun m ->
      {
        metric = json_string (member "name" m);
        better_lower = json_string (member "better" m) = "lower";
        bound = (match member "bound" m with Obs.Json.Null -> 0.0 | b -> json_float b);
      })
    (json_list (member section doc))

(* ------------------------------------------------------------------ *)
(* bench: one workload, one JSON line                                   *)
(* ------------------------------------------------------------------ *)

let metric_json ~with_n (m : Measure.metric) =
  ( m.name,
    Obs.Json.Obj
      ([ ("value", Obs.Json.Float m.value); ("unit", Obs.Json.String m.unit) ]
      @ if with_n then [ ("n", Obs.Json.Int m.n) ] else []) )

let print_metric oc (m : Measure.metric) =
  Printf.fprintf oc "  %-28s %16.6f %-6s n=%d\n" m.name m.value m.unit m.n

let bench ~w ~seed ~seconds ~trace ~record ~benchmark =
  (* The one-line result carries the metrics BENCHMARK.json lists. *)
  let wanted =
    benchmark_metrics (read_json benchmark) (if trace then "per_layer" else "end_to_end")
  in
  let r =
    try Measure.run w ~seed ~seconds ~trace with
    | Measure.Parity msg -> die "traced run: %s" msg
    | Failure msg -> die "%s" msg
  in
  let correct = r.failed = 0 in
  Printf.eprintf "%s seed %d: %d passes (%s; %s s), %d/%d calls failed\n"
    (Workload.name w) seed r.passes
    (if trace then "alternating untraced/traced" else "untraced")
    (String.concat " " (List.map (Printf.sprintf "%.2f") r.pass_walls))
    r.failed r.attempted;
  List.iter (print_metric stderr) r.metrics;
  flush stderr;
  Option.iter
    (fun path ->
      write_json path
        (Obs.Json.Obj
           [
             ("workload", Obs.Json.String (Workload.name w));
             ("seed", Obs.Json.Int seed);
             ("seconds", Obs.Json.Float seconds);
             ("trace", Obs.Json.Bool trace);
             ("passes", Obs.Json.Int r.passes);
             ("correct", Obs.Json.Bool correct);
             ("attempted", Obs.Json.Int r.attempted);
             ("failed", Obs.Json.Int r.failed);
             ("metrics", Obs.Json.Obj (List.map (metric_json ~with_n:true) r.metrics));
           ]))
    record;
  let selected =
    List.map
      (fun b ->
        match List.find_opt (fun (m : Measure.metric) -> m.name = b.metric) r.metrics with
        | Some m -> metric_json ~with_n:false m
        | None ->
          die "%s: metric %s listed in %s is not measured" (Workload.name w) b.metric
            benchmark)
      wanted
  in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool correct);
            ("attempted", Obs.Json.Int r.attempted);
            ("failed", Obs.Json.Int r.failed);
            ("metrics", Obs.Json.Obj selected);
          ]));
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* run: every workload, each in a fresh child process                   *)
(* ------------------------------------------------------------------ *)

let cpu_model () =
  try
    In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> "unknown"
          | Some l ->
            (match String.index_opt l ':' with
             | Some i when String.trim (String.sub l 0 i) = "model name" ->
               String.trim (String.sub l (i + 1) (String.length l - i - 1))
             | _ -> find ())
        in
        find ())
  with Sys_error _ -> "unknown"

let run_child ~w ~seed ~seconds ~trace ~benchmark =
  let tmp = Filename.temp_file "perf" ".json" in
  let st =
    Measure.spawn_and_wait
      [|
        Sys.executable_name; "bench"; "--workload"; Workload.name w;
        "--seed"; string_of_int seed; "--seconds"; string_of_int seconds;
        "--trace"; (if trace then "1" else "0"); "--record"; tmp;
        "--benchmark"; benchmark;
      |]
  in
  let record = if (Unix.stat tmp).Unix.st_size > 0 then Some (read_json tmp) else None in
  Sys.remove tmp;
  match (st, record) with
  | Unix.WEXITED (0 | 1), Some r -> (Workload.name w, r)
  | _ -> die "%s: child run failed" (Workload.name w)

let print_records title records =
  print_endline title;
  List.iter
    (fun (wname, r) ->
      Printf.printf "%s (%d passes, %d/%d calls failed)\n" wname
        (int_of_float (json_float (member "passes" r)))
        (int_of_float (json_float (member "failed" r)))
        (int_of_float (json_float (member "attempted" r)));
      List.iter
        (fun (name, m) ->
          print_metric stdout
            {
              name;
              unit = json_string (member "unit" m);
              value = json_float (member "value" m);
              n = int_of_float (json_float (member "n" m));
            })
        (json_assoc (member "metrics" r)))
    records;
  flush stdout

let run ~seed ~out ~runs ~seconds ~trace ~benchmark =
  let measure_all ~trace title =
    let records =
      List.map (fun w -> run_child ~w ~seed ~seconds ~trace ~benchmark) Workload.all
    in
    print_records title records;
    Obs.Json.Obj records
  in
  let runs =
    List.init runs (fun i ->
        Obs.Json.Obj
          [
            ("run", Obs.Json.Int (i + 1));
            ( "workloads",
              measure_all ~trace:false (Printf.sprintf "run %d, seed %d" (i + 1) seed) );
          ])
  in
  let traced =
    if trace then [ ("traced", measure_all ~trace:true (Printf.sprintf "traced run, seed %d" seed)) ]
    else []
  in
  write_json out
    (Obs.Json.Obj
       ([
          ("schema", Obs.Json.String "ctwsdd-perf/v1");
          ( "host",
            Obs.Json.Obj
              [
                ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
                ("cpu", Obs.Json.String (cpu_model ()));
                ("ocaml", Obs.Json.String Sys.ocaml_version);
                ("os_type", Obs.Json.String Sys.os_type);
                ("word_size", Obs.Json.Int Sys.word_size);
              ] );
          ("params", Workload.params_json);
          ("seed", Obs.Json.Int seed);
          ("seconds", Obs.Json.Int seconds);
          ("runs", Obs.Json.List runs);
        ]
       @ traced));
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* agree: two sets of runs against the bounds                           *)
(* ------------------------------------------------------------------ *)

(* Values of one metric of one workload across a file's runs. *)
let values doc wname metric =
  List.filter_map
    (fun run ->
      member "workloads" run |> member wname |> member "metrics" |> json_assoc
      |> List.assoc_opt metric
      |> Option.map (fun m -> json_float (member "value" m)))
    (json_list (member "runs" doc))

type verdict = Ok_ | Worse | Unresolved

(* B against A for one metric.  Where either side's spread (quartile
   distance over median) exceeds the bound, a difference cannot be
   resolved — unless every run of B beats every run of A.  A metric
   that repeats exactly for one seed (compiled size, failures) must not
   change at all when both files measured the same seed. *)
let verdict bd ~exact va vb =
  let q1a, ma, q3a = Measure.quartiles va and q1b, mb, q3b = Measure.quartiles vb in
  let spread q1 m q3 = if q1 = q3 then 0.0 else (q3 -. q1) /. Float.abs m in
  let worsening =
    if ma = mb then 0.0 else if bd.better_lower then (mb /. ma) -. 1.0 else (ma /. mb) -. 1.0
  in
  let lo = List.fold_left Float.min infinity and hi = List.fold_left Float.max neg_infinity in
  let b_always_better = if bd.better_lower then hi vb < lo va else lo vb > hi va in
  if exact then if List.for_all (( = ) (List.hd va)) (va @ vb) then Ok_ else Worse
  else if Float.max (spread q1a ma q3a) (spread q1b mb q3b) > bd.bound then
    if b_always_better then Ok_ else Unresolved
  else if worsening <= bd.bound then Ok_
  else Worse

let agree ~a ~b ~benchmark =
  let da = read_json a and db = read_json b in
  let bounds =
    benchmark_metrics (read_json benchmark) "end_to_end"
    @ [ { metric = "failed_ratio"; better_lower = true; bound = 0.0 } ]
  in
  let same_seed = member "seed" da = member "seed" db in
  let workloads =
    match json_list (member "runs" da) with
    | r :: _ -> List.map fst (json_assoc (member "workloads" r))
    | [] -> die "%s: no runs" a
  in
  let worse = ref 0 in
  Printf.printf "%-12s %-21s %6s  %-32s %-32s %s\n" "workload" "metric" "bound"
    "A median [q1, q3]" "B median [q1, q3]" "verdict";
  List.iter
    (fun wname ->
      List.iter
        (fun bd ->
          match (values da wname bd.metric, values db wname bd.metric) with
          | [], _ | _, [] -> ()
          | va, vb ->
            let exact = same_seed && List.mem bd.metric [ "compiled_size"; "failed_ratio" ] in
            let v = verdict bd ~exact va vb in
            if v = Worse then incr worse;
            let cell vs =
              let q1, m, q3 = Measure.quartiles vs in
              Printf.sprintf "%.6g [%.6g, %.6g]" m q1 q3
            in
            Printf.printf "%-12s %-21s %6.3f  %-32s %-32s %s\n" wname bd.metric bd.bound
              (cell va) (cell vb)
              (match v with
               | Ok_ -> "ok"
               | Worse -> if exact then "worse (must repeat exactly)" else "worse"
               | Unresolved -> "unresolved"))
        bounds)
    workloads;
  if !worse > 0 then begin
    Printf.printf "%d metric(s) worse\n" !worse;
    exit 1
  end

(* ------------------------------------------------------------------ *)

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: rest ->
    let opts, pos = parse_args ~flags:(if cmd = "run" then [ "trace" ] else []) rest in
    let benchmark = Option.value ~default:"BENCHMARK.json" (opt opts "benchmark") in
    let seed () = int_arg opts "seed" ~default:1 in
    (match (cmd, pos) with
     | "bench", [] ->
       let trace =
         match req opts "trace" with
         | "0" -> false
         | "1" -> true
         | v -> die "--trace: expected 0 or 1, got %s" v
       in
       let seconds =
         match float_of_string_opt (req opts "seconds") with
         | Some s when s > 0.0 -> s
         | _ -> die "--seconds: expected a positive number"
       in
       bench ~w:(workload_arg opts) ~seed:(seed ()) ~seconds ~trace
         ~record:(opt opts "record") ~benchmark
     | "setup", [] ->
       let w = workload_arg opts in
       (try Measure.warm_up w (Workload.instances w ~seed:(seed ()))
        with Failure msg -> die "%s" msg)
     | "run", [] ->
       let default_seconds =
         int_of_float (json_float (member "run_seconds" (read_json benchmark)))
       in
       run ~seed:(seed ()) ~out:(req opts "out")
         ~runs:(int_arg opts "runs" ~default:1)
         ~seconds:(int_arg opts "seconds" ~default:default_seconds)
         ~trace:(opt opts "trace" <> None) ~benchmark
     | "agree", [ a; b ] -> agree ~a ~b ~benchmark
     | "selftest", [] -> Selftest.run ()
     | _ -> die "bad arguments; see the header of bench/perf/perf.ml")
  | _ -> die "usage: perf.exe bench|run|agree|selftest ..."
