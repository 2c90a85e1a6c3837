(* Span recorder for the traced run.  The spans are the benchmark's own:
   each wraps one call into a layer's public functions (the program
   itself is not instrumented).  They are held in memory and written
   once, as Chrome trace_event JSON, when the run ends. *)

type span = {
  id : int;
  name : string;  (** The layer, e.g. ["treewidth"]; ["instance"] at the root. *)
  instance : int;
  pass : int;
  parent : int;  (** Id of the enclosing span, [-1] at the root. *)
  t0 : float;
  t1 : float;
}

let recorded : span list ref = ref []
let next_id = ref 0
let open_stack : int list ref = ref []
let current_pass = ref 0

let now = Unix.gettimeofday

let record ~instance name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_stack with p :: _ -> p | [] -> -1 in
  open_stack := id :: !open_stack;
  let t0 = now () in
  let r = match f () with r -> Ok r | exception e -> Error e in
  let t1 = now () in
  open_stack := List.tl !open_stack;
  match r with
  | Ok r ->
    recorded :=
      { id; name; instance; pass = !current_pass; parent; t0; t1 } :: !recorded;
    r
  | Error e -> raise e

let of_pass p = List.filter (fun s -> s.pass = p) !recorded

(* Self time per span name: each span's duration minus what its
   direct children cover. *)
let self_times spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)
          +. (s.t1 -. s.t0)))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
      in
      Hashtbl.replace by_name s.name
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_name s.name)))
    spans;
  fun name -> Hashtbl.find_opt by_name name

let total name spans =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0.0 spans

let write_chrome path =
  let spans = List.rev !recorded in
  let base = match spans with s :: _ -> s.t0 | [] -> 0.0 in
  let us t = Float.round ((t -. base) *. 1e6) in
  let event s =
    Obs.Json.Obj
      [
        ("name", Obs.Json.String s.name);
        ("ph", Obs.Json.String "X");
        ("ts", Obs.Json.Float (us s.t0));
        ("dur", Obs.Json.Float (us s.t1 -. us s.t0));
        ("pid", Obs.Json.Int 1);
        ("tid", Obs.Json.Int 1);
        ( "args",
          Obs.Json.Obj
            [
              ("instance", Obs.Json.Int s.instance);
              ("pass", Obs.Json.Int s.pass);
              ("span", Obs.Json.Int s.id);
              ("parent", Obs.Json.Int s.parent);
            ] );
      ]
  in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("traceEvents", Obs.Json.List (List.map event spans));
                ("displayTimeUnit", Obs.Json.String "ms");
              ]));
      output_char oc '\n')
