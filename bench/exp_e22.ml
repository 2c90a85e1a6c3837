(* E22 — backend panorama at scale: who wins, by what growth rate.

   The paper's Figure 1 inclusions say where each target should win:
   pathwidth-bounded families fit OBDDs (CPW(O(1)) = OBDD(O(1))),
   treewidth-bounded ones fit SDDs (CTW(O(1)) = SDD(O(1))).

   Two tables measure that separation empirically on the E18 circuit
   families, through the backend-agnostic [Pipeline.compile ~backend]
   interface:

     1. circuit families compiled under `Sdd / `Obdd — size, width and
        wall time per backend, winner by size;
     2. what `Auto resolves to on each workload, with its reason.

   Spans land in BENCH_E22.json (keys prefixed "e22.") for the
   `compare.exe --gate` regression tracking like E17–E21.  Keep the
   workload fixed: changing it invalidates the trajectory. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, 1000.0 *. (Unix.gettimeofday () -. t0))

let compile ~backend c =
  match Pipeline.compile ~backend c with
  | Ok r -> r
  | Error e -> failwith ("E22: compile failed: " ^ Ctwsdd_error.to_string e)

(* The circuit families: the E18 pipeline set, scaled past the point
   where the truth-table routes of the early experiments give up. *)
(* Sizes are capped by the canonical-SDD rows: the treedec machinery
   behind `Sdd grows steeply with n (chain-256 alone costs minutes),
   and E22 is CI-gated.  The OBDD backend goes far beyond these n —
   E1's panorama stretches them further. *)
let circuit_families =
  [
    ("chain-impl", [ 32; 64; 128 ], Generators.chain_implications);
    ("parity-chain", [ 32; 64; 128 ], Generators.parity_chain);
    ("band3-cnf", [ 32; 64 ], Generators.band_cnf ~width:3);
    ("ladder-4", [ 16; 32 ], Generators.ladder ~tracks:4);
    ( "window-4",
      [ 24; 32 ],
      fun n ->
        Generators.random_window ~seed:11 ~window:4 ~vars:n ~gates:(2 * n)
    );
  ]

let backends : (Backend.resolved * string) list =
  [ (`Sdd, "sdd"); (`Obdd, "obdd") ]

let run () =
  Table.section "E22 — backend panorama (who wins, by what growth rate)";

  (* 1. Circuit families under both backends.  The reference count
     comes from the SDD run; the OBDD's must agree — cross-backend
     parity is an assertion here, not a column. *)
  let rows =
    List.concat_map
      (fun (fam, sizes, mk) ->
        List.map
          (fun n ->
            let c = mk n in
            let per =
              List.map
                (fun (b, bname) ->
                  let r, ms =
                    time (fun () ->
                        Obs.span ("e22.circuit_" ^ bname) @@ fun () ->
                        compile ~backend:(b :> Backend.tag) c)
                  in
                  let (module B : Backend.S) = Backend.impl r.Pipeline.backend in
                  let size = B.size r.Pipeline.manager r.Pipeline.root in
                  let width = B.width r.Pipeline.manager r.Pipeline.root in
                  let count =
                    Sdd.model_count r.Pipeline.manager r.Pipeline.root
                  in
                  (bname, size, width, ms, count))
                backends
            in
            (match per with
            | (_, _, _, _, ref_count) :: rest ->
              List.iter
                (fun (bname, _, _, _, count) ->
                  if not (Bigint.equal count ref_count) then
                    failwith
                      (Printf.sprintf "E22: %s-%d: %s count disagrees" fam n
                         bname))
                rest
            | [] -> ());
            let winner =
              List.fold_left
                (fun (wb, ws) (bname, size, _, _, _) ->
                  if size < ws then (bname, size) else (wb, ws))
                ("-", max_int) per
              |> fst
            in
            [ fam; Table.fi n ]
            @ List.concat_map
                (fun (_, size, width, ms, _) ->
                  [ Table.fi size; Table.fi width; Printf.sprintf "%.1f" ms ])
                per
            @ [ winner ])
          sizes)
      circuit_families
  in
  Table.print
    ~title:
      "circuit families: pathwidth-bounded rows go to obdd, \
       treewidth-bounded ones to sdd (winner = smallest size)"
    ~header:
      [ "family"; "n"; "sdd sz"; "sdd w"; "sdd ms"; "obdd sz"; "obdd w";
        "obdd ms"; "winner" ]
    rows;

  (* 2. Auto selection: the per-workload choices and their reasons, as
     they land in the run record's events and `backend` section. *)
  let rows =
    List.map
      (fun (name, chosen, reason) -> [ name; chosen; reason ])
      (List.map
         (fun (fam, sizes, mk) ->
           let n = List.hd sizes in
           let chosen, reason = Backend.resolve_circuit `Auto (mk n) in
           ( Printf.sprintf "%s-%d" fam n,
             Backend.resolved_name chosen,
             reason ))
         circuit_families
      @ [
          (let chosen, reason = Backend.resolve_cnf `Auto in
           ("cnf (any)", Backend.resolved_name chosen, reason));
        ])
  in
  Table.print
    ~title:"`Auto resolution per workload (recorded in the run record)"
    ~header:[ "workload"; "chosen"; "reason" ]
    rows;
  Table.note "paper: CPW(O(1)) = OBDD(O(1)) ⊆ CTW(O(1)) = SDD(O(1))."
