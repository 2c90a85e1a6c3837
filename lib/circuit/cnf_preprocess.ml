(* Count-preserving CNF simplification and primal-graph decomposition.

   The simplifier works on one mutable view of the clause set: an
   assignment array over the original variables (0 unset, +1 / -1
   forced) plus the list of not-yet-satisfied clauses.  Unit
   propagation, tautology/duplicate removal and (optionally)
   pure-literal elimination run to a joint fixpoint, then the residual
   clauses are renumbered onto the compact range of surviving
   variables. *)

type simplified = {
  cnf : Dimacs.t;
  var_of_new : int array;
  forced : (int * bool) list;
  free_vars : int;
  pure_eliminated : (int * bool) list;
  removed_tautologies : int;
  removed_duplicates : int;
}

type outcome = Unsat | Simplified of simplified

exception Conflict

let run ?(level = `Count) (d : Dimacs.t) =
  let n = d.Dimacs.num_vars in
  List.iter
    (List.iter (fun l ->
         if l = 0 || l < -n || l > n then
           invalid_arg "Cnf_preprocess.run: literal out of range"))
    d.Dimacs.clauses;
  (* assignment.(v-1): 0 unset, 1 forced true, -1 forced false *)
  let assignment = Array.make n 0 in
  let forced = ref [] in
  let pure = ref [] in
  let tautologies = ref 0 in
  let duplicates = ref 0 in
  let assign ~is_pure l =
    let v = abs l and sign = if l > 0 then 1 else -1 in
    match assignment.(v - 1) with
    | 0 ->
      assignment.(v - 1) <- sign;
      if is_pure then pure := (v, sign > 0) :: !pure
      else forced := (v, sign > 0) :: !forced
    | s -> if s <> sign then raise Conflict
  in
  let value l =
    let s = assignment.(abs l - 1) in
    if s = 0 then None else Some (s > 0 = (l > 0))
  in
  try
    (* Within-clause dedup, tautology and duplicate-clause removal are
       count-preserving and run once up front; the propagation loop
       below only ever shrinks clauses, which cannot reintroduce any of
       the three. *)
    let seen = Hashtbl.create 64 in
    let clauses =
      List.filter_map
        (fun clause ->
          let lits = List.sort_uniq compare clause in
          if List.exists (fun l -> List.mem (-l) lits) lits then begin
            incr tautologies;
            None
          end
          else if Hashtbl.mem seen lits then begin
            incr duplicates;
            None
          end
          else begin
            Hashtbl.add seen lits ();
            Some lits
          end)
        d.Dimacs.clauses
    in
    (* Joint fixpoint of unit propagation and (at [`Sat]) pure-literal
       elimination.  Each pass rewrites every clause under the current
       assignment; O(passes * total literals), and each pass either
       fixes a variable or terminates the loop. *)
    let rec propagate clauses =
      let progress = ref false in
      let residual =
        List.filter_map
          (fun clause ->
            if List.exists (fun l -> value l = Some true) clause then begin
              progress := true;
              None
            end
            else
              match List.filter (fun l -> value l = None) clause with
              | [] -> raise Conflict
              | [ unit_lit ] ->
                progress := true;
                assign ~is_pure:false unit_lit;
                None
              | lits ->
                if List.length lits <> List.length clause then
                  progress := true;
                Some lits)
          clauses
      in
      if !progress then propagate residual
      else begin
        match level with
        | `Count -> residual
        | `Sat ->
          (* Pure literals: polarity masks over the residual clauses.
             occ.(v-1) is a 2-bit mask (1 = positive seen, 2 = negative
             seen); mask 1 or 2 on an unassigned variable means pure. *)
          let occ = Array.make n 0 in
          List.iter
            (List.iter (fun l ->
                 let v = abs l in
                 occ.(v - 1) <- occ.(v - 1) lor (if l > 0 then 1 else 2)))
            residual;
          let found = ref false in
          Array.iteri
            (fun i mask ->
              if (mask = 1 || mask = 2) && assignment.(i) = 0 then begin
                found := true;
                assign ~is_pure:true (if mask = 1 then i + 1 else -(i + 1))
              end)
            occ;
          if !found then propagate residual else residual
      end
    in
    let residual = propagate clauses in
    (* Renumber the surviving variables onto 1..m, preserving relative
       order so components and their clause folds stay deterministic. *)
    let used = Array.make n false in
    List.iter (List.iter (fun l -> used.(abs l - 1) <- true)) residual;
    let new_of_old = Array.make n 0 in
    let var_of_new = ref [] in
    let next = ref 0 in
    for v = 1 to n do
      if used.(v - 1) then begin
        incr next;
        new_of_old.(v - 1) <- !next;
        var_of_new := v :: !var_of_new
      end
    done;
    let var_of_new = Array.of_list (List.rev !var_of_new) in
    let clauses =
      List.map
        (List.map (fun l ->
             let m = new_of_old.(abs l - 1) in
             if l > 0 then m else -m))
        residual
    in
    let forced = List.sort compare !forced in
    let pure = List.sort compare !pure in
    Simplified
      {
        cnf = { Dimacs.num_vars = !next; clauses };
        var_of_new;
        forced;
        free_vars = n - !next - List.length forced - List.length pure;
        pure_eliminated = pure;
        removed_tautologies = !tautologies;
        removed_duplicates = !duplicates;
      }
  with Conflict -> Unsat

let count_exact s = s.pure_eliminated = []

let original_count s core =
  if not (count_exact s) then
    invalid_arg
      "Cnf_preprocess.original_count: pure-literal elimination loses models \
       (use count_bounds)";
  Bigint.mul core (Bigint.pow2 s.free_vars)

let count_bounds s core =
  let lo = Bigint.mul core (Bigint.pow2 s.free_vars) in
  (lo, Bigint.shift_left lo (List.length s.pure_eliminated))

(* ------------------------------------------------------------------ *)
(* Primal-graph connected components                                   *)
(* ------------------------------------------------------------------ *)

type component = { comp_cnf : Dimacs.t; comp_var_of_new : int array }

let split (d : Dimacs.t) =
  let n = d.Dimacs.num_vars in
  (* The range check of [run], for callers that skip preprocessing. *)
  let used = Array.make n false in
  List.iter
    (List.iter (fun l ->
         if l = 0 || l < -n || l > n then
           invalid_arg "Cnf_preprocess.split: literal out of range";
         used.(abs l - 1) <- true))
    d.Dimacs.clauses;
  let uf = Ugraph.Union_find.create n in
  List.iter
    (function
      | [] | [ _ ] -> ()
      | first :: rest ->
        let a = abs first - 1 in
        List.iter (fun l -> Ugraph.Union_find.union uf a (abs l - 1)) rest)
    d.Dimacs.clauses;
  (* Components of the used variables only, keyed by class root; each
     clause lands with its variables (a clause's variables are all in
     one class by construction). *)
  let comp_index = Hashtbl.create 16 in
  let n_comps = ref 0 in
  for v = 0 to n - 1 do
    if used.(v) then begin
      let r = Ugraph.Union_find.find uf v in
      if not (Hashtbl.mem comp_index r) then begin
        Hashtbl.add comp_index r !n_comps;
        incr n_comps
      end
    end
  done;
  let k = !n_comps in
  if k = 0 then begin
    (* No clause mentions a variable: at most a bundle of empty clauses. *)
    if d.Dimacs.clauses = [] then []
    else
      [
        {
          comp_cnf = { Dimacs.num_vars = 0; clauses = d.Dimacs.clauses };
          comp_var_of_new = [||];
        };
      ]
  end
  else begin
    let vars = Array.make k [] in
    for v = n - 1 downto 0 do
      if used.(v) then begin
        let i = Hashtbl.find comp_index (Ugraph.Union_find.find uf v) in
        vars.(i) <- (v + 1) :: vars.(i)
      end
    done;
    let new_of_old = Array.make n 0 in
    Array.iter
      (fun vs -> List.iteri (fun j v -> new_of_old.(v - 1) <- j + 1) vs)
      vars;
    let clauses = Array.make k [] in
    (* Walk clauses in reverse so each component's clause order matches
       the input order after the consing below. *)
    List.iter
      (fun clause ->
        let i =
          match clause with
          | [] -> 0 (* empty clauses ride with the first component *)
          | l :: _ ->
            Hashtbl.find comp_index (Ugraph.Union_find.find uf (abs l - 1))
        in
        let mapped =
          List.map
            (fun l ->
              let m = new_of_old.(abs l - 1) in
              if l > 0 then m else -m)
            clause
        in
        clauses.(i) <- mapped :: clauses.(i))
      (List.rev d.Dimacs.clauses);
    List.init k (fun i ->
        {
          comp_cnf =
            {
              Dimacs.num_vars = List.length vars.(i);
              clauses = clauses.(i);
            };
          comp_var_of_new = Array.of_list vars.(i);
        })
  end
