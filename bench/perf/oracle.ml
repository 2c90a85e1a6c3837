(* Reference answers that share no code with the compiler: no Lineage,
   Pipeline, Backend, Sdd — and not even the library's Bigint, so a
   bug in the shared arithmetic cannot agree with itself.  Counts are
   decimal strings, compared against [Bigint.to_string] of the
   program's answer.

   Every oracle is a dynamic program over a window that slides along
   the variable order; the families are chosen so that window stays
   small (bandwidth ≤ 7, ladders of 4 tracks). *)

(* Non-negative integers as little-endian limbs in base 10^18: addition
   is all the dynamic programs need, and the base makes printing
   trivial.  Two limbs plus a carry stay below [max_int]. *)
module Nat = struct
  type t = int array

  let base = 1_000_000_000_000_000_000
  let zero : t = [||]
  let one : t = [| 1 |]
  let is_zero (a : t) = Array.length a = 0

  let of_int n =
    if n < 0 then invalid_arg "Oracle.Nat.of_int: negative"
    else if n = 0 then zero
    else if n < base then [| n |]
    else [| n mod base; n / base |]

  let add (a : t) (b : t) : t =
    let la = Array.length a and lb = Array.length b in
    let n = max la lb in
    let r = Array.make (n + 1) 0 in
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let s =
        (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
      in
      if s >= base then begin
        r.(i) <- s - base;
        carry := 1
      end
      else begin
        r.(i) <- s;
        carry := 0
      end
    done;
    if !carry = 0 then Array.sub r 0 n
    else begin
      r.(n) <- 1;
      r
    end

  let pow2 k =
    let r = ref one in
    for _ = 1 to k do
      r := add !r !r
    done;
    !r

  let sum = Array.fold_left add zero

  let to_string (a : t) =
    let n = Array.length a in
    if n = 0 then "0"
    else begin
      let b = Buffer.create (18 * n) in
      Buffer.add_string b (string_of_int a.(n - 1));
      for i = n - 2 downto 0 do
        Buffer.add_string b (Printf.sprintf "%018d" a.(i))
      done;
      Buffer.contents b
    end
end

(* Models of a CNF over variables [1..num_vars] (DIMACS literals) whose
   clauses each span at most [w] consecutive variables.  Variables are
   fixed in order; the state is the assignment of the last [w - 1] of
   them (bit [k] = variable [i - 1 - k]), so there are 2^(w-1) states
   and a clause is checked when its largest variable is fixed. *)
let banded_count ~num_vars clauses =
  let by_top = Array.make (num_vars + 1) [] in
  let w =
    List.fold_left
      (fun w clause ->
        if clause = [] then invalid_arg "Oracle.banded_count: empty clause";
        let vs = List.map abs clause in
        let hi = List.fold_left max 0 vs and lo = List.fold_left min max_int vs in
        if lo < 1 || hi > num_vars then
          invalid_arg "Oracle.banded_count: literal out of range";
        by_top.(hi) <- clause :: by_top.(hi);
        max w (hi - lo + 1))
      1 clauses
  in
  if w > 16 then invalid_arg "Oracle.banded_count: bandwidth above 16";
  let states = 1 lsl (w - 1) in
  let counts = ref (Array.make states Nat.zero) in
  !counts.(0) <- Nat.one;
  for i = 1 to num_vars do
    let next = Array.make states Nat.zero in
    Array.iteri
      (fun s c ->
        if not (Nat.is_zero c) then
          for b = 0 to 1 do
            (* bit k of [win] is the value of variable [i - k] *)
            let win = (s lsl 1) lor b in
            let lit_true l =
              let v = (win lsr (i - abs l)) land 1 = 1 in
              if l > 0 then v else not v
            in
            if List.for_all (List.exists lit_true) by_top.(i) then begin
              let s' = win land (states - 1) in
              next.(s') <- Nat.add next.(s') c
            end
          done)
      !counts;
    counts := next
  done;
  Nat.to_string (Nat.sum !counts)

(* Models of DIMACS text as the benchmark writes it (one clause per
   line, "c" and "p" lines, no SATLIB footer), read without
   [Dimacs.parse]. *)
let dimacs_count text =
  let num_vars = ref (-1) in
  let clauses =
    List.filter_map
      (fun line ->
        let words = List.filter (( <> ) "") (String.split_on_char ' ' line) in
        match words with
        | [] | "c" :: _ -> None
        | [ "p"; "cnf"; v; _ ] ->
          num_vars := int_of_string v;
          None
        | lits ->
          (match List.rev_map int_of_string lits with
           | 0 :: rev -> Some (List.rev rev)
           | _ -> invalid_arg "Oracle.dimacs_count: clause without final 0"))
      (String.split_on_char '\n' text)
  in
  if !num_vars < 0 then invalid_arg "Oracle.dimacs_count: no header";
  banded_count ~num_vars:!num_vars clauses

(* The clauses of [Generators.band_cnf ~width n] over indices: clause
   [i] covers x_i .. x_(i+width-1), and x_k appears positively iff [k]
   is even. *)
let band_clauses ~width n =
  List.init
    (max 1 (n - width + 1))
    (fun i ->
      List.init width (fun j ->
          let k = i + 1 + j in
          if k land 1 = 0 then k else -k))

let band_circuit_count ~width n =
  if n < width then invalid_arg "Oracle.band_circuit_count: n < width";
  banded_count ~num_vars:n (band_clauses ~width n)

(* [Generators.chain_implications n]: the models of x1→x2→…→xn are the
   n+1 monotone threshold assignments. *)
let chain_count n =
  if n < 2 then invalid_arg "Oracle.chain_count: n < 2";
  Nat.to_string (Nat.of_int (n + 1))

(* [Generators.parity_chain n]: odd parity holds on half the cube. *)
let parity_count n =
  if n < 1 then invalid_arg "Oracle.parity_count: n < 1";
  Nat.to_string (Nat.pow2 (n - 1))

(* [Generators.ladder ~tracks n]: stage [s] maps the track values [a]
   and fresh bits [v] to [a'_t = v_t ? a_t : a_(t+1 mod tracks)], and
   every stage's tracks must not all be false.  The state is the track
   vector (2^tracks states); the stage-0 tracks are free variables. *)
let ladder_count ~tracks n =
  if n < 1 then invalid_arg "Oracle.ladder_count: n < 1";
  let states = 1 lsl tracks in
  let step a v =
    let r = ref 0 in
    for t = 0 to tracks - 1 do
      let src = if (v lsr t) land 1 = 1 then t else (t + 1) mod tracks in
      if (a lsr src) land 1 = 1 then r := !r lor (1 lsl t)
    done;
    !r
  in
  let counts = ref (Array.make states Nat.one) in
  for _ = 1 to n do
    let next = Array.make states Nat.zero in
    Array.iteri
      (fun a c ->
        for v = 0 to states - 1 do
          let a' = step a v in
          if a' <> 0 then next.(a') <- Nat.add next.(a') c
        done)
      !counts;
    counts := next
  done;
  Nat.to_string (Nat.sum !counts)
