open Test_util

let int_pair = QCheck2.Gen.(pair (int_range (-1000000) 1000000) (int_range (-1000000) 1000000))

let big_gen =
  (* Random big integers built from digit strings, including negatives. *)
  QCheck2.Gen.(
    map2
      (fun neg digits ->
        let s = String.concat "" (List.map string_of_int digits) in
        let s = if s = "" then "0" else s in
        Bigint.of_string (if neg then "-" ^ s else s))
      bool
      (list_size (int_range 1 12) (int_range 0 999)))

(* Up to ~400 bits: many quotient digits against multi-digit divisors. *)
let wide_gen =
  QCheck2.Gen.(
    map2
      (fun neg chunks ->
        let s = String.concat "" (List.map (Printf.sprintf "%03d") chunks) in
        Bigint.of_string (if neg then "-" ^ s else s))
      bool
      (list_size (int_range 1 40) (int_range 0 999)))

(* Magnitudes as base-2^15 limbs, lowest first, with runs of 0x7fff
   (the largest limb) so that sums and shifts carry across many limbs,
   and zero limbs, at the top too. *)
let limbs_gen =
  QCheck2.Gen.(
    map List.concat
      (list_size (int_range 1 6)
         (oneof
            [
              map (fun k -> List.init k (fun _ -> 0x7fff)) (int_range 1 8);
              map (fun d -> [ d ]) (int_range 0 0x7fff);
              return [ 0 ];
            ])))

let of_limbs (neg, limbs) =
  let x =
    List.fold_right
      (fun d acc -> Bigint.add (Bigint.mul acc (Bigint.of_int 0x8000)) (Bigint.of_int d))
      limbs Bigint.zero
  in
  if neg then Bigint.neg x else x

(* The bit length of the magnitude, read off the limbs. *)
let limbs_bits limbs =
  let rec bits d = if d = 0 then 0 else 1 + bits (d lsr 1) in
  fst
    (List.fold_left
       (fun (len, i) d -> ((if d <> 0 then (15 * i) + bits d else len), i + 1))
       (0, 0) limbs)

(* A value with a leading zero limb compares unequal to its reparse,
   since [compare] counts limbs first. *)
let canonical x = Bigint.equal x (Bigint.of_string (Bigint.to_string x))

let suite =
  [
    case "of_int/to_int roundtrip" (fun () ->
        List.iter
          (fun n -> checki "roundtrip" n (Bigint.to_int_exn (Bigint.of_int n)))
          [ 0; 1; -1; 42; -12345; max_int / 2; min_int / 2; max_int; min_int + 1 ]);
    case "string roundtrip" (fun () ->
        List.iter
          (fun s -> checks "roundtrip" s Bigint.(to_string (of_string s)))
          [ "0"; "1"; "-1"; "123456789012345678901234567890"; "-9"; "10000000000000000000000" ]);
    case "leading zeros parse" (fun () ->
        check bigint "007" (Bigint.of_int 7) (Bigint.of_string "007"));
    case "pow2" (fun () ->
        checks "2^100" "1267650600228229401496703205376" (Bigint.to_string (Bigint.pow2 100)));
    case "pow" (fun () ->
        check bigint "3^7" (Bigint.of_int 2187) (Bigint.pow (Bigint.of_int 3) 7);
        check bigint "x^0" Bigint.one (Bigint.pow (Bigint.of_int 999) 0));
    case "factorial 30" (fun () ->
        let fact n =
          let rec go acc i =
            if i > n then acc else go (Bigint.mul acc (Bigint.of_int i)) (i + 1)
          in
          go Bigint.one 1
        in
        checks "30!" "265252859812191058636308480000000" (Bigint.to_string (fact 30)));
    case "division by zero" (fun () ->
        Alcotest.check_raises "raise" Division_by_zero (fun () ->
            ignore (Bigint.div Bigint.one Bigint.zero)));
    case "divexact rejects inexact" (fun () ->
        Alcotest.check_raises "raise"
          (Invalid_argument "Bigint.divexact: inexact division") (fun () ->
            ignore (Bigint.divexact (Bigint.of_int 7) (Bigint.of_int 2))));
    case "gcd" (fun () ->
        check bigint "gcd(12,18)" (Bigint.of_int 6)
          (Bigint.gcd (Bigint.of_int 12) (Bigint.of_int 18));
        check bigint "gcd(-12,18)" (Bigint.of_int 6)
          (Bigint.gcd (Bigint.of_int (-12)) (Bigint.of_int 18));
        check bigint "gcd(0,0)" Bigint.zero (Bigint.gcd Bigint.zero Bigint.zero));
    case "num_bits/testbit" (fun () ->
        checki "bits of 0" 0 (Bigint.num_bits Bigint.zero);
        checki "bits of 1" 1 (Bigint.num_bits Bigint.one);
        checki "bits of 2^100" 101 (Bigint.num_bits (Bigint.pow2 100));
        checkb "bit 100 of 2^100" true (Bigint.testbit (Bigint.pow2 100) 100);
        checkb "bit 99 of 2^100" false (Bigint.testbit (Bigint.pow2 100) 99));
    qtest "add agrees with int" int_pair (fun (a, b) ->
        Bigint.to_int_exn (Bigint.add (Bigint.of_int a) (Bigint.of_int b)) = a + b);
    qtest "sub agrees with int" int_pair (fun (a, b) ->
        Bigint.to_int_exn (Bigint.sub (Bigint.of_int a) (Bigint.of_int b)) = a - b);
    qtest "mul agrees with int" int_pair (fun (a, b) ->
        Bigint.to_int_exn (Bigint.mul (Bigint.of_int a) (Bigint.of_int b)) = a * b);
    qtest "divmod agrees with int"
      QCheck2.Gen.(pair (int_range (-100000) 100000) (int_range (-1000) 1000))
      (fun (a, b) ->
        b = 0
        ||
        let q, r = Bigint.divmod (Bigint.of_int a) (Bigint.of_int b) in
        Bigint.to_int_exn q = a / b && Bigint.to_int_exn r = a mod b);
    qtest "compare agrees with int" int_pair (fun (a, b) ->
        Bigint.compare (Bigint.of_int a) (Bigint.of_int b) = compare a b);
    qtest "add commutative (big)" QCheck2.Gen.(pair big_gen big_gen) (fun (a, b) ->
        Bigint.equal (Bigint.add a b) (Bigint.add b a));
    qtest "mul commutative (big)" QCheck2.Gen.(pair big_gen big_gen) (fun (a, b) ->
        Bigint.equal (Bigint.mul a b) (Bigint.mul b a));
    qtest "mul distributes over add (big)"
      QCheck2.Gen.(triple big_gen big_gen big_gen)
      (fun (a, b, c) ->
        Bigint.equal
          (Bigint.mul a (Bigint.add b c))
          (Bigint.add (Bigint.mul a b) (Bigint.mul a c)));
    qtest "divmod invariant (big)" QCheck2.Gen.(pair big_gen big_gen) (fun (a, b) ->
        Bigint.is_zero b
        ||
        let q, r = Bigint.divmod a b in
        Bigint.equal a (Bigint.add (Bigint.mul q b) r)
        && Bigint.compare (Bigint.abs r) (Bigint.abs b) < 0
        && (Bigint.is_zero r || Bigint.sign r = Bigint.sign a));
    case "divmod when a quotient digit is estimated one too large" (fun () ->
        (* Inputs that take the add-back step of the long division. *)
        List.iter
          (fun (a, b) ->
            let a = Bigint.of_string a and b = Bigint.of_string b in
            let q, r = Bigint.divmod a b in
            check bigint "a = q*b + r" a (Bigint.add (Bigint.mul q b) r);
            checkb "0 <= r < b" true (Bigint.sign r >= 0 && Bigint.compare r b < 0))
          [
            ("301033482863171267570504", "72754732531772");
            ("171632199158703560053", "9543784478");
            ("2205967624346849049941931830435762", "163979000486236");
          ]);
    qtest ~count:500 "divmod invariant (wide)" QCheck2.Gen.(pair wide_gen wide_gen)
      (fun (a, b) ->
        Bigint.is_zero b
        ||
        let q, r = Bigint.divmod a b in
        Bigint.equal a (Bigint.add (Bigint.mul q b) r)
        && Bigint.compare (Bigint.abs r) (Bigint.abs b) < 0
        && (Bigint.is_zero r || Bigint.sign r = Bigint.sign a));
    qtest "string roundtrip (big)" big_gen (fun a ->
        Bigint.equal a (Bigint.of_string (Bigint.to_string a)));
    qtest "sub then add roundtrip (big)" QCheck2.Gen.(pair big_gen big_gen)
      (fun (a, b) -> Bigint.equal a (Bigint.add (Bigint.sub a b) b));
    qtest "shift_left is mul by 2^k" QCheck2.Gen.(pair big_gen (int_range 0 70))
      (fun (a, k) -> Bigint.equal (Bigint.shift_left a k) (Bigint.mul a (Bigint.pow2 k)));
    qtest ~count:500 "carry chains: add and shift_left size their results"
      QCheck2.Gen.(
        pair
          (pair (pair bool limbs_gen) (pair bool limbs_gen))
          (int_range 0 70))
      (fun ((((_, lx) as x), y), k) ->
        let x = of_limbs x and y = of_limbs y in
        let sum = Bigint.add x y and shifted = Bigint.shift_left x k in
        Bigint.num_bits x = limbs_bits lx
        && Bigint.num_bits shifted = (if Bigint.is_zero x then 0 else limbs_bits lx + k)
        && canonical sum && canonical shifted
        && Bigint.equal shifted (Bigint.mul x (Bigint.pow2 k))
        && Bigint.equal (Bigint.sub sum y) x);
    qtest "gcd divides both (big)" QCheck2.Gen.(pair big_gen big_gen) (fun (a, b) ->
        let g = Bigint.gcd a b in
        Bigint.is_zero g
        || (Bigint.is_zero (Bigint.rem a g) && Bigint.is_zero (Bigint.rem b g)));
  ]

let big_pow b k = Bigint.pow (Bigint.of_int b) k

(* Relative error within 1e-12; a nan result fails. *)
let near_float want got =
  if not (Float.abs (got -. want) <= 1e-12 *. Float.abs want) then
    Alcotest.failf "want %h, got %h" want got

let ratio_suite =
  [
    case "normalization" (fun () ->
        check ratio "2/4 = 1/2" (Ratio.of_ints 1 2) (Ratio.of_ints 2 4);
        check ratio "-1/-2 = 1/2" (Ratio.of_ints 1 2) (Ratio.of_ints (-1) (-2));
        checks "print" "-1/2" (Ratio.to_string (Ratio.of_ints 1 (-2))));
    case "arithmetic" (fun () ->
        check ratio "1/2+1/3" (Ratio.of_ints 5 6)
          (Ratio.add (Ratio.of_ints 1 2) (Ratio.of_ints 1 3));
        check ratio "1/2*2/3" (Ratio.of_ints 1 3)
          (Ratio.mul (Ratio.of_ints 1 2) (Ratio.of_ints 2 3));
        check ratio "(1/2)/(3/4)" (Ratio.of_ints 2 3)
          (Ratio.div (Ratio.of_ints 1 2) (Ratio.of_ints 3 4)));
    case "division by zero" (fun () ->
        Alcotest.check_raises "raise" Division_by_zero (fun () ->
            ignore (Ratio.div Ratio.one Ratio.zero)));
    qtest "field laws on small rationals"
      QCheck2.Gen.(
        quad (int_range (-50) 50) (int_range 1 50) (int_range (-50) 50) (int_range 1 50))
      (fun (a, b, c, d) ->
        let x = Ratio.of_ints a b and y = Ratio.of_ints c d in
        Ratio.equal (Ratio.add x y) (Ratio.add y x)
        && Ratio.equal (Ratio.sub (Ratio.add x y) y) x
        && Ratio.equal (Ratio.mul x y) (Ratio.mul y x));
    qtest "to_float consistent"
      QCheck2.Gen.(pair (int_range (-1000) 1000) (int_range 1 1000))
      (fun (a, b) ->
        abs_float (Ratio.to_float (Ratio.of_ints a b) -. (float_of_int a /. float_of_int b))
        < 1e-9);
    case "to_float: 3^700/8^400 (both operands past the float range)"
      (fun () ->
        (* exp(700 ln 3 - 400 ln 8) ≈ 5.6e-28 *)
        near_float
          (Float.exp ((700. *. Float.log 3.) -. (400. *. Float.log 8.)))
          (Ratio.to_float (Ratio.make (big_pow 3 700) (big_pow 8 400))));
    case "to_float: (2^1100-1)/2^1100" (fun () ->
        near_float 1.0
          (Ratio.to_float
             (Ratio.make (Bigint.pred (Bigint.pow2 1100)) (Bigint.pow2 1100))));
    case "to_float: (2^1100+1)/2^2300 underflows to 0" (fun () ->
        Alcotest.(check (float 0.)) "2^-1200" 0.0
          (Ratio.to_float
             (Ratio.make (Bigint.succ (Bigint.pow2 1100)) (Bigint.pow2 2300))));
  ]

let suites = [ ("bigint", suite); ("ratio", ratio_suite) ]
