type t = { num : Bigint.t; den : Bigint.t }

let normalize num den =
  if Bigint.is_zero den then raise Division_by_zero;
  let num, den = if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den) else (num, den) in
  if Bigint.is_zero num then { num = Bigint.zero; den = Bigint.one }
  else begin
    let g = Bigint.gcd num den in
    { num = Bigint.divexact num g; den = Bigint.divexact den g }
  end

let make num den = normalize num den
let of_bigint n = { num = n; den = Bigint.one }
let of_int n = of_bigint (Bigint.of_int n)
let of_ints a b = make (Bigint.of_int a) (Bigint.of_int b)

let zero = of_int 0
let one = of_int 1

let num r = r.num
let den r = r.den

let add a b =
  normalize
    (Bigint.add (Bigint.mul a.num b.den) (Bigint.mul b.num a.den))
    (Bigint.mul a.den b.den)

let neg a = { a with num = Bigint.neg a.num }
let sub a b = add a (neg b)
let mul a b = normalize (Bigint.mul a.num b.num) (Bigint.mul a.den b.den)
let div a b = normalize (Bigint.mul a.num b.den) (Bigint.mul a.den b.num)

let compare a b =
  Bigint.compare (Bigint.mul a.num b.den) (Bigint.mul b.num a.den)

let equal a b = compare a b = 0
let sign a = Bigint.sign a.num

(* Both operands are cut to their top 64 bits before dividing, so
   operands past the float range cannot make [inf /. inf]; [ldexp]
   restores the scale and rounds to 0 or infinity only when the
   quotient itself is out of range. *)
let to_float a =
  let top x =
    let k = Stdlib.max 0 (Bigint.num_bits x - 64) in
    (Bigint.to_float (Bigint.div x (Bigint.pow2 k)), k)
  in
  let n, kn = top a.num and d, kd = top a.den in
  Float.ldexp (n /. d) (kn - kd)

let to_string a =
  if Bigint.equal a.den Bigint.one then Bigint.to_string a.num
  else Bigint.to_string a.num ^ "/" ^ Bigint.to_string a.den

let pp ppf a = Format.pp_print_string ppf (to_string a)

let sum l = List.fold_left add zero l
let product l = List.fold_left mul one l

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( = ) = equal
end
