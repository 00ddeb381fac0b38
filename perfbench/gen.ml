(* Seeded input generation. Every sim workload draws a batch of [n]
   cases. Each input dimension is split into [n] equal strata and every
   case takes a different stratum, with the seed choosing the value
   inside it, so each batch covers every range evenly. Strata are paired
   across dimensions by a fixed permutation per dimension. A new seed
   therefore changes every generated value, but not how heavy the batch
   is, which keeps host figures comparable from seed to seed. The case
   order is fixed too: it decides what garbage the heaviest case meets,
   and so the heap peak. *)

type t = { r : Prng.Splitmix.t; n : int; mutable dim : int }

(* Multipliers coprime to every batch size used (products of 2 and 3),
   so [i * m mod n] is a permutation of the strata. *)
let mults = [| 1; 5; 7; 11; 13; 17; 19; 23; 25; 29; 31; 35; 37; 41 |]

let create ~seed ~n = { r = Prng.Splitmix.create ~seed; n; dim = 0 }
let rng g = g.r

let strata g =
  let m = mults.(g.dim mod Array.length mults) in
  let off = g.dim in
  g.dim <- g.dim + 1;
  Array.init g.n (fun i -> ((i * m) + off) mod g.n)

(* One unit draw per case, case [i] from the middle quarter of its
   stratum of this dimension. Keeping draws off the stratum edges keeps
   the heaviest case, which sets the heap peak, within about 1 % of its
   size from seed to seed. *)
let unit g =
  let s = strata g in
  Array.map
    (fun k ->
      (float_of_int k +. 0.375 +. (0.25 *. Prng.Splitmix.float g.r)) /. float_of_int g.n)
    s

(* Categorical values in equal shares (when their count divides [n]). *)
let choice g choices =
  let k = Array.length choices in
  Array.map (fun s -> choices.(s * k / g.n)) (strata g)

(* Log-uniform integer in [lo, hi] for a unit draw [u]. *)
let log_int ~lo ~hi u =
  let x = float_of_int lo *. ((float_of_int hi /. float_of_int lo) ** u) in
  max lo (min hi (int_of_float (Float.round x)))

let lin_int ~lo ~hi u = lo + min (hi - lo) (int_of_float (u *. float_of_int (hi - lo + 1)))
