(* Host time and host allocation, the two quantities every metric of the
   benchmark is built from. Time is CLOCK_MONOTONIC (bechamel's stub), so
   no latency can go negative across a wall-clock step. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let since t0 = now () - t0

(* Words allocated so far by this domain, counting promoted words once:
   minor + major - promoted is the runtime's own definition of the total. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The host's speed, read off a fixed loop in two parts. One streams
   writes 36 times through an 8 MiB buffer kept outside the OCaml heap:
   the size of the benchmark's minor heap, which every allocation of
   the program streams through the same way. The other is a 20 M-step
   integer recurrence. On a shared machine the speed drifts by up to 2x
   over minutes, sometimes in the memory system, where other tenants'
   traffic goes through the same cache, and sometimes in the CPU time
   the hypervisor takes. The two parts see these in different measure.
   On two traces of sim passes, one with spells of cache contention
   and one with heavy CPU steal, their sum tracked the passes about as
   well as the streaming part alone on the first and clearly better on
   the second; the integer part alone did not see the first. One
   untimed sweep first makes the reading independent of what the
   program left in the cache. See {!Yardstick} in bench.ml. *)
let buffer =
  lazy
    (let a = Bigarray.(Array1.create int c_layout (1 lsl 20)) in
     Bigarray.Array1.fill a 0;
     a)

let sweep (a : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t) r =
  for i = 0 to Bigarray.Array1.dim a - 1 do
    Bigarray.Array1.unsafe_set a i (i + r)
  done

let reference () =
  let a = Lazy.force buffer in
  sweep a 0;
  let t0 = now () in
  for r = 1 to 36 do
    sweep a r
  done;
  let x = ref 1 in
  for i = 1 to 20_000_000 do
    x := (!x * 1103515245) + i land 0x3fffffff
  done;
  ignore (Sys.opaque_identity !x);
  since t0

let percentile a q =
  if Array.length a = 0 then nan
  else
    let s = Array.copy a in
    Array.sort compare s;
    Metrics.Stats.percentile s q

let median a = percentile a 50.0

(* A growable buffer of float samples kept outside the OCaml heap, so
   the benchmark's own bookkeeping neither shows in the heap-peak metric
   nor allocates per sample next to the allocation metrics. *)
module Samples = struct
  open Bigarray

  type t = { mutable a : (float, float64_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create float64 c_layout 256; n = 0 }

  let add t v =
    if t.n = Array1.dim t.a then begin
      let b = Array1.create float64 c_layout (2 * t.n) in
      Array1.blit t.a (Array1.sub b 0 t.n);
      t.a <- b
    end;
    t.a.{t.n} <- v;
    t.n <- t.n + 1

  let length t = t.n
  let get t i = t.a.{i}
  let set t i v = t.a.{i} <- v
  let to_array t = Array.init t.n (fun i -> t.a.{i})
end
