(* One benchmark run: set up a workload from its seed, measure it for the
   requested time, check every output and report the metrics. *)

let workloads = [ "sim_fork_sweep"; "sim_demand"; "sim_serve"; "real_spawn" ]

(* ---- metric names, units and report lines ---------------------------- *)

let end_to_end =
  [
    ("ops_per_s", "ops/s");
    ("alloc_words_per_op", "words/op");
    ("heap_peak_mib", "MiB");
    ("op_us_p50", "us");
    ("op_us_p90", "us");
    ("setup_s", "s");
  ]

let per_layer =
  [
    ("vmem.clone_cow.ns_per_kpage", "ns/kpage");
    ("vmem.clone_cow.words_per_kpage", "words/kpage");
    ("vmem.clone_eager.ns_per_page", "ns/page");
    ("vmem.zero_fault.ns_per_page", "ns/page");
    ("vmem.zero_fault.words_per_page", "words/page");
    ("vmem.cow_fault.ns_per_page", "ns/page");
    ("vmem.cow_fault.words_per_page", "words/page");
    ("vmem.zygote_clone.us", "us");
    ("vmem.map_lazy.ns_per_call", "ns/call");
    ("vmem.lazy_fault_ra0.ns_per_page", "ns/page");
    ("vmem.lazy_fault_ra64.ns_per_page", "ns/page");
    ("vmem.lazy_fault.words_per_page", "words/page");
    ("vmem.destroy.ns_per_page", "ns/page");
    ("vmem.ptes_copied", "count");
    ("vmem.cow_breaks", "count");
    ("vmem.frames_copied", "count");
    ("vmem.frames_zeroed", "count");
    ("vmem.tlb_shootdowns", "count");
    ("ksim.boot.us", "us");
    ("ksim.run.ns_per_syscall", "ns/syscall");
    ("ksim.run.words_per_syscall", "words/syscall");
    ("ksim.api.fork.us", "us");
    ("ksim.api.spawn.us", "us");
    ("ksim.api.template_spawn.us", "us");
    ("ksim.api.touch.ns_per_page", "ns/page");
    ("ksim.api.request_rtt.us", "us");
    ("ksim.trace.record.ns", "ns");
    ("ksim.syscalls", "count");
    ("ksim.major_faults", "count");
    ("ksim.pages_fetched", "count");
    ("ksim.oom_kills", "count");
    ("ksim.smp.steals", "count");
    ("ksim.smp.ipis", "count");
    ("ksim.readahead_useful_ratio", "ratio");
    ("ksim.trace.dropped", "count");
    ("spawnlib.run.us_p50", "us");
    ("spawnlib.run.us_p90", "us");
    ("spawnlib.spawn.us", "us");
    ("spawnlib.wait.us", "us");
    ("spawnlib.native.posix_spawn.us", "us");
    ("spawnlib.native.vfork_exec.us", "us");
    ("spawnlib.native.fork_exec.us", "us");
    ("spawnlib.pool.submit.us", "us");
    ("spawnlib.pool.create.ms", "ms");
    ("spawnlib.pool.retried", "count");
    ("spawnlib.pool.respawns", "count");
    ("spawnlib.pool.rtt_us_p50", "us");
    ("spawnlib.pool.rtt_us_p99", "us");
    ("gc.minor_words", "words");
    ("gc.promoted_words", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
  ]

type report = {
  mutable attempted : int;
  mutable failed : int;  (** operations that failed a check *)
  mutable failures : string list;  (** what failed, newest first *)
  mutable values : (string * float) list;
  mutable notes : string list;  (** extra lines: sample counts, bases *)
}

let set r name v = r.values <- (name, v) :: List.remove_assoc name r.values
let note r fmt = Printf.ksprintf (fun s -> r.notes <- s :: r.notes) fmt

(* One failed operation, with everything it got wrong. *)
let fail_op r msgs =
  if msgs <> [] then begin
    r.failed <- r.failed + 1;
    r.failures <- List.rev_append msgs r.failures
  end

let fail r msg = fail_op r [ msg ]

let heap_peak_mib () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let deadline seconds = Clock.now () + int_of_float (seconds *. 1e9)

(* The sim workloads' host-time metrics are reported at a fixed host
   speed. Set-up and the untraced measurement each take exactly
   [readings] readings of the reference loop, spread over them, and the
   fastest reading stands for how fast the host was meanwhile. Rates are
   multiplied, and times divided, by that reading over [nominal_ns],
   which is about what the loop took at a quiet moment of the 2-vCPU
   host the benchmark was built on. The number of readings does not
   depend on the program measured, so a faster program still reads
   faster; the raw figures and the readings are printed beside the
   scaled ones. real_spawn is not scaled: its time goes to the kernel's
   process creation and pipes and to scheduling three processes on the
   host's CPUs, which the loop does not track, and in a ten-seed and a
   six-seed test scaling doubled its spread. Per-layer timings stay raw. *)
module Yardstick = struct
  let nominal_ns = 55_000_000
  let readings = 9

  type t = { start : int; slot : int; mutable taken : int; mutable fastest : int }

  (* The first [readings - 1] readings fall at the starts of equal slots
     of [seconds]; [finish] takes the rest. *)
  let create ~seconds =
    { start = Clock.now (); slot = int_of_float (seconds *. 1e9) / (readings - 1); taken = 0;
      fastest = max_int }

  let read t =
    t.taken <- t.taken + 1;
    t.fastest <- min t.fastest (Clock.reference ())

  (* Between two units of work: the readings whose slot has begun. *)
  let tick t =
    while t.taken < readings - 1 && Clock.now () >= t.start + (t.taken * t.slot) do read t done

  let finish t =
    while t.taken < readings do read t done;
    t.fastest

  let scale ref_ns = float_of_int ref_ns /. float_of_int nominal_ns
end

(* Time [f] several times, calling [before] untimed ahead of each, and
   keep the fastest, since interference only ever adds time. Returns the
   fastest set-up in seconds and the last result of [f]. *)
let setup_reps = 7

let fastest_setup ~before f =
  let best = ref infinity in
  let last = ref None in
  for i = 0 to setup_reps - 1 do
    before ();
    let t0 = Clock.now () in
    let v = f ~last:(i = setup_reps - 1) in
    best := Float.min !best (float_of_int (Clock.since t0) /. 1e9);
    last := Some v
  done;
  (!best, Option.get !last)

(* The untraced figures, scaled to the reference reading [ref_ns]. *)
let at_nominal ~ref_ns e2e =
  let s = Yardstick.scale ref_ns in
  List.map
    (fun (name, v) ->
      match name with
      | "ops_per_s" -> (name, v *. s)
      | "op_us_p50" | "op_us_p90" -> (name, v /. s)
      | _ -> (name, v))
    e2e

(* Median and p90 of latency samples in ns, as us. The p90 is the tail
   every workload can back with ten samples beyond it; p99 is printed
   with its sample count where there are enough. *)
let pct_line r name lat =
  let a = Clock.Samples.to_array lat in
  let n = Array.length a in
  let beyond q = n - int_of_float (Float.ceil (q *. float_of_int n)) in
  let us q = Clock.percentile a q /. 1000.0 in
  note r "%s samples=%d p90=%.1fus (%d beyond) p99=%.1fus (%d beyond)" name n (us 90.0)
    (beyond 0.90) (us 99.0) (beyond 0.99);
  (us 50.0, us 90.0)

let gc_delta r (g0 : Gc.stat) (g1 : Gc.stat) =
  set r "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
  set r "gc.promoted_words" (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  set r "gc.minor_collections" (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
  set r "gc.major_collections" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections))

(* ---- sim workloads --------------------------------------------------- *)

type case = {
  pages : int;  (** footprint or image the case maps *)
  vmas : int;
  run : ?corrupt:bool -> spans:Spans.t -> unit -> Simcase.result;
}

let batch = function
  | "sim_fork_sweep" -> 32
  | "sim_demand" -> 24
  | _ -> 128

let sim_cases name ~seed =
  let n = batch name in
  match name with
  | "sim_fork_sweep" ->
    Array.mapi
      (fun id (c : Fork_sweep.case) ->
        { pages = c.fmib * 256; vmas = c.vmas;
          run = (fun ?corrupt ~spans () -> Fork_sweep.run_case ?corrupt ~spans ~id c) })
      (Fork_sweep.gen ~seed ~n)
  | "sim_demand" ->
    Array.mapi
      (fun id (c : Demand.case) ->
        { pages = Demand.image_pages c; vmas = 1;
          run = (fun ?corrupt ~spans () -> Demand.run_case ?corrupt ~spans ~id c) })
      (Demand.gen ~seed ~n)
  | "sim_serve" ->
    Array.mapi
      (fun id (c : Serve.case) ->
        { pages = Serve.master_pages; vmas = 1;
          run = (fun ?corrupt ~spans () -> Serve.run_case ?corrupt ~spans ~id c) })
      (Serve.gen ~seed ~n)
  | _ -> invalid_arg ("unknown sim workload " ^ name)

type pass = {
  heap_mib : float;  (** heap peak of the process when the pass ended *)
  syscalls : int;
  words : float;  (** host words allocated by the pass *)
  digest : string;
  results : Simcase.result list;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
}

(* Every case of the batch once, in order, on one domain. Each case
   starts from a finished major cycle, untimed, so the heap a case grows
   to depends on that case alone and not on where the collector stood
   when it began. *)
let run_pass ?corrupt r ~spans cases =
  let gc0 = Gc.quick_stat () in
  let w0 = Clock.words () in
  let results =
    Workload.Par.map ~jobs:1
      (fun c ->
        Gc.major ();
        c.run ?corrupt ~spans ())
      (Array.to_list cases)
  in
  let words = Clock.words () -. w0 in
  let gc1 = Gc.quick_stat () in
  let heap_mib = heap_peak_mib () in
  List.iter
    (fun (res : Simcase.result) ->
      r.attempted <- r.attempted + 1;
      fail_op r res.Simcase.failures)
    results;
  {
    heap_mib;
    syscalls = List.fold_left (fun a x -> a + x.Simcase.syscalls) 0 results;
    words;
    digest =
      Digest.to_hex
        (Digest.string (String.concat "" (List.map (fun x -> x.Simcase.digest) results)));
    results;
    gc0;
    gc1;
  }

(* The machine is shared and interference only ever adds time, so each
   case's host time, and each of its operations' latency, is the fastest
   the passes saw. The simulation is deterministic, so operation k of a
   case is the same operation in every pass. *)
type best = {
  ns : int array;  (** per case *)
  lat : Clock.Samples.t array;  (** per case, per operation *)
}

let improve r best pass =
  List.iteri
    (fun i (res : Simcase.result) ->
      best.ns.(i) <- min best.ns.(i) res.Simcase.host_ns;
      let b = best.lat.(i) and l = res.Simcase.lat in
      if Clock.Samples.length b = 0 then
        for k = 0 to Clock.Samples.length l - 1 do Clock.Samples.add b (Clock.Samples.get l k) done
      else if Clock.Samples.length b <> Clock.Samples.length l then
        fail r (Printf.sprintf "case %d: %d operations, %d in an earlier pass" i
                  (Clock.Samples.length l) (Clock.Samples.length b))
      else
        for k = 0 to Clock.Samples.length l - 1 do
          Clock.Samples.set b k (Float.min (Clock.Samples.get b k) (Clock.Samples.get l k))
        done)
    pass.results

(* Passes until [seconds] have gone, and at least [min_passes]. *)
let min_passes = 3

let measure_sim r ~spans ~seconds cases =
  let n = Array.length cases in
  let best = { ns = Array.make n max_int; lat = Array.init n (fun _ -> Clock.Samples.create ()) } in
  let y = Yardstick.create ~seconds in
  let stop = deadline seconds in
  let rec loop acc k =
    Yardstick.tick y;
    let p = run_pass r ~spans cases in
    improve r best p;
    (* keep the first pass whole for the counts; later ones as summaries *)
    let acc = (if k = 0 then p else { p with results = [] }) :: acc in
    if k + 1 < min_passes || Clock.now () < stop then loop acc (k + 1) else List.rev acc
  in
  let passes = loop [] 0 in
  (passes, best, Yardstick.finish y)

(* Simulated results must not depend on the pass or on tracing. *)
let check_digests r passes =
  match passes with
  | [] -> ""
  | p :: rest ->
    List.iteri
      (fun i q ->
        if q.digest <> p.digest then
          fail r (Printf.sprintf "pass %d digest %s differs from pass 0 digest %s" (i + 1) q.digest p.digest))
      rest;
    p.digest

(* The heap peak is read after set-up and the first pass: the allocation
   sequence up to there is fixed for a seed, so the peak is too, while
   later passes only add chances for fragmentation to grow it. *)
let sim_e2e r ~label passes best =
  let p = List.hd passes in
  let lat = Clock.Samples.create () in
  Array.iter
    (fun b -> for k = 0 to Clock.Samples.length b - 1 do Clock.Samples.add lat (Clock.Samples.get b k) done)
    best.lat;
  (* a workload whose cases time no operation of their own (sim_serve:
     its requests' host latency is bimodal by serving model) times whole
     cases *)
  if Clock.Samples.length lat = 0 then
    Array.iter (fun ns -> Clock.Samples.add lat (float_of_int ns)) best.ns;
  let p50, p90 = pct_line r (label ^ "op_us") lat in
  let ns = Array.fold_left ( + ) 0 best.ns in
  [
    ("ops_per_s", float_of_int p.syscalls /. (float_of_int ns /. 1e9));
    ("alloc_words_per_op", Clock.median (Array.of_list (List.map (fun p -> p.words /. float_of_int p.syscalls) passes)));
    ("heap_peak_mib", p.heap_mib);
    ("op_us_p50", p50);
    ("op_us_p90", p90);
  ]

(* Exact counts of one pass, summed over its cases. *)
let sim_counts r pass =
  let sum f =
    List.fold_left (fun a (x : Simcase.result) -> a + f x.Simcase.kstat) 0 pass.results
  in
  let open Ksim.Kstat in
  let c name f = set r name (float_of_int (sum f)) in
  c "vmem.ptes_copied" (fun k -> k.ptes_copied);
  c "vmem.cow_breaks" (fun k -> k.cow_breaks);
  c "vmem.frames_copied" (fun k -> k.frames_copied);
  c "vmem.frames_zeroed" (fun k -> k.frames_zeroed);
  c "vmem.tlb_shootdowns" (fun k -> k.tlb_shootdowns);
  c "ksim.syscalls" (fun k -> k.syscalls);
  c "ksim.major_faults" (fun k -> k.major_faults);
  c "ksim.pages_fetched" (fun k -> k.pages_fetched);
  c "ksim.oom_kills" (fun k -> k.oom_kills);
  c "ksim.smp.steals" (fun k -> k.cpu_steals);
  c "ksim.smp.ipis" (fun k -> k.ipis_sent);
  let base = sum (fun k -> k.pages_fetched - k.major_faults) in
  let hits = sum (fun k -> k.readahead_hits) in
  set r "ksim.readahead_useful_ratio"
    (if base > 0 then float_of_int hits /. float_of_int base else 0.0);
  note r "ksim.readahead_useful_ratio base: %d readahead hits of %d readahead pages" hits base;
  set r "ksim.trace.dropped"
    (float_of_int (List.fold_left (fun a (x : Simcase.result) -> a + x.Simcase.trace_dropped) 0 pass.results))

(* Set-up: generate the batch, then warm the code and heap on its four
   smallest cases. Returns the fastest set-up, its reference reading and
   the batch. *)
let sim_setup r name ~seed =
  let y = Yardstick.create ~seconds:0.0 in
  let best, cases =
    fastest_setup ~before:(fun () -> Yardstick.read y) (fun ~last:_ ->
        let cases = sim_cases name ~seed in
        let by_size = Array.copy cases in
        Array.stable_sort (fun a b -> compare a.pages b.pages) by_size;
        let (_ : pass) = run_pass r ~spans:Spans.off (Array.sub by_size 0 4) in
        cases)
  in
  ((best, Yardstick.finish y), cases)

let sizes_of cases =
  (* four cases at the octile midpoints of the batch's sizes *)
  let s = Array.copy cases in
  Array.sort (fun a b -> compare a.pages b.pages) s;
  let n = Array.length s in
  List.sort_uniq compare
    (List.map (fun q -> let c = s.(min (n - 1) (q * n / 8)) in (c.pages, c.vmas)) [ 1; 3; 5; 7 ])

let span_median spans name scale =
  let d = Spans.durations spans name in
  if Array.length d = 0 then 0.0 else Clock.median d /. scale

let span_rate spans name =
  let d, u = Spans.totals spans name in
  if u = 0 then 0.0 else float_of_int d /. float_of_int u

(* The allocation figure comes from an [untraced] pass: with tens of
   thousands of spans held, per-case windows of the runtime's word
   counters read several times too low, though pass totals stayed
   right. *)
let sim_layers r spans ~untraced ~cases =
  let probes = Layer_probe.run spans ~sizes:(sizes_of cases) ~reps:3 in
  Hashtbl.iter (fun name _ -> set r name (Layer_probe.median probes name)) probes;
  set r "ksim.boot.us" (span_median spans "ksim.boot" 1000.0);
  let run_ns, run_sc =
    Spans.fold spans ~name:"ksim.run" ~init:(0, 0) ~f:(fun (d, n) s ->
        (d + (s.Spans.stop - s.Spans.start), n + s.Spans.syscalls))
  in
  set r "ksim.run.ns_per_syscall" (float_of_int run_ns /. float_of_int (max 1 run_sc));
  let p = List.hd untraced in
  let words = List.fold_left (fun w (x : Simcase.result) -> w +. x.Simcase.run_words) 0.0 p.results in
  set r "ksim.run.words_per_syscall" (words /. float_of_int (max 1 p.syscalls));
  set r "ksim.api.fork.us" (span_median spans "ksim.api.fork" 1000.0);
  set r "ksim.api.spawn.us" (span_median spans "ksim.api.spawn" 1000.0);
  set r "ksim.api.template_spawn.us" (span_median spans "ksim.api.template_spawn" 1000.0);
  set r "ksim.api.touch.ns_per_page" (span_rate spans "ksim.api.touch");
  set r "ksim.api.request_rtt.us" (span_median spans "ksim.api.request_rtt" 1000.0)

(* ---- real_spawn ------------------------------------------------------ *)

(* Each measurement is split into rounds of creations then pool load,
   and each metric is the mean over the middle half of the rounds. The
   pool's throughput swings from round to round, by up to 2x within
   seconds: on a 5-minute trace of rounds, the mean of the middle four
   of eight was as steady as the mean of all eight, and steadier than
   their median, their better half or their best, while a stalled round
   or two cannot move it. Averaging also keeps the Pool.Load
   percentiles, which come on a grid of about 0.24 us, from repeating
   exactly. *)
let rounds = 8
let creation_share = 0.5

let real_setup r ~seed =
  let inputs = Real.gen ~seed in
  let tally = { Real.attempted = 0; failures = [] } in
  let create_ms = Clock.Samples.create () in
  let setup_s, env =
    fastest_setup ~before:ignore (fun ~last ->
        let env = Real.setup tally in
        Clock.Samples.add create_ms (float_of_int env.Real.pool_create_ns /. 1e6);
        if not last then begin
          Real.teardown env;
          Gc.full_major ()
        end;
        env)
  in
  set r "spawnlib.pool.create.ms" (Clock.median (Clock.Samples.to_array create_ms));
  (setup_s, inputs, tally, env)

let real_load () =
  { Real.completed = 0; load_ns = 0; retried = 0; respawns = 0; rtt_us = Clock.Samples.create () }

type real_round = { lat : Clock.Samples.t; load : Real.load }

let measure_real env inputs tally spans ~seconds =
  let w0 = Clock.words () in
  let per = seconds /. float_of_int rounds in
  let all = real_load () in
  let rs =
    List.init rounds (fun _ ->
        let lat = Clock.Samples.create () and load = real_load () in
        Real.creations env inputs tally spans ~lat ~deadline:(deadline (creation_share *. per));
        Real.pool_load env inputs tally spans load ~deadline:(deadline ((1.0 -. creation_share) *. per));
        all.Real.completed <- all.Real.completed + load.Real.completed;
        all.Real.retried <- all.Real.retried + load.Real.retried;
        all.Real.respawns <- all.Real.respawns + load.Real.respawns;
        for k = 0 to Clock.Samples.length load.Real.rtt_us - 1 do
          Clock.Samples.add all.Real.rtt_us (Clock.Samples.get load.Real.rtt_us k)
        done;
        { lat; load })
  in
  (rs, all, Clock.words () -. w0)

let real_e2e r ~label (rs, all, words) =
  let heap = heap_peak_mib () in
  let creations = List.fold_left (fun a x -> a + Clock.Samples.length x.lat) 0 rs in
  let pct s q = Clock.percentile (Clock.Samples.to_array s) q in
  let middle_mean f =
    let v = Array.of_list (List.map f rs) in
    Array.sort compare v;
    let q = Array.length v / 4 in
    let mid = Array.sub v q (Array.length v - (2 * q)) in
    Array.fold_left ( +. ) 0.0 mid /. float_of_int (Array.length mid)
  in
  List.iteri
    (fun i x ->
      note r "%sround %d: %d Spawn.run p50=%.1fus p90=%.1fus; %d pool round trips in %d ms p50=%.1fus p90=%.1fus"
        label i (Clock.Samples.length x.lat) (pct x.lat 50.0 /. 1000.0) (pct x.lat 90.0 /. 1000.0)
        x.load.Real.completed (x.load.Real.load_ns / 1_000_000) (pct x.load.Real.rtt_us 50.0)
        (pct x.load.Real.rtt_us 90.0))
    rs;
  set r "spawnlib.run.us_p50" (middle_mean (fun x -> pct x.lat 50.0 /. 1000.0));
  set r "spawnlib.run.us_p90" (middle_mean (fun x -> pct x.lat 90.0 /. 1000.0));
  [
    ( "ops_per_s",
      middle_mean (fun x ->
          float_of_int x.load.Real.completed /. (float_of_int x.load.Real.load_ns /. 1e9)) );
    ("alloc_words_per_op", words /. float_of_int (max 1 (creations + all.Real.completed)));
    ("heap_peak_mib", heap);
    ("op_us_p50", middle_mean (fun x -> pct x.load.Real.rtt_us 50.0));
    ("op_us_p90", middle_mean (fun x -> pct x.load.Real.rtt_us 90.0));
  ]

let pool_rtt r (all : Real.load) =
  let a = Clock.Samples.to_array all.Real.rtt_us in
  note r "pool rtt samples=%d" (Array.length a);
  set r "spawnlib.pool.rtt_us_p50" (Clock.percentile a 50.0);
  set r "spawnlib.pool.rtt_us_p99" (Clock.percentile a 99.0)

(* ---- one run --------------------------------------------------------- *)

type outcome = {
  report : report;
  e2e : (string * float) list;
  raw : (string * float) list;  (** sim: [e2e] before the scaling to host speed *)
  refs : (string * int) list;  (** sim: the reference readings, in ns, it used *)
  digest : string option;
  overhead : (string * float * float) list;
      (** traced runs: each end-to-end metric but set-up, raw, traced and
          untraced *)
  spans : Spans.t;
}

let run ~workload ~seed ~seconds ~trace () =
  let r = { attempted = 0; failed = 0; failures = []; values = []; notes = [] } in
  let spans = if trace then Spans.create () else Spans.off in
  let untraced_s = if trace then 0.4 *. seconds else seconds in
  let overhead e0 e1 = List.map (fun (name, v) -> (name, List.assoc name e1, v)) e0 in
  match workload with
  | "real_spawn" ->
    let setup_s, inputs, tally, env = real_setup r ~seed in
    let g0 = Gc.quick_stat () in
    let m0 = measure_real env inputs tally Spans.off ~seconds:untraced_s in
    gc_delta r g0 (Gc.quick_stat ());
    let raw0 = real_e2e r ~label:"" m0 in
    let e0 = raw0 @ [ ("setup_s", setup_s) ] in
    let _, all0, _ = m0 in
    pool_rtt r all0;
    let e1 =
      if not trace then []
      else begin
        let m1 = measure_real env inputs tally spans ~seconds:untraced_s in
        let _, all1, _ = m1 in
        Real.natives tally spans ~n:30;
        Real.verify env inputs tally spans ~n:200;
        set r "spawnlib.spawn.us" (span_median spans "spawnlib.spawn" 1000.0);
        set r "spawnlib.wait.us" (span_median spans "spawnlib.wait" 1000.0);
        List.iter
          (fun p ->
            let name = "spawnlib.native." ^ p in
            set r (name ^ ".us") (span_median spans name 1000.0))
          [ "posix_spawn"; "vfork_exec"; "fork_exec" ];
        set r "spawnlib.pool.submit.us" (span_median spans "spawnlib.pool.submit" 1000.0);
        set r "spawnlib.pool.retried" (float_of_int (all0.Real.retried + all1.Real.retried));
        set r "spawnlib.pool.respawns" (float_of_int (all0.Real.respawns + all1.Real.respawns));
        real_e2e r ~label:"traced " m1
      end
    in
    if not trace then Real.verify env inputs tally Spans.off ~n:64;
    (try Real.teardown env with Failure m -> Real.fail tally m);
    r.attempted <- r.attempted + tally.Real.attempted;
    List.iter (fail r) (List.rev tally.Real.failures);
    { report = r; e2e = e0; raw = []; refs = []; digest = None;
      overhead = (if trace then overhead raw0 e1 else []); spans }
  | name ->
    let (setup_raw, setup_ref_ns), cases = sim_setup r name ~seed in
    let passes0, best0, ref_ns = measure_sim r ~spans:Spans.off ~seconds:untraced_s cases in
    let digest = check_digests r passes0 in
    let raw0 = sim_e2e r ~label:"" passes0 best0 in
    let e0 =
      at_nominal ~ref_ns raw0 @ [ ("setup_s", setup_raw /. Yardstick.scale setup_ref_ns) ]
    in
    note r "passes=%d cases/pass=%d" (List.length passes0) (Array.length cases);
    let p0 = List.hd passes0 in
    sim_counts r p0;
    gc_delta r p0.gc0 p0.gc1;
    let e1 =
      if not trace then []
      else begin
        let passes1, best1, _ = measure_sim r ~spans ~seconds:untraced_s cases in
        let d1 = check_digests r passes1 in
        if d1 <> digest then
          fail r (Printf.sprintf "traced digest %s differs from untraced digest %s" d1 digest);
        let e1 = sim_e2e r ~label:"traced " passes1 best1 in
        sim_layers r spans ~untraced:passes0 ~cases;
        e1
      end
    in
    { report = r; e2e = e0; raw = raw0 @ [ ("setup_s", setup_raw) ];
      refs = [ ("reference_ns", ref_ns); ("setup_reference_ns", setup_ref_ns) ];
      digest = Some digest;
      overhead = (if trace then overhead raw0 e1 else []); spans }
