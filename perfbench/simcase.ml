(* Booting one simulated machine per case, running it to quiescence and
   checking what came out. Shared by the three sim workloads. *)

open Ksim

type ctx = {
  kernel : Kernel.t;
  case : int;
  spans : Spans.t;
  mutable run_span : int;
  lat : Clock.Samples.t;
      (** host ns of each of the case's unit operations, in the order the
          simulation performed them (the same order on every run) *)
  mutable failures : string list;
  statuses : Buffer.t;  (** every checked exit status, for the digest *)
  corrupt : bool;
      (** self-test hook: the first checked status or reply is expected to
          be something else, so the tests can show that a bad one is
          counted *)
  mutable corrupted : bool;
}

let fail ctx msg =
  ctx.failures <- Printf.sprintf "case %d: %s" ctx.case msg :: ctx.failures

let syscalls k = (Kstat.global (Kernel.kstat k)).Kstat.syscalls

(* A span around one call into [Ksim.Api] from a benchmark program body.
   The calling thread may be descheduled inside the call, so the span
   also covers other simulated threads; the syscalls field says how many
   syscalls completed within it. *)
let api ctx ?(units = 0) name f =
  if not (Spans.enabled ctx.spans) then f ()
  else begin
    let s0 = syscalls ctx.kernel in
    let id = Spans.start ctx.spans ~name ~parent:ctx.run_span ~case:ctx.case in
    let r = f () in
    Spans.stop ctx.spans id ~syscalls:(syscalls ctx.kernel - s0) ~units;
    r
  end

(* Unwrap a syscall result inside a program body; on error record the
   failure and end the calling process. *)
let ok ctx what = function
  | Ok v -> v
  | Error e ->
    fail ctx (what ^ ": " ^ Errno.to_string e);
    Api.exit 125

let status_string = function
  | Types.Exited c -> "exit:" ^ string_of_int c
  | Types.Killed s -> "kill:" ^ Usignal.to_string s

let corrupt_once ctx =
  let c = ctx.corrupt && not ctx.corrupted in
  if c then ctx.corrupted <- true;
  c

let expect_status ctx ~what ~expected got =
  let expected =
    if not (corrupt_once ctx) then expected
    else match expected with
      | Types.Exited c -> Types.Exited (c + 1)
      | Types.Killed _ -> Types.Exited 0
  in
  Buffer.add_string ctx.statuses (what ^ "=" ^ status_string got ^ ";");
  if not (Types.status_equal expected got) then
    fail ctx
      (Printf.sprintf "%s: status %s, expected %s" what (status_string got)
         (status_string expected))

let wait ctx ~what ~expected pid =
  let st = ok ctx ("wait " ^ what) (api ctx "ksim.api.wait" (fun () -> Api.wait_for pid)) in
  expect_status ctx ~what ~expected st

type result = {
  syscalls : int;
  host_ns : int;  (** boot + run *)
  run_words : float;  (** host words allocated inside [Kernel.run] *)
  digest : string;  (** of every simulated number the case produced *)
  failures : string list;
  kstat : Kstat.counters;  (** global counters at quiescence *)
  trace_dropped : int;  (** ring events lost to overflow *)
  lat : Clock.Samples.t;
}

let add_float b x = Buffer.add_string b (Printf.sprintf "%h;" x)

let digest_of k ctx outcome =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Format.asprintf "%a|" Kernel.pp_outcome outcome);
  Buffer.add_buffer b ctx.statuses;
  let cats =
    List.sort compare (Vmem.Cost.by_category_counts (Kernel.cost k))
  in
  List.iter
    (fun (cat, (cycles, events)) ->
      Buffer.add_string b cat;
      add_float b cycles;
      Buffer.add_string b (string_of_int events ^ ";"))
    cats;
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%s=%d;" name v))
    (Kstat.snapshot (Kstat.global (Kernel.kstat k)));
  Buffer.add_string b (Kernel.console k);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The cost model's subsystem groups partition the categories, so they
   must add up to the machine's total cycles exactly. *)
let check_groups ctx k =
  let cost = Kernel.cost k in
  let groups =
    Forkroad.Sim_driver.groups_of_breakdown (Vmem.Cost.by_category cost)
  in
  let sum = List.fold_left (fun a (_, c) -> a +. c) 0.0 groups in
  if sum <> Vmem.Cost.total cost then
    fail ctx
      (Printf.sprintf "subsystem groups sum to %h, total cycles %h" sum
         (Vmem.Cost.total cost))

(* Boot a machine whose init runs [init], with [programs] registered
   beside it, run it to quiescence and check the result. [programs] and
   [init] receive the case context, so program bodies can record spans
   and latency samples on the host. *)
let run ?(corrupt = false) ~spans ~case ~config ~programs ~init () =
  let lat = Clock.Samples.create () in
  let root = Spans.start spans ~name:"case" ~parent:(-1) ~case in
  let t0 = Clock.now () in
  let boot = Spans.start spans ~name:"ksim.boot" ~parent:root ~case in
  let k = Kernel.create ~config () in
  let ctx =
    {
      kernel = k;
      case;
      spans;
      run_span = root;
      lat;
      failures = [];
      statuses = Buffer.create 256;
      corrupt;
      corrupted = false;
    }
  in
  let init_prog = Program.make ~name:"/sbin/init" (fun ~argv:_ () -> init ctx) in
  Kernel.register_all k (init_prog :: programs ctx);
  let frames0 = Vmem.Frame.used (Kernel.frames k) in
  (match Kernel.spawn_init k "/sbin/init" with
  | Ok _ -> ()
  | Error e -> fail ctx ("spawn_init: " ^ Errno.to_string e));
  Spans.stop spans boot;
  let run_id = Spans.start spans ~name:"ksim.run" ~parent:root ~case in
  ctx.run_span <- run_id;
  let w0 = Clock.words () in
  let outcome = Kernel.run k in
  let t2 = Clock.now () in
  let w2 = Clock.words () in
  let run_words = w2 -. w0 in
  let n = syscalls k in
  Spans.stop spans run_id ~syscalls:n;
  Spans.stop spans root ~syscalls:n;
  (match outcome with
  | Kernel.All_exited -> ()
  | o -> fail ctx (Format.asprintf "outcome %a" Kernel.pp_outcome o));
  let frames1 = Vmem.Frame.used (Kernel.frames k) in
  if frames1 <> frames0 then
    fail ctx (Printf.sprintf "frames in use %d after the run, %d before init" frames1 frames0);
  check_groups ctx k;
  let trace_dropped =
    match Kernel.trace k with
    | None -> 0
    | Some tr -> (
      match config.Kernel.trace_capacity with
      | Some cap -> max 0 (Trace.total tr - cap)
      | None -> 0)
  in
  {
    syscalls = n;
    host_ns = t2 - t0;
    run_words;
    digest = digest_of k ctx outcome;
    failures = List.rev ctx.failures;
    kstat = Kstat.global (Kernel.kstat k);
    trace_dropped;
    lat;
  }
