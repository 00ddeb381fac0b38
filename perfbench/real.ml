(* real_spawn: spawnlib on the real OS. One host process holds a 256 MiB
   touched footprint, so every fork-based creation pays for duplicating
   it; it then runs Spawn.run of /bin/true one at a time and drives a
   Pool of /bin/cat workers through Pool.Load with one request
   outstanding per worker. *)

open Spawnlib

let footprint_mib = 256
let true_prog = "/bin/true"

type action = No_action | Dup2_null | Close_stdin

type inputs = {
  actions : action array;  (** cycled through by the creations *)
  lines : string array;  (** pool request lines, 16 B - 4 KiB *)
}

let gen ~seed =
  let g = Gen.create ~seed ~n:512 in
  let lens = Gen.unit g in
  let r = Gen.rng g in
  let lines =
    Array.map
      (fun u ->
        String.init (Gen.log_int ~lo:16 ~hi:4096 u) (fun _ ->
            Char.chr (97 + Prng.Splitmix.int r ~bound:26)))
      lens
  in
  let actions = Array.init 300 (fun i -> [| No_action; Dup2_null; Close_stdin |].(i mod 3)) in
  Prng.Splitmix.shuffle r actions;
  { actions; lines }

let workers () = Domain.recommended_domain_count ()

type env = {
  fp : Workload.Footprint.t;
  null : Unix.file_descr;
  pool : Pool.t;
  pool_create_ns : int;
}

(* Unix.file_descr is the fd number on Unix; spawnlib's file actions
   take the number. *)
let int_of_fd : Unix.file_descr -> int = Obj.magic

let file_actions env = function
  | No_action -> []
  | Dup2_null -> [ File_action.dup2 ~src:(int_of_fd env.null) ~dst:1 ]
  | Close_stdin -> [ File_action.close 0 ]

type tally = { mutable attempted : int; mutable failures : string list }

let fail tally msg = tally.failures <- msg :: tally.failures

(* Footprint, /dev/null, and a warmed pool (each worker echoes one line
   before serving), then one creation so the first timed one is not the
   first ever. *)
let setup tally =
  let fp = Workload.Footprint.allocate ~mib:footprint_mib in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let t0 = Clock.now () in
  let warmup ~send ~recv =
    send "warm";
    if recv () <> "warm" then failwith "pool warm-up: wrong echo"
  in
  match Pool.create ~warmup ~size:(workers ()) ~prog:"/bin/cat" ~argv:[ "cat" ] () with
  | Error e -> failwith ("Pool.create: " ^ Pool.error_message e)
  | Ok pool ->
    let pool_create_ns = Clock.since t0 in
    (match Spawn.run ~prog:true_prog ~argv:[ "true" ] () with
    | Ok (Process.Exited 0) -> ()
    | Ok st -> fail tally (Format.asprintf "warm-up creation: %a" Process.pp_status st)
    | Error e -> fail tally ("warm-up creation: " ^ Spawn.error_message e));
    { fp; null; pool; pool_create_ns }

let teardown env =
  List.iter
    (fun st ->
      if not (Process.status_equal st (Process.Exited 0)) then
        failwith (Format.asprintf "pool worker ended %a" Process.pp_status st))
    (Pool.shutdown env.pool);
  Unix.close env.null;
  ignore (Workload.Footprint.checksum env.fp);
  Workload.Footprint.release env.fp

let check_exit tally what = function
  | Ok (Process.Exited 0) -> ()
  | Ok st -> fail tally (Format.asprintf "%s: %a" what Process.pp_status st)
  | Error e -> fail tally (what ^ ": " ^ Spawn.error_message e)

(* Creations until [deadline]: Spawn.run of /bin/true, one at a time.
   Traced, the run is split into its two halves, Spawn.spawn and
   Process.wait, each a span under one spawnlib.run span. *)
let creations env inputs tally spans ~lat ~deadline =
  while Clock.now () < deadline do
    let i = tally.attempted in
    let actions = file_actions env inputs.actions.(i mod Array.length inputs.actions) in
    tally.attempted <- i + 1;
    let t0 = Clock.now () in
    let r =
      if not (Spans.enabled spans) then Spawn.run ~actions ~prog:true_prog ~argv:[ "true" ] ()
      else begin
        let run = Spans.start spans ~name:"spawnlib.run" ~parent:(-1) ~case:i in
        let s = Spans.start spans ~name:"spawnlib.spawn" ~parent:run ~case:i in
        let p = Spawn.spawn ~actions ~prog:true_prog ~argv:[ "true" ] () in
        Spans.stop spans s;
        let r =
          Result.map
            (fun p ->
              let w = Spans.start spans ~name:"spawnlib.wait" ~parent:run ~case:i in
              let st = Process.wait p in
              Spans.stop spans w;
              st)
            p
        in
        Spans.stop spans run;
        r
      end
    in
    Clock.Samples.add lat (float_of_int (Clock.since t0));
    check_exit tally (Printf.sprintf "creation %d" i) r
  done

type load = {
  mutable completed : int;
  mutable load_ns : int;
  mutable retried : int;
  mutable respawns : int;
  rtt_us : Clock.Samples.t;
}

let batch = 2000

(* Pool.Load batches until [deadline]; the first request of each batch
   continues the seeded line sequence. Load reports per-reply latency
   but not the replies themselves, so reply contents are checked by
   {!verify}. *)
let pool_load env inputs tally spans load ~deadline =
  let base = ref 0 in
  let nl = Array.length inputs.lines in
  while Clock.now () < deadline do
    let b = !base in
    let id = Spans.start spans ~name:"spawnlib.pool.load" ~parent:(-1) ~case:b in
    let t0 = Clock.now () in
    let r =
      Pool.Load.run ~concurrency:(workers ()) ~requests:batch
        ~request:(fun k -> inputs.lines.((b + k) mod nl))
        env.pool
    in
    load.load_ns <- load.load_ns + Clock.since t0;
    Spans.stop spans id ~units:r.Pool.Load.completed;
    tally.attempted <- tally.attempted + batch;
    load.completed <- load.completed + r.Pool.Load.completed;
    load.retried <- load.retried + r.Pool.Load.retried;
    load.respawns <- load.respawns + r.Pool.Load.respawns;
    Array.iter (fun s -> Clock.Samples.add load.rtt_us (s *. 1e6)) r.Pool.Load.latencies;
    if r.Pool.Load.completed <> batch || r.Pool.Load.errors > 0 then
      fail tally
        (Printf.sprintf "pool batch at %d: %d of %d replies, %d errors" b
           r.Pool.Load.completed batch r.Pool.Load.errors);
    base := b + batch
  done

(* One request outstanding: every reply must equal its request line.
   [corrupt] expects a wrong reply once, so the tests can show that a
   bad reply is counted. *)
let verify ?(corrupt = false) env inputs tally spans ~n =
  for k = 0 to n - 1 do
    let line = inputs.lines.(k mod Array.length inputs.lines) in
    let expect = if corrupt && k = 0 then line ^ "x" else line in
    tally.attempted <- tally.attempted + 1;
    let id = Spans.start spans ~name:"spawnlib.pool.submit" ~parent:(-1) ~case:k in
    let r = Pool.submit env.pool line in
    Spans.stop spans id ~units:1;
    match r with
    | Ok reply when reply = expect -> ()
    | Ok reply ->
      fail tally (Printf.sprintf "pool reply %d: %d bytes differ from the request" k (String.length reply))
    | Error e -> fail tally ("pool submit: " ^ Pool.error_message e)
  done

(* Create + wait on each native path from the same footprint. *)
let natives tally spans ~n =
  let paths =
    [
      ("spawnlib.native.posix_spawn", fun () -> Native.posix_spawn ~prog:true_prog ~argv:[ "true" ] ());
      ("spawnlib.native.vfork_exec", fun () -> Native.vfork_exec ~prog:true_prog ~argv:[ "true" ] ());
      ("spawnlib.native.fork_exec", fun () -> Native.fork_exec ~prog:true_prog ~argv:[ "true" ] ());
    ]
  in
  List.iter
    (fun (name, create) ->
      for k = 1 to n do
        tally.attempted <- tally.attempted + 1;
        let id = Spans.start spans ~name ~parent:(-1) ~case:k in
        (match create () with
        | Ok pid ->
          let code = Native.wait_exit pid in
          if code <> 0 then fail tally (Printf.sprintf "%s: exit %d" name code)
        | Error errno -> fail tally (name ^ ": " ^ Native.errno_message errno));
        Spans.stop spans id
      done)
    paths
