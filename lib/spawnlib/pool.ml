(* Prefork worker pool: the real-OS zygote analog. Workers are spawned
   once (paying the creation cost up front), warmed by a caller hook,
   and then serve requests over a line-oriented stdin/stdout protocol —
   so the per-request cost is a pipe round-trip, independent of how big
   the master has grown. Crashed workers are reaped and respawned under
   a {!Retry} policy, which is the part of the idiom fork-based pools
   usually get wrong. *)

type error =
  | Spawn_error of Spawn.error
  | Worker_lost
  | Warmup_failed of string

let error_message = function
  | Spawn_error e -> Spawn.error_message e
  | Worker_lost -> "worker died and its respawn could not serve the request"
  | Warmup_failed what -> "worker warmup failed: " ^ what

type stats = { size : int; spawned : int; respawns : int; served : int }

(* Per-slot serving statistics. A slot keeps its stats across crash
   respawns — operationally a slot is "worker #i of the pool", whatever
   pid currently fills it — which is exactly what a serving dashboard
   wants to watch. *)
type slot_stats = {
  slot : int;
  mutable slot_served : int;
  mutable slot_crashes : int;
  mutable slot_failed : int;
  latency : Metrics.Window.t;
      (** request latency in seconds, failed requests included *)
}

type worker = {
  proc : Process.t;
  to_worker : Unix.file_descr;  (** worker's stdin (write requests here) *)
  from_worker : in_channel;  (** worker's stdout (read replies here) *)
}

type t = {
  prog : string;
  argv : string list;
  attr : Spawn.attr;
  retry : Retry.policy;
  warmup : (send:(string -> unit) -> recv:(unit -> string) -> unit) option;
  workers : worker array;
  wstats : slot_stats array;
  mutable next : int;
  mutable spawned : int;
  mutable respawns : int;
  mutable served : int;
  mutable inflight : int;
  mutable max_inflight : int;
  mutable closed : bool;
}

let fd_int : Unix.file_descr -> int = Obj.magic

let write_line fd line =
  let s = line ^ "\n" in
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let dispose w =
  (try Unix.close w.to_worker with Unix.Unix_error _ -> ());
  (try close_in w.from_worker with Sys_error _ -> ());
  try ignore (Process.wait w.proc) with Unix.Unix_error _ -> ()

let start_worker t =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let close_all () =
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ req_r; req_w; resp_r; resp_w ]
  in
  let actions =
    [
      File_action.dup2 ~src:(fd_int req_r) ~dst:0;
      File_action.dup2 ~src:(fd_int resp_w) ~dst:1;
    ]
  in
  match
    Spawn.spawn_retrying ~policy:t.retry ~actions ~attr:t.attr ~prog:t.prog
      ~argv:t.argv ()
  with
  | Error e ->
    close_all ();
    Error (Spawn_error e)
  | Ok proc -> (
    Unix.close req_r;
    Unix.close resp_w;
    let w = { proc; to_worker = req_w; from_worker = Unix.in_channel_of_descr resp_r } in
    t.spawned <- t.spawned + 1;
    match t.warmup with
    | None -> Ok w
    | Some hook -> (
      (* a worker that dies mid-warmup (End_of_file on recv, EPIPE on
         send) must not leak the process or let the exception escape
         create/submit: reap it and report a typed error *)
      match
        hook
          ~send:(fun line -> write_line w.to_worker line)
          ~recv:(fun () -> input_line w.from_worker)
      with
      | () -> Ok w
      | exception e ->
        dispose w;
        Error (Warmup_failed (Printexc.to_string e))))

let create ?(attr = Spawn.default_attr) ?(retry = Retry.default) ?warmup
    ?(latency_window = 10.0) ~size ~prog ~argv () =
  if size < 1 then invalid_arg "Pool.create: size < 1";
  (* writing to a crashed worker must surface as EPIPE, not kill us *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let t =
    {
      prog;
      argv;
      attr;
      retry;
      warmup;
      workers = [||];
      wstats =
        Array.init size (fun slot ->
            {
              slot;
              slot_served = 0;
              slot_crashes = 0;
              slot_failed = 0;
              latency =
                Metrics.Window.create ~width:latency_window
                  ~hist_base:1e-6 ();
            });
      next = 0;
      spawned = 0;
      respawns = 0;
      served = 0;
      inflight = 0;
      max_inflight = 0;
      closed = false;
    }
  in
  let rec build acc n =
    if n = 0 then Ok (List.rev acc)
    else
      match start_worker t with
      | Ok w -> build (w :: acc) (n - 1)
      | Error e ->
        List.iter dispose acc;
        Error e
  in
  match build [] size with
  | Error e -> Error e
  | Ok ws -> Ok { t with workers = Array.of_list ws }

let size t = Array.length t.workers
let pids t = Array.to_list (Array.map (fun w -> Process.pid w.proc) t.workers)

let stats t =
  { size = size t; spawned = t.spawned; respawns = t.respawns; served = t.served }

let worker_stats t = Array.to_list t.wstats
let depth t = t.inflight
let max_depth t = t.max_inflight

let transact w line =
  write_line w.to_worker line;
  input_line w.from_worker

(* Round-robin dispatch. A dead worker (EPIPE on the request, EOF or a
   read error on the reply) is reaped, its slot respawned, and the
   request retried once on the replacement; a second death is reported
   rather than looped on. *)
let submit t line =
  if t.closed then invalid_arg "Pool.submit: pool is shut down";
  let i = t.next in
  t.next <- (t.next + 1) mod Array.length t.workers;
  let ws = t.wstats.(i) in
  let t0 = Unix.gettimeofday () in
  t.inflight <- t.inflight + 1;
  if t.inflight > t.max_inflight then t.max_inflight <- t.inflight;
  (* Latency is recorded whether the request succeeded or not: a crash
     plus respawn is exactly the tail a latency window exists to show,
     and dropping it understated p99 precisely when workers were dying. *)
  let record_latency () =
    let now = Unix.gettimeofday () in
    Metrics.Window.add ws.latency ~now (Float.max 0.0 (now -. t0))
  in
  let record_served () =
    t.served <- t.served + 1;
    ws.slot_served <- ws.slot_served + 1;
    record_latency ()
  in
  let record_failed () =
    ws.slot_failed <- ws.slot_failed + 1;
    record_latency ()
  in
  let attempt w =
    match transact w line with
    | reply -> Some reply
    | exception (Unix.Unix_error (Unix.EPIPE, _, _) | End_of_file | Sys_error _)
      ->
      ws.slot_crashes <- ws.slot_crashes + 1;
      None
  in
  Fun.protect
    ~finally:(fun () -> t.inflight <- t.inflight - 1)
    (fun () ->
      match attempt t.workers.(i) with
      | Some reply ->
        record_served ();
        Ok reply
      | None -> (
        dispose t.workers.(i);
        t.respawns <- t.respawns + 1;
        match start_worker t with
        | Error e ->
          record_failed ();
          Error e
        | Ok w -> (
          t.workers.(i) <- w;
          match attempt w with
          | Some reply ->
            record_served ();
            Ok reply
          | None ->
            record_failed ();
            Error Worker_lost)))

(* Select-based concurrent load driver. [submit] is strictly one
   request in flight per call; a serving benchmark needs hundreds. The
   driver keeps up to [concurrency] requests outstanding across the
   pool's workers, multiplexing replies with [Unix.select] and talking
   to the reply pipes with raw [Unix.read] (bypassing the [in_channel]
   buffer, which must be empty when the run starts — i.e. run it before
   any [submit]). A worker that dies mid-run (EOF on its reply pipe) is
   respawned and its in-flight requests are re-queued, so a SIGKILL at
   load is survived rather than reported as a batch of errors. *)
module Load = struct
  type result = {
    sent : int;
    completed : int;
    errors : int;
    retried : int;
    respawns : int;
    max_outstanding : int;
    wall_s : float;
    latencies : float array;
  }

  type slot = {
    idx : int;
    mutable cur : worker;
    mutable dead : bool;
    rbuf : Buffer.t;  (* partial reply line carried between reads *)
    inflight : (int * float) Queue.t;  (* (request id, send time) FIFO *)
  }

  let run ?(concurrency = 256) ?kill_after ~requests ~request t =
    if t.closed then invalid_arg "Pool.Load.run: pool is shut down";
    if concurrency < 1 then invalid_arg "Pool.Load.run: concurrency < 1";
    let nw = Array.length t.workers in
    let slots =
      Array.mapi
        (fun idx w ->
          { idx; cur = w; dead = false; rbuf = Buffer.create 256;
            inflight = Queue.create () })
        t.workers
    in
    let lat = ref [] in
    let sent = ref 0 and completed = ref 0 and errors = ref 0 in
    let retried = ref 0 and respawns = ref 0 and max_out = ref 0 in
    let killed = ref false in
    let resend = Queue.create () in
    let next = ref 0 in
    let outstanding () =
      Array.fold_left (fun a s -> a + Queue.length s.inflight) 0 slots
    in
    let crash s =
      (* replies the dead worker owed us will never come: re-queue them
         on the replacement (the protocol is a pure request/reply echo,
         so a duplicate send is harmless) *)
      let ids =
        List.rev (Queue.fold (fun acc (id, _) -> id :: acc) [] s.inflight)
      in
      Queue.clear s.inflight;
      Buffer.clear s.rbuf;
      dispose s.cur;
      incr respawns;
      t.respawns <- t.respawns + 1;
      match start_worker t with
      | Ok w ->
        s.cur <- w;
        t.workers.(s.idx) <- w;
        List.iter
          (fun id ->
            incr retried;
            Queue.add id resend)
          ids
      | Error _ ->
        s.dead <- true;
        errors := !errors + List.length ids
    in
    let send_to s id =
      Queue.add (id, Unix.gettimeofday ()) s.inflight;
      (* on EPIPE the request stays queued: the read side will see EOF
         on this worker and [crash] will re-queue it *)
      try write_line s.cur.to_worker (request id)
      with Unix.Unix_error (Unix.EPIPE, _, _) | Sys_error _ -> ()
    in
    let send_one id =
      let rec pick k =
        if k = 0 then None
        else begin
          let s = slots.(!next) in
          next := (!next + 1) mod nw;
          if s.dead then pick (k - 1) else Some s
        end
      in
      match pick nw with None -> incr errors | Some s -> send_to s id
    in
    (* The crash probe must kill a worker that still owes replies: a
       worker that has answered everything it was sent dies unnoticed,
       since only slots with requests in flight are waited on. So one
       fresh request is held back until the kill; the victim is stopped
       (and seen stopped) before it is sent that request, which it
       therefore provably never answers. The run cannot finish before
       that request is re-sent, i.e. before the victim's EOF has been
       read, the victim reaped and its slot respawned. *)
    let kill_pending () =
      match kill_after with
      | Some k -> (not !killed) && k < requests
      | None -> false
    in
    let kill_loaded_worker () =
      killed := true;
      let rec live i =
        if i >= nw then None
        else if slots.(i).dead then live (i + 1)
        else Some slots.(i)
      in
      match live 0 with
      | None -> ()
      | Some s -> (
        let pid = Process.pid s.cur.proc in
        let rec until_stopped () =
          match Unix.waitpid [ Unix.WUNTRACED ] pid with
          | _, st -> st
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> until_stopped ()
        in
        match
          Unix.kill pid Sys.sigstop;
          until_stopped ()
        with
        | Unix.WSTOPPED _ ->
          let id = !sent in
          incr sent;
          send_to s id;
          Unix.kill pid Sys.sigkill
        | Unix.WEXITED _ | Unix.WSIGNALED _ | (exception Unix.Unix_error _) -> ())
    in
    let complete s =
      match Queue.take_opt s.inflight with
      | None -> ()  (* unsolicited output line; not a reply we asked for *)
      | Some (_, t0) ->
        incr completed;
        lat := (Unix.gettimeofday () -. t0) :: !lat
    in
    let scratch = Bytes.create 65536 in
    let on_readable s =
      match
        Unix.read
          (Unix.descr_of_in_channel s.cur.from_worker)
          scratch 0 (Bytes.length scratch)
      with
      | 0 -> crash s
      | n ->
        Buffer.add_subbytes s.rbuf scratch 0 n;
        let data = Buffer.contents s.rbuf in
        Buffer.clear s.rbuf;
        let len = String.length data in
        let start = ref 0 in
        (try
           while !start < len do
             let nl = String.index_from data !start '\n' in
             complete s;
             start := nl + 1
           done
         with Not_found -> ());
        if !start < len then
          Buffer.add_substring s.rbuf data !start (len - !start)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> crash s
    in
    let t_start = Unix.gettimeofday () in
    let idle_rounds = ref 0 in
    while !completed + !errors < requests do
      (* keep the window full: re-queued work first, then fresh ids *)
      while
        outstanding () < concurrency
        && ((not (Queue.is_empty resend))
           || !sent < requests - if kill_pending () then 1 else 0)
        && Array.exists (fun s -> not s.dead) slots
      do
        (match Queue.take_opt resend with
        | Some id -> send_one id
        | None ->
          let id = !sent in
          incr sent;
          send_one id);
        let o = outstanding () in
        if o > !max_out then max_out := o
      done;
      (match kill_after with
      | Some k when kill_pending () && !completed >= k -> kill_loaded_worker ()
      | _ -> ());
      let waiting =
        Array.to_list slots
        |> List.filter (fun s ->
               (not s.dead) && not (Queue.is_empty s.inflight))
      in
      if waiting = [] then begin
        if not (Array.exists (fun s -> not s.dead) slots) then
          (* every slot dead and respawns failing: fail the remainder *)
          errors := !errors + (requests - !completed - !errors)
      end
      else begin
        let fds =
          List.map (fun s -> Unix.descr_of_in_channel s.cur.from_worker)
            waiting
        in
        match Unix.select fds [] [] 1.0 with
        | [], _, _ ->
          incr idle_rounds;
          if !idle_rounds > 30 then
            failwith "Pool.Load.run: stalled (no worker replied for 30s)"
        | readable, _, _ ->
          idle_rounds := 0;
          List.iter
            (fun s ->
              if
                (not s.dead)
                && List.mem
                     (Unix.descr_of_in_channel s.cur.from_worker)
                     readable
              then on_readable s)
            waiting
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      end
    done;
    let wall_s = Unix.gettimeofday () -. t_start in
    t.served <- t.served + !completed;
    let latencies = Array.of_list !lat in
    Array.sort compare latencies;
    {
      sent = !sent;
      completed = !completed;
      errors = !errors;
      retried = !retried;
      respawns = !respawns;
      max_outstanding = !max_out;
      wall_s;
      latencies;
    }
end

(* Read and discard the worker's remaining output until EOF. A worker
   blocked mid-[write] on a reply larger than the pipe buffer can never
   exit, so waiting on it before emptying its stdout pipe would deadlock
   the shutdown; draining unsticks the write and lets the worker see the
   closed stdin and terminate. *)
let drain_replies w =
  let buf = Bytes.create 65536 in
  try
    while input w.from_worker buf 0 (Bytes.length buf) > 0 do
      ()
    done
  with Sys_error _ | End_of_file -> ()

let shutdown t =
  if t.closed then []
  else begin
    t.closed <- true;
    Array.to_list
      (Array.map
         (fun w ->
           (try Unix.close w.to_worker with Unix.Unix_error _ -> ());
           drain_replies w;
           let status = Process.wait w.proc in
           (try close_in w.from_worker with Sys_error _ -> ());
           status)
         t.workers)
  end
