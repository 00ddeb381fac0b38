(* sim_serve: the syscall path. An E17-style prefork server on an SMP
   machine with the kernel trace ring on: a 16 MiB master, 2-8 forked
   workers serving by dispatch over pipes or by per-worker accept, and a
   load generator whose client threads each connect, send a request,
   read the echoed reply and close. Arrivals are seeded in simulated
   time. Little vmem work: each request touches one 8-page window. *)

open Ksim

type model = Dispatch | Accept

type case = {
  cpus : int;
  workers : int;
  model : model;
  arrivals : int array;  (** client threads started per round *)
}

let page = Vmem.Addr.page_size
let port = 80
let gap = 4  (* simulated ticks between arrival rounds *)
let master_pages = 16 * 256
let win_pages = 8
let msg_len = 16
let trace_capacity = 16_384

let gen ~seed ~n =
  let g = Gen.create ~seed ~n in
  let workers = Gen.unit g and rounds = Gen.unit g in
  let cpus = Gen.choice g [| 2; 4 |] in
  (* a third dispatch: the two models' case times only partly overlap,
     and an even split would put the median case in the gap between
     them, where it jumps from seed to seed *)
  let model = Gen.choice g [| Dispatch; Accept; Accept |] in
  let bursty = Gen.choice g [| false; true |] in
  let r = Gen.rng g in
  Array.init n (fun i ->
    let arrivals =
      Forkroad.Exp_serve.schedule_of
        { Forkroad.Exp_serve.load_name = "perfbench"; lam = 3.0;
          rounds = Gen.lin_int ~lo:20 ~hi:40 rounds.(i); gap; bursty = bursty.(i);
          seed = Prng.Splitmix.next r }
    in
    {
      cpus = cpus.(i);
      workers = Gen.lin_int ~lo:2 ~hi:8 workers.(i);
      model = model.(i);
      arrivals;
    })

let total c = Array.fold_left ( + ) 0 c.arrivals
let request ~case i = Printf.sprintf "%07d:%08d" case i
let quit = String.make msg_len 'Q'

(* Read exactly [msg_len] bytes, or fewer at end of file. *)
let read_msg ctx fd =
  let b = Buffer.create msg_len in
  let rec go () =
    if Buffer.length b < msg_len then
      match Simcase.ok ctx "read" (Api.read fd (msg_len - Buffer.length b)) with
      | "" -> ()
      | s ->
        Buffer.add_string b s;
        go ()
  in
  go ();
  Buffer.contents b

let client ctx ~done_ i () =
  let id =
    Spans.start ctx.Simcase.spans ~name:"ksim.api.request_rtt"
      ~parent:ctx.Simcase.run_span ~case:ctx.Simcase.case
  in
  let s0 = Simcase.syscalls ctx.Simcase.kernel in
  let req = request ~case:ctx.Simcase.case i in
  let fd = Simcase.ok ctx "socket" (Api.socket ()) in
  Simcase.ok ctx "connect" (Api.connect fd ~port);
  Simcase.ok ctx "write" (Api.write_all fd req);
  let reply = read_msg ctx fd in
  ignore (Simcase.ok ctx "close" (Api.close fd));
  Spans.stop ctx.Simcase.spans id ~units:1
    ~syscalls:(Simcase.syscalls ctx.Simcase.kernel - s0);
  let expected = if Simcase.corrupt_once ctx then req ^ "?" else req in
  if reply <> expected then
    Simcase.fail ctx (Printf.sprintf "reply %S to request %S" reply req);
  incr done_

let loadgen ctx c ~done_ () =
  let i = ref 0 in
  Array.iter
    (fun k ->
      for _ = 1 to k do
        ignore (Simcase.ok ctx "thread_create" (Api.thread_create (client ctx ~done_ !i)));
        incr i
      done;
      ignore (Api.poll ~timeout:gap []))
    c.arrivals;
  (* a process dies with its main thread: outlive the clients *)
  while !done_ < total c do
    ignore (Api.poll ~timeout:1 [])
  done;
  Api.exit 0

let work ctx ~region n =
  let off = n mod (master_pages / win_pages) * win_pages * page in
  ignore
    (Simcase.ok ctx "work touch"
       (Simcase.api ctx ~units:win_pages "ksim.api.touch" (fun () ->
            Api.touch ~addr:(region + off) ~len:(win_pages * page))))

(* Take every whole message off the front of [buf]. *)
let take_msgs buf =
  let s = Buffer.contents buf in
  let n = String.length s / msg_len in
  Buffer.clear buf;
  Buffer.add_string buf (String.sub s (n * msg_len) (String.length s - (n * msg_len)));
  List.init n (fun k -> String.sub s (k * msg_len) msg_len)

(* ---- per-worker accept: workers race for connections on the shared
   listener; the master retires each with a QUIT connection. *)

let rec accept_worker ctx ~region ~lfd served =
  let conn = Simcase.ok ctx "accept" (Api.accept lfd) in
  match read_msg ctx conn with
  | m when m = quit ->
    ignore (Api.close conn);
    Api.exit 0
  | m ->
    work ctx ~region served;
    Simcase.ok ctx "reply" (Api.write_all conn m);
    ignore (Api.close conn);
    accept_worker ctx ~region ~lfd (served + 1)

let accept_master ctx c ~region ~lfd ~done_ =
  let pids =
    List.init c.workers (fun w ->
        Simcase.ok ctx "fork worker"
          (Simcase.api ctx "ksim.api.fork" (fun () ->
               Api.fork ~child:(fun () -> accept_worker ctx ~region ~lfd (w * 61)))))
  in
  while !done_ < total c do
    ignore (Api.poll ~timeout:gap [])
  done;
  List.iter
    (fun _ ->
      let fd = Simcase.ok ctx "socket" (Api.socket ()) in
      Simcase.ok ctx "connect quit" (Api.connect fd ~port);
      Simcase.ok ctx "write quit" (Api.write_all fd quit);
      ignore (Api.close fd))
    pids;
  pids

(* ---- dispatch: the master owns the listener and every connection and
   hands each request to a worker over a pipe, round-robin. *)

let dispatch_worker ctx ~region ~req_r ~rep_w w =
  let buf = Buffer.create 64 in
  let served = ref (w * 61) in
  let rec loop () =
    match Simcase.ok ctx "worker read" (Api.read req_r 256) with
    | "" -> Api.exit 0
    | s ->
      Buffer.add_string buf s;
      List.iter
        (fun m ->
          work ctx ~region !served;
          incr served;
          Simcase.ok ctx "worker reply" (Api.write_all rep_w m))
        (take_msgs buf);
      loop ()
  in
  loop ()

let dispatch_master ctx c ~region ~lfd ~done_ =
  let nw = c.workers in
  let req = Array.init nw (fun _ -> Simcase.ok ctx "pipe" (Api.pipe ())) in
  let rep = Array.init nw (fun _ -> Simcase.ok ctx "pipe" (Api.pipe ())) in
  let pids =
    List.init nw (fun w ->
        Simcase.ok ctx "fork worker"
          (Simcase.api ctx "ksim.api.fork" (fun () ->
               Api.fork ~child:(fun () ->
                   (* keep only this worker's two ends: a stray write end
                      in a sibling would defeat the EOF shutdown *)
                   ignore (Api.close lfd);
                   Array.iteri
                     (fun j (r, wr) ->
                       ignore (Api.close wr);
                       if j <> w then ignore (Api.close r))
                     req;
                   Array.iteri
                     (fun j (r, wr) ->
                       ignore (Api.close r);
                       if j <> w then ignore (Api.close wr))
                     rep;
                   dispatch_worker ctx ~region ~req_r:(fst req.(w))
                     ~rep_w:(snd rep.(w)) w))))
  in
  Array.iter (fun (r, _) -> ignore (Api.close r)) req;
  Array.iter (fun (_, wr) -> ignore (Api.close wr)) rep;
  let pending = Hashtbl.create 16 in
  let fifo = Array.init nw (fun _ -> Queue.create ()) in
  let rbuf = Array.init nw (fun _ -> Buffer.create 64) in
  let rr = ref 0 in
  let inflight () =
    Hashtbl.length pending + Array.fold_left (fun a q -> a + Queue.length q) 0 fifo
  in
  let rec drain_accepts () =
    match Api.poll ~timeout:0 [ Types.pollin lfd ] with
    | Ok (_ :: _) ->
      Hashtbl.replace pending (Simcase.ok ctx "accept" (Api.accept lfd)) (Buffer.create msg_len);
      drain_accepts ()
    | Ok [] | Error _ -> ()
  in
  let on_conn fd =
    let b = Hashtbl.find pending fd in
    match Simcase.ok ctx "conn read" (Api.read fd (msg_len - Buffer.length b)) with
    | "" ->
      Hashtbl.remove pending fd;
      ignore (Api.close fd);
      Simcase.fail ctx "connection closed before its request"
    | s ->
      Buffer.add_string b s;
      if Buffer.length b = msg_len then begin
        Hashtbl.remove pending fd;
        let w = !rr in
        rr := (w + 1) mod nw;
        Simcase.ok ctx "dispatch" (Api.write_all (snd req.(w)) (Buffer.contents b));
        Queue.add fd fifo.(w)
      end
  in
  let on_reply w =
    let s = Simcase.ok ctx "reply read" (Api.read (fst rep.(w)) 4096) in
    Buffer.add_string rbuf.(w) s;
    List.iter
      (fun m ->
        let conn = Queue.take fifo.(w) in
        Simcase.ok ctx "reply" (Api.write_all conn m);
        ignore (Api.close conn))
      (take_msgs rbuf.(w))
  in
  while not (!done_ >= total c && inflight () = 0) do
    let interests =
      Types.pollin lfd
      :: (Hashtbl.fold (fun fd _ acc -> Types.pollin fd :: acc) pending []
         @ Array.to_list (Array.map (fun (r, _) -> Types.pollin r) rep))
    in
    match Api.poll ~timeout:gap interests with
    | Error _ | Ok [] -> ()
    | Ok revents ->
      List.iter
        (fun (rv : Types.poll_revent) ->
          let fd = rv.Types.pr_fd in
          if fd = lfd then drain_accepts ()
          else if Hashtbl.mem pending fd then on_conn fd
          else
            Array.iteri (fun w (r, _) -> if r = fd && rv.Types.pr_in then on_reply w) rep)
        revents
  done;
  Array.iter (fun (_, wr) -> ignore (Api.close wr)) req;
  pids

let master ctx c () =
  let done_ = ref 0 in
  let len = master_pages * page in
  let region = Simcase.ok ctx "mmap" (Api.mmap ~len ~perm:Vmem.Perm.rw) in
  ignore (Simcase.ok ctx "master touch" (Api.touch ~addr:region ~len));
  let lfd = Simcase.ok ctx "socket" (Api.socket ()) in
  Simcase.ok ctx "bind" (Api.bind lfd ~port);
  (* a backlog that holds every request: a refused connect is a failure *)
  Simcase.ok ctx "listen" (Api.listen lfd ~backlog:(total c + c.workers));
  let lg = Simcase.ok ctx "fork loadgen" (Api.fork ~child:(loadgen ctx c ~done_)) in
  let workers =
    match c.model with
    | Accept -> accept_master ctx c ~region ~lfd ~done_
    | Dispatch -> dispatch_master ctx c ~region ~lfd ~done_
  in
  List.iteri
    (fun w pid -> Simcase.wait ctx ~what:(Printf.sprintf "worker%d" w) ~expected:(Types.Exited 0) pid)
    workers;
  Simcase.wait ctx ~what:"loadgen" ~expected:(Types.Exited 0) lg;
  ignore (Api.close lfd);
  if !done_ <> total c then
    Simcase.fail ctx (Printf.sprintf "%d of %d requests answered" !done_ (total c));
  Api.exit 0

let config c =
  {
    (Forkroad.Sim_driver.config_for ~heap_mib:16) with
    Kernel.smp = true;
    cpus = c.cpus;
    trace_capacity = Some trace_capacity;
  }

let run_case ?corrupt ~spans ~id c =
  Simcase.run ?corrupt ~spans ~case:id ~config:(config c)
    ~programs:(fun _ -> [])
    ~init:(fun ctx -> master ctx c ())
    ()
