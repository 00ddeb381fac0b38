(* sim_demand: the lazy memory path. Demand paging is on, so children
   start from lazy mappings and every first touch is a major fault served
   by the user-mode pager. A quarter of the cases run under the Demand
   commit policy on a machine that cannot back both of its children, so
   the OOM chooser must kill one. *)

open Ksim

type mode = Lazy_exec | Lazy_zygote
type pattern = Seq of int  (** runs of this many pages *) | Random

type case = {
  imib : int;  (** image (lazy exec) or template (lazy zygote) size *)
  readahead : int;
  mode : mode;
  frac : float;  (** share of the image each child touches *)
  pattern : pattern;
  oom : bool;
  codes : int array;  (** one create+wait cycle per exit status *)
  rseed : int;  (** seed of the random touch order *)
}

let page = Vmem.Addr.page_size
let text_kib = 64
let data_base = Kernel.image_base + (text_kib * 1024)

let gen ~seed ~n =
  let g = Gen.create ~seed ~n in
  let size = Gen.unit g and frac = Gen.unit g and cyc = Gen.unit g in
  let run = Gen.unit g in
  let ra = Gen.choice g [| 0; 8; 64 |] in
  let oom = Gen.choice g [| true; false; false; false |] in
  let mode = Gen.choice g [| Lazy_exec; Lazy_zygote |] in
  let seq = Gen.choice g [| true; false |] in
  let r = Gen.rng g in
  Array.init n (fun i ->
    let f = frac.(i) in
    {
      imib = Gen.log_int ~lo:16 ~hi:256 size.(i);
      readahead = ra.(i);
      (* the OOM scenario needs a victim that is neither init nor
         the faulter (a second exec'd child), and a resident set it
         can size the machine from (sequential runs: random pages
         pull readahead from all over the image) *)
      mode = (if oom.(i) then Lazy_exec else mode.(i));
      frac = (if oom.(i) then 0.5 +. (0.5 *. f) else 0.01 +. (0.99 *. f));
      pattern =
        (if seq.(i) || oom.(i) then Seq (Gen.log_int ~lo:16 ~hi:256 run.(i)) else Random);
      oom = oom.(i);
      codes =
        Array.init (Gen.lin_int ~lo:1 ~hi:3 cyc.(i)) (fun _ ->
            1 + Prng.Splitmix.int r ~bound:100);
      rseed = Prng.Splitmix.next r;
    })

let image_pages c = c.imib * 256
let touched c = max 1 (int_of_float (c.frac *. float_of_int (image_pages c)))

(* The child's accesses: [touched] pages from [base], in sequential runs
   or as random single pages. *)
let touch_image ctx c ~base =
  let n = touched c in
  let touch addr pages =
    ignore
      (Simcase.ok ctx "touch"
         (Simcase.api ctx ~units:pages "ksim.api.touch" (fun () ->
              Api.touch ~addr ~len:(pages * page))))
  in
  match c.pattern with
  | Seq run ->
    let off = ref 0 in
    while !off < n do
      let k = min run (n - !off) in
      touch (base + (!off * page)) k;
      off := !off + k
    done
  | Random ->
    let r = Prng.Splitmix.create ~seed:c.rseed in
    let pages = image_pages c in
    for _ = 1 to n do
      touch (base + (Prng.Splitmix.int r ~bound:pages * page)) 1
    done

(* argv: [hog] holds its touched pages until stdin closes; [touch] exits
   with the given status once done. *)
let worker ctx c =
  Program.make ~name:"/bench/worker" ~text_kib ~data_kib:(c.imib * 1024)
    (fun ~argv () ->
      match argv with
      | [ "hog" ] ->
        let n = touched c in
        ignore (Simcase.ok ctx "hog touch" (Api.touch ~addr:data_base ~len:(n * page)));
        ignore (Simcase.ok ctx "hog ready" (Api.write 1 "r"));
        let rec hold () =
          match Api.read 0 16 with Ok "" | Error _ -> () | Ok _ -> hold ()
        in
        hold ();
        Api.exit 0
      | [ "touch"; code ] ->
        touch_image ctx c ~base:data_base;
        Api.exit (int_of_string code)
      | _ -> Api.exit 126)

let cycle ctx i code create =
  let t0 = Clock.now () in
  let pid = Simcase.ok ctx "create" (create ()) in
  Simcase.wait ctx ~what:(Printf.sprintf "child%d" i) ~expected:(Types.Exited code) pid;
  Clock.Samples.add ctx.Simcase.lat (float_of_int (Clock.since t0))

let spawn_worker ctx ?(file_actions = []) argv =
  Simcase.api ctx "ksim.api.spawn" (fun () ->
      Api.spawn ~file_actions ~argv "/bench/worker")

let exec_init ctx c =
  Array.iteri
    (fun i code ->
      cycle ctx i code (fun () -> spawn_worker ctx [ "touch"; string_of_int code ]))
    c.codes

(* Under Demand: a hog child touches as much as the first worker will,
   then waits; the worker's touches outrun memory and the chooser must
   kill the hog (largest resident, not init, not the faulter). *)
let oom_init ctx c =
  let hold_r, hold_w = Simcase.ok ctx "pipe" (Api.pipe ()) in
  let ready_r, ready_w = Simcase.ok ctx "pipe" (Api.pipe ()) in
  let hog =
    Simcase.ok ctx "spawn hog"
      (spawn_worker ctx
         ~file_actions:
           Types.
             [
               Fa_dup2 (hold_r, 0); Fa_dup2 (ready_w, 1); Fa_close hold_r;
               Fa_close hold_w; Fa_close ready_r; Fa_close ready_w;
             ]
         [ "hog" ])
  in
  ignore (Api.close hold_r);
  ignore (Api.close ready_w);
  if Simcase.ok ctx "hog ready" (Api.read ready_r 1) <> "r" then
    Simcase.fail ctx "hog did not report ready";
  ignore (Api.close ready_r);
  exec_init ctx c;
  ignore (Api.close hold_w);
  Simcase.wait ctx ~what:"hog" ~expected:(Types.Killed Usignal.SIGKILL) hog;
  let kills = (Kstat.global (Kernel.kstat ctx.Simcase.kernel)).Kstat.oom_kills in
  if kills <> 1 then Simcase.fail ctx (Printf.sprintf "%d OOM kills, expected 1" kills)

(* The template source warms its whole space (footprint, own data and
   text) because freeze refuses unresolved pager-backed pages. *)
let master ctx c tpl () =
  let len = image_pages c * page in
  let addr = Simcase.ok ctx "mmap" (Api.mmap ~len ~perm:Vmem.Perm.rw) in
  ignore (Simcase.ok ctx "master touch" (Api.touch ~addr ~len));
  ignore (Simcase.ok ctx "warm data" (Api.touch ~addr:(Kernel.image_base + (64 * 1024)) ~len:(16 * 1024)));
  ignore (Simcase.ok ctx "warm text" (Api.mem_read ~addr:Kernel.image_base ~len:(64 * 1024)));
  let id = Simcase.ok ctx "freeze" (Simcase.api ctx "ksim.api.freeze" Api.freeze) in
  tpl := Some id;
  Array.iteri
    (fun i code ->
      cycle ctx i code (fun () ->
          Simcase.api ctx "ksim.api.template_spawn" (fun () ->
              Api.spawn_from_template id ~child:(fun () ->
                  touch_image ctx c ~base:addr;
                  Api.exit code))))
    c.codes;
  Api.exit 0

let config c =
  let base = Forkroad.Sim_driver.config_for ~heap_mib:c.imib in
  let base =
    { base with Kernel.demand_paging = true; pager_readahead = c.readahead }
  in
  if c.oom then
    (* room for one worker's pages and a quarter more, not for two *)
    let m = touched c in
    { base with Kernel.commit_policy = Vmem.Frame.Demand; phys_pages = m + (m / 4) + 512 }
  else base

let run_case ?corrupt ~spans ~id c =
  let tpl = ref None in
  Simcase.run ?corrupt ~spans ~case:id ~config:(config c)
    ~programs:(fun ctx ->
      [ worker ctx c; Program.make ~name:"/bench/master" (fun ~argv:_ -> master ctx c tpl) ])
    ~init:(fun ctx ->
      (match (c.mode, c.oom) with
      | Lazy_exec, true -> oom_init ctx c
      | Lazy_exec, false -> exec_init ctx c
      | Lazy_zygote, _ ->
        let pid = Simcase.ok ctx "spawn master" (Api.spawn "/bench/master") in
        Simcase.wait ctx ~what:"master" ~expected:(Types.Exited 0) pid;
        Option.iter
          (fun id -> Simcase.ok ctx "template_discard" (Api.template_discard id))
          !tpl);
      Api.exit 0)
    ()
