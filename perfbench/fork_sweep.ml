(* sim_fork_sweep: the eager memory path (the paper's Figure 1). A parent
   maps and touches a footprint, then runs create+wait cycles in a seeded
   mix of styles, writing part of its memory after each one. Demand
   paging is off, so the pager is never reached. *)

open Ksim

type style = Fork | Fork_eager | Posix_spawn | Zygote

type cycle = {
  style : style;
  write_frac : float;  (** share of each region the parent writes after *)
  write_at : float;  (** where in each region the write window starts *)
  code : int;  (** exit status the child must report *)
}

type case = { fmib : int; vmas : int; cycles : cycle array }

let page = Vmem.Addr.page_size

let gen ~seed ~n =
  let g = Gen.create ~seed ~n in
  let size = Gen.unit g and vmas = Gen.unit g and len = Gen.unit g in
  let frac = Gen.unit g and first = Gen.strata g in
  let styles = [| Fork; Fork_eager; Posix_spawn; Zygote |] in
  let r = Gen.rng g in
  Array.init n (fun i ->
    let cycles =
      Array.init (Gen.lin_int ~lo:4 ~hi:8 len.(i)) (fun j ->
          {
            style = styles.((first.(i) + j) mod 4);
            write_frac = 0.5 *. frac.(i);
            (* successive windows step by the golden ratio, so the
               union the parent has written, which sets how much
               it owns privately, hardly depends on the seed *)
            write_at =
              Float.rem ((float_of_int j *. 0.618034) +. (0.05 *. Prng.Splitmix.float r)) 1.0;
            code = 1 + Prng.Splitmix.int r ~bound:100;
          })
    in
    {
      fmib = Gen.log_int ~lo:16 ~hi:256 size.(i);
      vmas = Gen.log_int ~lo:1 ~hi:64 vmas.(i);
      cycles;
    })

let exit_prog =
  Program.make ~name:"/bench/exit" (fun ~argv () ->
      match argv with
      | [ c ] -> Api.exit (int_of_string c)
      | _ -> Api.exit 126)

let touch ctx ~addr ~pages =
  if pages > 0 then
    ignore
      (Simcase.ok ctx "touch"
         (Simcase.api ctx ~units:pages "ksim.api.touch" (fun () ->
              Api.touch ~addr ~len:(pages * page))))

(* Write [frac] of each region, one window starting at a seeded page. *)
let write_regions ctx regions ~rpages c =
  let n = int_of_float (c.write_frac *. float_of_int rpages) in
  let start = int_of_float (c.write_at *. float_of_int (rpages - n)) in
  List.iter (fun addr -> touch ctx ~addr:(addr + (start * page)) ~pages:n) regions

let parent ctx case tpl () =
  let rpages = max 1 (case.fmib * 256 / case.vmas) in
  let regions =
    List.init case.vmas (fun _ ->
        let addr =
          Simcase.ok ctx "mmap" (Api.mmap ~len:(rpages * page) ~perm:Vmem.Perm.rw)
        in
        touch ctx ~addr ~pages:rpages;
        addr)
  in
  Array.iteri
    (fun i c ->
      let child () = Api.exit c.code in
      if c.style = Zygote && !tpl = None then
        tpl := Some (Simcase.ok ctx "freeze" (Simcase.api ctx "ksim.api.freeze" Api.freeze));
      let t0 = Clock.now () in
      let pid =
        Simcase.ok ctx "create"
          (match c.style with
          | Fork -> Simcase.api ctx "ksim.api.fork" (fun () -> Api.fork ~child)
          | Fork_eager ->
            Simcase.api ctx "ksim.api.fork_eager" (fun () -> Api.fork_eager ~child)
          | Posix_spawn ->
            Simcase.api ctx "ksim.api.spawn" (fun () ->
                Api.spawn ~argv:[ string_of_int c.code ] "/bench/exit")
          | Zygote ->
            Simcase.api ctx "ksim.api.template_spawn" (fun () ->
                Api.spawn_from_template (Option.get !tpl) ~child))
      in
      Simcase.wait ctx ~what:(Printf.sprintf "child%d" i) ~expected:(Types.Exited c.code) pid;
      Clock.Samples.add ctx.Simcase.lat (float_of_int (Clock.since t0));
      write_regions ctx regions ~rpages c)
    case.cycles;
  Api.exit 0

(* init runs the parent as its own process so that, once the parent has
   exited, nothing maps the template any more and init can discard it:
   frames in use then return to the post-boot level. *)
let run_case ?corrupt ~spans ~id case =
  let tpl = ref None in
  (* room for the template's pinned pages, the parent's private copies of
     them and an eager child's copy, all at once *)
  let config =
    { (Forkroad.Sim_driver.config_for ~heap_mib:case.fmib) with
      Kernel.phys_pages = (3 * case.fmib * 256) + 65536 }
  in
  Simcase.run ?corrupt ~spans ~case:id ~config
    ~programs:(fun ctx ->
      [ exit_prog; Program.make ~name:"/bench/parent" (fun ~argv:_ -> parent ctx case tpl) ])
    ~init:(fun ctx ->
      let pid = Simcase.ok ctx "spawn parent" (Api.spawn "/bench/parent") in
      Simcase.wait ctx ~what:"parent" ~expected:(Types.Exited 0) pid;
      Option.iter
        (fun id -> Simcase.ok ctx "template_discard" (Api.template_discard id))
        !tpl;
      Api.exit 0)
    ()
