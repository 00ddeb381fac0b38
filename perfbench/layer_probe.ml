(* Direct calls into single layers, sized from the inputs the sim
   workloads generated: vmem primitives on a bare [Addr_space] and
   [Ksim.Trace.record] into a ring of sim_serve's capacity. Each call is
   timed, its allocation counted, and recorded as a span. *)

open Vmem

let page = Addr.page_size

type samples = (string, Clock.Samples.t) Hashtbl.t

let add (tbl : samples) name v =
  let s =
    match Hashtbl.find_opt tbl name with
    | Some s -> s
    | None ->
      let s = Clock.Samples.create () in
      Hashtbl.add tbl name s;
      s
  in
  Clock.Samples.add s v

(* Median of the per-probe values recorded under [name]; 0 when the
   workload ran no such probe. *)
let median (tbl : samples) name =
  match Hashtbl.find_opt tbl name with
  | Some s when Clock.Samples.length s > 0 -> Clock.median (Clock.Samples.to_array s)
  | _ -> 0.0

let timed spans ~name ~case ~units f =
  let id = Spans.start spans ~name ~parent:(-1) ~case in
  let w0 = Clock.words () in
  let t0 = Clock.now () in
  let r = f () in
  let ns = float_of_int (Clock.since t0) in
  let words = Clock.words () -. w0 in
  Spans.stop spans id ~units;
  (r, ns, words)

let get what = function
  | Ok v -> v
  | Error _ -> failwith ("layer probe: " ^ what ^ " failed")

let machine pages =
  let frames = Frame.create ~policy:Frame.Overcommit ~frames:((3 * pages) + 4096) () in
  let cost = Cost.create () in
  let tlb = Tlb.create cost in
  (frames, cost, tlb)

(* The eager path on a footprint of [pages] split over [vmas] regions:
   demand-zero faults, fork, COW faults, eager copy, zygote clone and
   teardown, in the order the sim workload meets them. *)
let eager tbl spans ~case ~pages ~vmas =
  let frames, cost, tlb = machine pages in
  let a = Addr_space.create ~frames ~cost ~tlb () in
  let rp = max 1 (pages / vmas) in
  let n = rp * vmas in
  let fn = float_of_int n in
  let regions =
    List.init vmas (fun _ ->
        get "mmap" (Addr_space.mmap ~len:(rp * page) ~perm:Perm.rw ~kind:Vma.Anon a))
  in
  let touch_all () =
    List.iter (fun addr -> ignore (get "touch" (Addr_space.touch_range a ~addr ~len:(rp * page)))) regions
  in
  let probe name f = timed spans ~name ~case ~units:n f in
  let (), ns, w = probe "vmem.zero_fault" touch_all in
  add tbl "vmem.zero_fault.ns_per_page" (ns /. fn);
  add tbl "vmem.zero_fault.words_per_page" (w /. fn);
  let c, ns, w = probe "vmem.clone_cow" (fun () -> get "clone_cow" (Addr_space.clone_cow a)) in
  add tbl "vmem.clone_cow.ns_per_kpage" (ns /. fn *. 1000.0);
  add tbl "vmem.clone_cow.words_per_kpage" (w /. fn *. 1000.0);
  let (), ns, w = probe "vmem.cow_fault" touch_all in
  add tbl "vmem.cow_fault.ns_per_page" (ns /. fn);
  add tbl "vmem.cow_fault.words_per_page" (w /. fn);
  let (), ns, _ = probe "vmem.destroy" (fun () -> Addr_space.destroy c) in
  add tbl "vmem.destroy.ns_per_page" (ns /. fn);
  let e, ns, _ = probe "vmem.clone_eager" (fun () -> get "clone_eager" (Addr_space.clone_eager a)) in
  add tbl "vmem.clone_eager.ns_per_page" (ns /. fn);
  Addr_space.destroy e;
  let (s, z), ns, _ =
    timed spans ~name:"vmem.zygote_clone" ~case ~units:1 (fun () ->
        let s = Addr_space.seal a in
        (s, fst (get "clone_from_sealed" (Addr_space.clone_from_sealed s ~commit_pages:0))))
  in
  add tbl "vmem.zygote_clone.us" (ns /. 1000.0);
  Addr_space.destroy z;
  Addr_space.destroy a;
  Addr_space.destroy_sealed s

let lazy_maps = 4

(* The lazy path: [map_lazy] of an image of [pages] pages behind a pager
   from [Ksim.Pager.make], then first touches in order with readahead
   [ra]. *)
let lazy_ tbl spans ~case ~pages ~ra =
  let frames, cost, tlb = machine pages in
  let a = Addr_space.create ~frames ~cost ~tlb () in
  Addr_space.set_pager a
    (Some (Ksim.Pager.make ~frames ~deny:(fun () -> false) ~readahead:ra ()));
  let map () =
    get "map_lazy"
      (Addr_space.map_lazy ~len:(pages * page) ~perm:Perm.rw ~kind:Vma.Anon
         ~cookie0:(Ksim.Pager.image_cookie ~page:0) ~stride:Ksim.Pager.image_stride a)
  in
  let addrs, ns, _ =
    timed spans ~name:"vmem.map_lazy" ~case ~units:lazy_maps (fun () ->
        List.init lazy_maps (fun _ -> map ()))
  in
  if ra = 0 then add tbl "vmem.map_lazy.ns_per_call" (ns /. float_of_int lazy_maps);
  let addr = List.hd addrs in
  let (), ns, w =
    timed spans ~name:(Printf.sprintf "vmem.lazy_fault_ra%d" ra) ~case ~units:pages (fun () ->
        ignore (get "touch" (Addr_space.touch_range a ~addr ~len:(pages * page))))
  in
  let fp = float_of_int pages in
  add tbl (Printf.sprintf "vmem.lazy_fault_ra%d.ns_per_page" ra) (ns /. fp);
  if ra = 0 then add tbl "vmem.lazy_fault.words_per_page" (w /. fp);
  Addr_space.destroy a

let trace_records = 50_000

let trace_record tbl spans ~case ~capacity =
  let tr = Ksim.Trace.create ~capacity () in
  let args = [ ("fd", "3"); ("len", "16") ] in
  let (), ns, _ =
    timed spans ~name:"ksim.trace.record" ~case ~units:trace_records (fun () ->
        for i = 1 to trace_records do
          Ksim.Trace.record tr ~args ~phase:Ksim.Trace.Begin ~ts_ns:(float_of_int i)
            ~tick:i ~pid:2 ~tid:2 "write"
        done)
  in
  add tbl "ksim.trace.record.ns" (ns /. float_of_int trace_records)

(* Run every probe on each (pages, vmas) size, [reps] times. *)
let run spans ~sizes ~reps =
  let tbl : samples = Hashtbl.create 32 in
  for rep = 1 to reps do
    List.iteri
      (fun i (pages, vmas) ->
        let case = (rep * 1000) + i in
        eager tbl spans ~case ~pages ~vmas;
        lazy_ tbl spans ~case ~pages ~ra:0;
        lazy_ tbl spans ~case ~pages ~ra:64)
      sizes;
    trace_record tbl spans ~case:rep ~capacity:Serve.trace_capacity
  done;
  tbl
