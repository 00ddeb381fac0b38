type fault_error = [ `Segfault | `Perm_denied | `Out_of_memory ]

(* A simulated user-mode pager: supplies the frames (and the modelled
   fetch cost) for pager-backed pages on their first touch. The pager
   only says what one page of each source costs: [fetch_class] maps a
   lazy PTE's cookie to one of [fetches], and [template] prices a page
   copied out of a zygote's backing table. This space counts the pages
   it pulls and charges each source once per touch, on whatever meter
   it holds at the time (the SMP kernel swaps scratch meters in during
   its record-and-replay phase). [deny] is the fault-injection hook,
   consulted once per pulled page (readahead included) before the frame
   allocation; [readahead] is how many immediately-following
   pager-backed pages one request also pulls in. *)
type fetch = { category : string; cycles : Cost.params -> float }

type pager = {
  frames : Frame.t;
  fetch_class : int -> int;
  fetches : fetch array;
  template : fetch;
  deny : unit -> bool;
  readahead : int;
}

type t = {
  frames : Frame.t;
  mutable cost : Cost.t;
  mutable tlb : Tlb.t;
  mutable regions : Vma.t Region_map.t;
  mutable pt : Page_table.t;
  mmap_base : int;
  mutable heap : (int * int) option;  (** (base, brk) — brk grows upward *)
  mutable committed : int;  (** pages this AS has charged to Frame.commit *)
  mutable dead : bool;
  batched : bool;
      (** range-batched hot paths; [false] keeps the per-page reference
          walks as the oracle the batched paths are tested against *)
  mutable blame : Blame.t option;
  mutable blame_origin : int;
      (** id of the most recent {!Blame} sharing event this space took
          part in, or -1; COW breaks are deferred-charged to it *)
  family : int;
      (** clone lineage id: spaces whose frames may be COW-entangled
          (fork children, template children) share a family; the SMP
          kernel parallelises only across distinct families *)
  mutable cpumask : Cpuset.t;
      (** which simulated CPUs may cache translations of this space —
          maintained by the SMP scheduler; drives targeted shootdowns *)
  mutable pager : pager option;
  mutable backing : Page_table.t option;
      (** lazy-zygote backing: a sealed template table consulted on
          faults to wholly-absent pages — a hit is a template-backed
          first-touch major fault, a miss an ordinary demand-zero *)
  mutable backing_holes : (int * int) list;
      (** vpn ranges munmapped since the clone: the backing table is
          immutable (shared with the template), so holes are recorded
          here and faults inside them fall back to demand-zero *)
}

(* cost/tlb/blame are mutable only so the SMP kernel can swap scratch
   meters in for the record-and-replay parallel phase; outside that
   window they are fixed for the life of the space. *)
type meters = { m_cost : Cost.t; m_tlb : Tlb.t; m_blame : Blame.t option }

let meters t = { m_cost = t.cost; m_tlb = t.tlb; m_blame = t.blame }

let set_meters t { m_cost; m_tlb; m_blame } =
  t.cost <- m_cost;
  t.tlb <- m_tlb;
  t.blame <- m_blame

let default_mmap_base = 0x7000_0000_0000

let next_family = Atomic.make 0

let create ?(mmap_base = default_mmap_base) ?(batched = true) ?blame ~frames
    ~cost ~tlb () =
  if not (Addr.is_page_aligned mmap_base) || not (Addr.valid mmap_base) then
    invalid_arg "Addr_space.create: bad mmap_base";
  {
    frames;
    cost;
    tlb;
    regions = Region_map.empty;
    pt = Page_table.create ();
    mmap_base;
    heap = None;
    committed = 0;
    dead = false;
    batched;
    blame;
    blame_origin = -1;
    family = Atomic.fetch_and_add next_family 1;
    cpumask = Cpuset.empty;
    pager = None;
    backing = None;
    backing_holes = [];
  }

let set_pager t pg =
  (match pg with
  | Some (p : pager) when p.frames != t.frames ->
    invalid_arg "Addr_space.set_pager: pager serves another machine's frames"
  | Some _ | None -> ());
  t.pager <- pg
let pager_installed t = t.pager <> None
let has_backing t = t.backing <> None
let lazy_pages t = Page_table.lazy_count t.pt

(* Demand paging is live in this space: faults may need the pager. The
   default configuration (no pager, no lazy entries) keeps every fault
   path bit-identical to the eager simulator. *)
let pager_active t =
  t.pager <> None && (t.backing <> None || Page_table.lazy_count t.pt > 0)

let family t = t.family
let cpumask t = t.cpumask
let note_cpu t ~cpu = t.cpumask <- Cpuset.add cpu t.cpumask

let set_blame_origin t id = t.blame_origin <- id

let blame_origin t = if t.blame_origin >= 0 then Some t.blame_origin else None

(* Run [f] with charges deferred-attributed to this space's sharing
   origin: wraps only the COW-break paths, so a space that never forked
   (or a vmem used without a ledger) attributes nothing. *)
let deferred_blame t f =
  match t.blame with
  | Some b when t.blame_origin >= 0 ->
    Blame.with_context b ~id:t.blame_origin Blame.Deferred f
  | Some _ | None -> f ()

(* Full-address-space remote flush. Legacy Tlbs broadcast to every
   configured CPU; tracked Tlbs IPI only the CPUs that actually cache a
   mapping of this space (its cpumask, minus the sender), then collapse
   the mask to the sender alone — every remote CPU just dropped its
   cached translations. *)
let as_shootdown t =
  if Tlb.tracked t.tlb then begin
    Tlb.flush_local t.tlb;
    Tlb.ipi t.tlb ~dsts:t.cpumask ~full:true ~n:1;
    t.cpumask <- Cpuset.singleton (Tlb.active_cpu t.tlb)
  end
  else Tlb.shootdown t.tlb

(* Per-page invalidation. Tracked Tlbs additionally IPI each remote CPU
   in the mask once per page (the invlpg must reach every CPU that may
   cache the stale translation); the mask is *not* collapsed — other
   translations of this space stay cached remotely. *)
let invalidate t ~n =
  Tlb.invalidate_pages t.tlb ~n;
  if Tlb.tracked t.tlb && n > 0 then Tlb.ipi t.tlb ~dsts:t.cpumask ~full:false ~n

let invalidate_one t = invalidate t ~n:1

let frames t = t.frames
let cost t = t.cost
let mmap_base t = t.mmap_base
let alive t name = if t.dead then invalid_arg (name ^ ": destroyed address space")

let charge_commit t pages =
  match Frame.commit t.frames pages with
  | Ok () ->
    t.committed <- t.committed + pages;
    Ok ()
  | Error `Commit_limit -> Error `Commit_limit

let release_commit t pages =
  Frame.uncommit t.frames pages;
  t.committed <- max 0 (t.committed - pages)

let needs_commit vma = not vma.Vma.shared && vma.Vma.kind <> Vma.Guard

let mmap ?addr ?(shared = false) ~len ~perm ~kind t =
  alive t "Addr_space.mmap";
  if len <= 0 then Error `Invalid
  else begin
    let len = Addr.align_up len in
    let vma = Vma.make ~shared ~perm ~kind () in
    let place start =
      match Region_map.add ~start ~stop:(start + len) vma t.regions with
      | Error `Overlap -> Error `Overlap
      | Ok regions ->
        let pages = len / Addr.page_size in
        if needs_commit vma then begin
          match charge_commit t pages with
          | Error `Commit_limit -> Error `Commit_limit
          | Ok () ->
            t.regions <- regions;
            Ok start
        end
        else begin
          t.regions <- regions;
          Ok start
        end
    in
    match addr with
    | Some a ->
      if not (Addr.is_page_aligned a) || not (Addr.valid a) || a + len > Addr.max_va
      then Error `Invalid
      else place a
    | None -> (
      match
        Region_map.find_gap ~min:t.mmap_base ~max:Addr.max_va ~len t.regions
      with
      | None -> Error `No_space
      | Some a -> place a)
  end

(* Map a pager-backed (lazy) range: the VMA and commit admission of
   [mmap], then one [map_lazy_range] installing empty leaves — no frame
   allocated, no byte copied, cost O(ranges). Page [k] carries cookie
   [cookie0 + k*stride] for the pager to resolve at first touch. *)
let map_lazy ?addr ~len ~perm ~kind ~cookie0 ~stride t =
  alive t "Addr_space.map_lazy";
  if t.pager = None then invalid_arg "Addr_space.map_lazy: no pager installed";
  match mmap ?addr ~len ~perm ~kind t with
  | Error _ as e -> e
  | Ok start ->
    Page_table.map_lazy_range t.pt ~vpn:(Addr.page_number start)
      ~n:(Addr.align_up len / Addr.page_size)
      ~cookie0 ~stride ~perm;
    Ok start

(* Release the frames mapped under [start, stop) and return how many
   pages were resident. *)
let release_pages t ~start ~stop =
  let vpn0 = Addr.page_number start and vpn1 = Addr.page_number (stop - 1) in
  if t.batched then
    Page_table.unmap_range t.pt ~vpn0 ~vpn1 ~f:(fun pte ->
        ignore (Frame.decref t.frames (Pte.frame pte)))
  else begin
    let released = ref 0 in
    for vpn = vpn0 to vpn1 do
      let pte = Page_table.unmap t.pt ~vpn in
      if Pte.present pte then begin
        ignore (Frame.decref t.frames (Pte.frame pte));
        incr released
      end
    done;
    !released
  end

let munmap t ~addr ~len =
  alive t "Addr_space.munmap";
  if len <= 0 || not (Addr.is_page_aligned addr) || not (Addr.valid addr) then
    Error `Invalid
  else begin
    let stop = addr + Addr.align_up len in
    let regions, removed =
      Region_map.carve ~start:addr ~stop ~crop:Vma.crop t.regions
    in
    t.regions <- regions;
    List.iter
      (fun (s, e, vma) ->
        ignore (release_pages t ~start:s ~stop:e);
        if t.backing <> None then
          t.backing_holes <-
            (Addr.page_number s, Addr.page_number (e - 1)) :: t.backing_holes;
        if needs_commit vma then release_commit t ((e - s) / Addr.page_size))
      removed;
    if removed <> [] then as_shootdown t;
    Ok ()
  end

let protect t ~addr ~len ~perm =
  alive t "Addr_space.protect";
  if len <= 0 || not (Addr.is_page_aligned addr) || not (Addr.valid addr) then
    Error `Invalid
  else begin
    let stop = addr + Addr.align_up len in
    (* the range must be fully covered by existing VMAs *)
    let overlaps = Region_map.overlapping ~start:addr ~stop t.regions in
    let covered =
      let rec check pos = function
        | [] -> pos >= stop
        | (s, e, _) :: rest -> s <= pos && check (max pos e) rest
      in
      check addr overlaps
    in
    if not covered then Error `No_region
    else begin
      let regions, removed =
        Region_map.carve ~start:addr ~stop ~crop:Vma.crop t.regions
      in
      let regions =
        List.fold_left
          (fun regions (s, e, vma) ->
            match
              Region_map.add ~start:s ~stop:e { vma with Vma.perm } regions
            with
            | Ok r -> r
            | Error `Overlap -> assert false (* we just carved the range *))
          regions removed
      in
      t.regions <- regions;
      (* downgrade/upgrade PTEs; COW pages keep write off *)
      let vpn0 = Addr.page_number addr and vpn1 = Addr.page_number (stop - 1) in
      let repermit pte =
        let p =
          if Pte.cow pte then { perm with Perm.write = false } else perm
        in
        Pte.with_perm pte p
      in
      if t.batched then
        ignore (Page_table.protect_range t.pt ~vpn0 ~vpn1 ~f:repermit)
      else
        for vpn = vpn0 to vpn1 do
          ignore (Page_table.update t.pt ~vpn repermit)
        done;
      as_shootdown t;
      Ok ()
    end
  end

let set_heap_base t base =
  alive t "Addr_space.set_heap_base";
  if not (Addr.is_page_aligned base) || not (Addr.valid base) then
    invalid_arg "Addr_space.set_heap_base: bad base";
  match t.heap with
  | Some _ -> invalid_arg "Addr_space.set_heap_base: heap already set"
  | None -> t.heap <- Some (base, base)

(* Rollback hook for failed image loads: forget a heap base that was set
   while building an image that is now being torn back down. Only legal
   while the heap is still empty — a grown heap is real state. *)
let reset_heap_base t =
  alive t "Addr_space.reset_heap_base";
  match t.heap with
  | None -> ()
  | Some (base, brk) ->
    if brk <> base then invalid_arg "Addr_space.reset_heap_base: heap in use";
    t.heap <- None

let brk t =
  alive t "Addr_space.brk";
  match t.heap with
  | None -> invalid_arg "Addr_space.brk: no heap"
  | Some (_, b) -> b

let set_brk t new_brk =
  alive t "Addr_space.set_brk";
  match t.heap with
  | None -> Error `Invalid
  | Some (base, cur) ->
    if (not (Addr.is_page_aligned new_brk)) || new_brk < base then Error `Invalid
    else if new_brk = cur then Ok ()
    else if new_brk > cur then begin
      (* grow: extend (or create) the heap VMA *)
      let vma = Vma.make ~perm:Perm.rw ~kind:Vma.Heap () in
      let regions, _ =
        if cur > base then
          Region_map.carve ~start:base ~stop:cur ~crop:Vma.crop t.regions
        else (t.regions, [])
      in
      match Region_map.add ~start:base ~stop:new_brk vma regions with
      | Error `Overlap -> Error `Overlap
      | Ok regions -> (
        let pages = (new_brk - cur) / Addr.page_size in
        match charge_commit t pages with
        | Error `Commit_limit -> Error `Commit_limit
        | Ok () ->
          t.regions <- regions;
          t.heap <- Some (base, new_brk);
          Ok ())
    end
    else begin
      (* shrink: release the tail *)
      match munmap t ~addr:new_brk ~len:(cur - new_brk) with
      | Error `Invalid -> Error `Invalid
      | Ok () ->
        t.heap <- Some (base, new_brk);
        Ok ()
    end

let params t = Cost.params t.cost

let demand_fill t ~vpn ~perm =
  let p = params t in
  match Frame.alloc t.frames with
  | Error `Out_of_memory -> Error `Out_of_memory
  | Ok frame ->
    Cost.charge t.cost "fault:zero-fill" p.Cost.frame_zero;
    Page_table.map t.pt ~vpn (Pte.make ~frame ~perm ());
    Ok ()

let break_cow t ~vpn ~pte ~region_perm =
  let p = params t in
  let frame = Pte.frame pte in
  if Frame.refcount t.frames frame = 1 then begin
    (* last sharer: take the page back in place *)
    Cost.tally t.cost "fault:cow-reuse";
    ignore
      (Page_table.update t.pt ~vpn (fun pte ->
           Pte.with_cow (Pte.with_perm pte region_perm) false));
    invalidate_one t;
    Ok ()
  end
  else begin
    match Frame.alloc t.frames with
    | Error `Out_of_memory -> Error `Out_of_memory
    | Ok fresh ->
      Cost.charge t.cost "fault:cow-copy" p.Cost.frame_copy;
      Frame.copy_contents t.frames ~src:frame ~dst:fresh;
      ignore (Frame.decref t.frames frame);
      Page_table.map t.pt ~vpn (Pte.make ~frame:fresh ~perm:region_perm ());
      invalidate_one t;
      Ok ()
  end

let rec in_hole vpn = function
  | [] -> false
  | (lo, hi) :: rest -> (vpn >= lo && vpn <= hi) || in_hole vpn rest

(* Where the pager would source the (non-present) page at [vpn], if
   anywhere: a lazy PTE carries its fetch cookie; a wholly-absent page
   over the backing table (outside any munmap hole) is template-backed;
   anything else is ordinary demand-zero. *)
let pager_src t ~vpn ~pte =
  if Pte.lazy_ pte then Some (`Cookie (Pte.cookie pte))
  else
    match t.backing with
    | None -> None
    | Some bpt ->
      if in_hole vpn t.backing_holes then None
      else
        let b = Page_table.lookup bpt ~vpn in
        if Pte.present b then Some (`Backing (Pte.frame b)) else None

let bad_class = "Addr_space: pager fetch class out of range"

let cookie_class pg cookie =
  let k = pg.fetch_class cookie in
  if k < 0 || k >= Array.length pg.fetches then invalid_arg bad_class;
  k

(* Pull one page through the pager: allocate a frame, charge the
   source's fetch cost (a template page is also copied out of its
   backing frame), install the entry present at the region permission.
   Failure (denied fetch or no frame) leaves the entry exactly as it
   was — a lazy PTE stays lazy, a backing hit stays absent — so a failed
   first touch rolls back cleanly. *)
let pager_fill t pg ~vpn ~perm ~src ~prefetched =
  let f =
    match src with
    | `Cookie c -> pg.fetches.(cookie_class pg c)
    | `Backing _ -> pg.template
  in
  if pg.deny () then Error `Out_of_memory
  else
    match Frame.alloc t.frames with
    | Error `Out_of_memory -> Error `Out_of_memory
    | Ok frame ->
      (match src with
      | `Backing src -> Frame.copy_contents t.frames ~src ~dst:frame
      | `Cookie _ -> ());
      Cost.charge t.cost f.category (f.cycles (params t));
      let pte = Pte.make ~frame ~perm () in
      Page_table.map t.pt ~vpn
        (if prefetched then Pte.mark_prefetched pte else pte);
      Ok ()

(* First-touch (major) fault on a pager-backed page: one pager request
   serves the faulting page plus up to [readahead] immediately-following
   pager-backed pages of the same VMA, installed with the prefetched
   mark (their later first access tallies a readahead hit). Readahead
   stops silently at the first non-pager-backed page, denied fetch or
   allocation failure — only the faulting page's failure surfaces.
   Charges carry the deferred-blame context: a zygote child's fetches
   bill the spawn event that made its pages lazy. *)
let pager_fault t pg ~region_perm ~region_stop ~vpn ~src =
  let p = params t in
  deferred_blame t (fun () ->
      Cost.charge t.cost "fault:base" p.Cost.fault_base;
      Cost.charge t.cost "pager:request" p.Cost.pager_request;
      match pager_fill t pg ~vpn ~perm:region_perm ~src ~prefetched:false with
      | Error _ as e -> e
      | Ok () ->
        let vpn_stop = min (Addr.page_number (region_stop - 1)) (vpn + pg.readahead) in
        (try
           for v = vpn + 1 to vpn_stop do
             let pte = Page_table.lookup t.pt ~vpn:v in
             if Pte.present pte then raise Exit;
             match pager_src t ~vpn:v ~pte with
             | None -> raise Exit
             | Some src -> (
               match
                 pager_fill t pg ~vpn:v ~perm:region_perm ~src ~prefetched:true
               with
               | Error `Out_of_memory -> raise Exit
               | Ok () -> ())
           done
         with Exit -> ());
        Ok ())

let fault t ~addr ~write =
  alive t "Addr_space.fault";
  let p = params t in
  if not (Addr.valid addr) then Error `Segfault
  else
    match Region_map.find_containing addr t.regions with
    | None -> Error `Segfault
    | Some (_, rstop, vma) ->
      let requested =
        if write then { Perm.none with Perm.write = true }
        else { Perm.none with Perm.read = true }
      in
      if not (Perm.allows vma.Vma.perm requested) then Error `Perm_denied
      else begin
        let vpn = Addr.page_number addr in
        let pte = Page_table.lookup t.pt ~vpn in
        if not (Pte.present pte) then begin
          match pager_src t ~vpn ~pte with
          | Some src -> (
            match t.pager with
            | None ->
              invalid_arg "Addr_space.fault: pager-backed page but no pager"
            | Some pg ->
              pager_fault t pg ~region_perm:vma.Vma.perm ~region_stop:rstop
                ~vpn ~src)
          | None ->
            Cost.charge t.cost "fault:base" p.Cost.fault_base;
            demand_fill t ~vpn ~perm:vma.Vma.perm
        end
        else if write && not (Pte.perm pte).Perm.write then begin
          if Pte.cow pte then
            (* the deferred half of a fork's bill: charge the break to
               the sharing event that created this COW mapping *)
            deferred_blame t (fun () ->
                Cost.charge t.cost "fault:base" p.Cost.fault_base;
                break_cow t ~vpn ~pte ~region_perm:vma.Vma.perm)
          else begin
            Cost.charge t.cost "fault:base" p.Cost.fault_base;
            (* stale protection (e.g. mprotect round-trip): refresh in place *)
            ignore
              (Page_table.update t.pt ~vpn (fun pte ->
                   Pte.with_perm pte vma.Vma.perm));
            invalidate_one t;
            Ok ()
          end
        end
        else begin
          if Pte.prefetched pte then
            (* first real access to a page readahead pulled in: the
               prefetch paid off — count the hit, clear the mark *)
            Cost.tally t.cost "pager:readahead-hit";
          ignore
            (Page_table.update t.pt ~vpn (fun pte ->
                 let pte = Pte.clear_prefetched (Pte.mark_accessed pte) in
                 if write then Pte.mark_dirty pte else pte));
          Ok ()
        end
      end

let touch t addr = fault t ~addr ~write:true

exception Fault_stop of fault_error

(* Read stand-in for a leaf that does not exist (yet): every slot
   absent. Never written — the batched pass materialises the real leaf
   before its first store. *)
let absent_leaf = Array.make Addr.entries_per_table Pte.absent

let leaf_or_absent pt ~vpn =
  let e = Page_table.find_leaf pt ~vpn in
  if Array.length e = 0 then absent_leaf else e

(* State of one batched write-touch. Charges are tallied here and made
   once per category when the touch ends ([Cost.charge ~n]): every cost
   parameter is an integer-valued float, so one charge of n*c equals n
   charges of c exactly and the meter's totals and event counts match
   the per-page walk's. COW breaks and major faults are tallied apart
   from the rest so their charges carry the deferred-blame context the
   per-page walk wraps them in. *)
type pass = {
  mutable touched : int;  (** pages of the range touched so far *)
  mutable base : int;  (** fault:base of zero-fills and protection refreshes *)
  mutable zero : int;
  mutable invlpg : int;
  mutable hits : int;  (** pager:readahead-hit *)
  mutable base_deferred : int;  (** fault:base of COW breaks and major faults *)
  mutable reuse : int;
  mutable copy : int;
  mutable invlpg_deferred : int;
  mutable requests : int;
  fetched : int array;
      (** pages pulled per pager fetch class; the last slot counts
          template (backing-table) pages *)
  mutable ra_stop : int;
      (** last vpn of the open readahead window, or -1 when none is *)
  mutable leaf_base : int;  (** vpn of [ents.(0)] *)
  mutable ents : Pte.t array;  (** the current leaf, or [absent_leaf] *)
  mutable ents_rw : bool;  (** [ents] is this table's own writable leaf *)
  mutable bents : Pte.t array;
      (** the backing table's leaf at [leaf_base], or [absent_leaf] *)
}

let new_pass t =
  {
    touched = 0;
    base = 0;
    zero = 0;
    invlpg = 0;
    hits = 0;
    base_deferred = 0;
    reuse = 0;
    copy = 0;
    invlpg_deferred = 0;
    requests = 0;
    fetched =
      (match t.pager with
      | Some pg -> Array.make (Array.length pg.fetches + 1) 0
      | None -> [||]);
    ra_stop = -1;
    leaf_base = 0;
    ents = absent_leaf;
    ents_rw = false;
    bents = absent_leaf;
  }

let charge_n cost category ~n cycles =
  if n > 0 then Cost.charge ~n cost category (cycles *. float_of_int n)

let flush_pass t s =
  let p = params t in
  charge_n t.cost "fault:base" ~n:s.base p.Cost.fault_base;
  charge_n t.cost "fault:zero-fill" ~n:s.zero p.Cost.frame_zero;
  invalidate t ~n:s.invlpg;
  charge_n t.cost "pager:readahead-hit" ~n:s.hits 0.0;
  (* every COW break and every major fault paid a deferred fault:base *)
  if s.base_deferred > 0 then
    deferred_blame t (fun () ->
        charge_n t.cost "fault:base" ~n:s.base_deferred p.Cost.fault_base;
        charge_n t.cost "pager:request" ~n:s.requests p.Cost.pager_request;
        (match t.pager with
        | None -> ()
        | Some pg ->
          Array.iteri
            (fun k n ->
              let f =
                if k < Array.length pg.fetches then pg.fetches.(k)
                else pg.template
              in
              charge_n t.cost f.category ~n (f.cycles p))
            s.fetched);
        charge_n t.cost "fault:cow-reuse" ~n:s.reuse 0.0;
        charge_n t.cost "fault:cow-copy" ~n:s.copy p.Cost.frame_copy;
        invalidate t ~n:s.invlpg_deferred)

let enter_leaf t s ~base =
  s.leaf_base <- base;
  s.ents <- leaf_or_absent t.pt ~vpn:base;
  s.ents_rw <- false;
  s.bents <-
    (match t.backing with None -> absent_leaf | Some b -> leaf_or_absent b ~vpn:base)

let writable_ents t s =
  if not s.ents_rw then begin
    s.ents <- Page_table.writable_leaf t.pt ~vpn:s.leaf_base;
    s.ents_rw <- true
  end;
  s.ents

let store t s idx pte = (writable_ents t s).(idx) <- pte

(* A misconfigured pager found mid-pass: make the charges the per-page
   walk would already have made, then fail as it does. *)
let fail_pass t s msg =
  flush_pass t s;
  invalid_arg msg

let pager_of t s =
  match t.pager with
  | Some pg -> pg
  | None -> fail_pass t s "Addr_space.touch_range: pager-backed page but no pager"

(* The pager source of the non-present slot [idx] of the current leaf
   (see [pager_src]): a fetch class, [Array.length fetches] for a
   backing-table page, or -1 for a demand-zero page. *)
let slot_source t s idx pte =
  if Pte.lazy_ pte then begin
    let pg = pager_of t s in
    let k = pg.fetch_class (Pte.cookie pte) in
    if k < 0 || k >= Array.length pg.fetches then fail_pass t s bad_class;
    k
  end
  else if
    Pte.present s.bents.(idx)
    && not (in_hole (s.leaf_base + idx) t.backing_holes)
  then Array.length (pager_of t s).fetches
  else -1

(* Pull the page at slot [idx] from source [src]: [deny] first, then a
   frame — the per-page walk's order of injection draws. Returns the
   frame, or [Frame.no_frame] when the pull failed. *)
let pull t s pg ~src ~idx =
  if pg.deny () then Frame.no_frame
  else begin
    let f = Frame.take t.frames in
    if f <> Frame.no_frame then begin
      if src = Array.length pg.fetches then
        Frame.copy_contents t.frames ~src:(Pte.frame s.bents.(idx)) ~dst:f;
      s.fetched.(src) <- s.fetched.(src) + 1
    end;
    f
  end

let install t s idx ~was pte =
  store t s idx pte;
  if Pte.lazy_ was then Page_table.note_lazy t.pt (-1);
  Page_table.note_mapped t.pt 1

(* Demand-fill the [n] absent pages from slot [idx] with one batched
   allocation; the failing page of a short allocation still pays
   fault_base, like the per-page walk. *)
let fill_zero t s ~rperm ~idx ~n =
  let frames = Frame.alloc_upto t.frames n in
  let m = Array.length frames in
  s.base <- s.base + m;
  s.zero <- s.zero + m;
  if m > 0 then begin
    Pte.blit_run ~frames ~n:m ~perm:rperm (writable_ents t s) ~at:idx;
    Page_table.note_mapped t.pt m;
    s.touched <- s.touched + m
  end;
  if m < n then begin
    s.base <- s.base + 1;
    raise (Fault_stop `Out_of_memory)
  end

(* The first slot from [j] on that is not demand-zero, or [hi + 1]. *)
let rec zero_run_end t s ~hi j =
  if j > hi then j
  else if s.ents == absent_leaf && s.bents == absent_leaf then hi + 1
  else
    let pte = s.ents.(j) in
    if Pte.present pte || slot_source t s j pte >= 0 then j
    else zero_run_end t s ~hi (j + 1)

(* A write to the present page at slot [idx]: [fault ~write:true]'s
   transitions for a present entry. *)
let touch_present t s ~rperm idx pte =
  if Pte.writable pte then begin
    (* plain write hit: reference bits only, no charge — except that the
       first access to a page readahead pulled in is a readahead hit *)
    if Pte.prefetched pte then s.hits <- s.hits + 1;
    let hit = Pte.mark_dirty (Pte.mark_accessed (Pte.clear_prefetched pte)) in
    if hit <> pte then store t s idx hit
  end
  else if Pte.cow pte then begin
    let frame = Pte.frame pte in
    s.base_deferred <- s.base_deferred + 1;
    if Frame.refcount t.frames frame = 1 then begin
      (* last sharer: take the page back in place *)
      s.reuse <- s.reuse + 1;
      store t s idx (Pte.with_cow (Pte.with_perm pte rperm) false)
    end
    else begin
      let fresh = Frame.take t.frames in
      if fresh = Frame.no_frame then raise (Fault_stop `Out_of_memory);
      s.copy <- s.copy + 1;
      Frame.copy_contents t.frames ~src:frame ~dst:fresh;
      ignore (Frame.decref t.frames frame);
      store t s idx (Pte.make ~frame:fresh ~perm:rperm ())
    end;
    s.invlpg_deferred <- s.invlpg_deferred + 1
  end
  else begin
    (* stale protection: refresh in place *)
    s.base <- s.base + 1;
    store t s idx (Pte.with_perm pte rperm);
    s.invlpg <- s.invlpg + 1
  end;
  s.touched <- s.touched + 1

(* Touch slot [idx] outside any readahead window; returns the next slot
   to visit. A pager-backed page takes a major fault: one request, and
   a readahead window over the next [readahead] pages of the region. *)
let touch_slot t s ~rperm ~region_last ~hi idx pte src =
  if Pte.present pte then begin
    touch_present t s ~rperm idx pte;
    idx + 1
  end
  else if src >= 0 then begin
    let pg = pager_of t s in
    s.base_deferred <- s.base_deferred + 1;
    s.requests <- s.requests + 1;
    let f = pull t s pg ~src ~idx in
    if f = Frame.no_frame then raise (Fault_stop `Out_of_memory);
    install t s idx ~was:pte (Pte.make ~frame:f ~perm:rperm ());
    s.touched <- s.touched + 1;
    s.ra_stop <- min region_last (s.leaf_base + idx + pg.readahead);
    idx + 1
  end
  else begin
    let j = zero_run_end t s ~hi (idx + 1) in
    fill_zero t s ~rperm ~idx ~n:(j - idx);
    j
  end

(* Inside an open readahead window, pull the pager-backed page at slot
   [idx]. A page of the touched range is touched at once: it ends
   exactly as the per-page walk leaves it after its later first access
   (referenced, no mark, one readahead hit). Past the range it keeps
   the prefetched mark. False when the pull failed. *)
let readahead_pull t s ~rperm ~touch idx pte src =
  let pg = pager_of t s in
  let f = pull t s pg ~src ~idx in
  f <> Frame.no_frame
  && begin
       let pte' = Pte.make ~frame:f ~perm:rperm () in
       if touch then begin
         install t s idx ~was:pte (Pte.mark_dirty (Pte.mark_accessed pte'));
         s.hits <- s.hits + 1;
         s.touched <- s.touched + 1
       end
       else install t s idx ~was:pte (Pte.mark_prefetched pte');
       true
     end

(* Slots [idx..hi] of the current leaf. With [~touch:true] they are
   pages of the touched range; with [~touch:false] the pass only runs
   an open readahead window on past the range's end. Readahead stops at
   the first page it does not pull — present, not pager-backed, denied
   or out of memory — and a failed pull is retried as a fault. *)
let rec pass_slots t s ~rperm ~region_last ~touch ~hi idx =
  if idx <= hi && (touch || s.leaf_base + idx <= s.ra_stop) then begin
    let pte = s.ents.(idx) in
    let src = if Pte.present pte then -1 else slot_source t s idx pte in
    if
      src >= 0
      && s.leaf_base + idx <= s.ra_stop
      && readahead_pull t s ~rperm ~touch idx pte src
    then pass_slots t s ~rperm ~region_last ~touch ~hi (idx + 1)
    else begin
      s.ra_stop <- -1;
      if touch then
        pass_slots t s ~rperm ~region_last ~touch ~hi
          (touch_slot t s ~rperm ~region_last ~hi idx pte src)
    end
  end

let pass_range t s ~rperm ~region_last ~vpn0 ~vpn1 ~touch =
  let v = ref vpn0 in
  while !v <= vpn1 && (touch || !v <= s.ra_stop) do
    let base = !v land lnot (Addr.entries_per_table - 1) in
    let hi = min (vpn1 - base) (Addr.entries_per_table - 1) in
    enter_leaf t s ~base;
    pass_slots t s ~rperm ~region_last ~touch ~hi (!v - base);
    v := base + hi + 1
  done

let write_access = { Perm.none with Perm.write = true }

(* Batched write-fault of a range: the same per-page state transitions,
   charges and fault-injection draws as the per-page walk of [touch],
   in the same order, but each leaf is located once and each cost
   category charged once per touch. *)
let touch_range_batched t ~addr ~len =
  let vpn1 = Addr.page_number (addr + len - 1) in
  let s = new_pass t in
  let vpn = ref (Addr.page_number addr) in
  match
    while !vpn <= vpn1 do
      let a = Addr.addr_of_page !vpn in
      if not (Addr.valid a) then raise (Fault_stop `Segfault);
      match Region_map.find_containing a t.regions with
      | None -> raise (Fault_stop `Segfault)
      | Some (_, e, vma) ->
        let rperm = vma.Vma.perm in
        if not (Perm.allows rperm write_access) then
          raise (Fault_stop `Perm_denied);
        let region_last = Addr.page_number (e - 1) in
        let sub_end = min vpn1 region_last in
        pass_range t s ~rperm ~region_last ~vpn0:!vpn ~vpn1:sub_end ~touch:true;
        (* the window of the range's last major fault runs on past it *)
        if s.ra_stop > sub_end then
          pass_range t s ~rperm ~region_last ~vpn0:(sub_end + 1)
            ~vpn1:s.ra_stop ~touch:false;
        s.ra_stop <- -1;
        vpn := sub_end + 1
    done
  with
  | () ->
    flush_pass t s;
    Ok s.touched
  | exception Fault_stop err ->
    flush_pass t s;
    Error err

(* Write-touch a range. Batched spaces take the leaf-granular pass above
   for every kind of page — demand-zero, COW, lazy PTEs, backing-table
   hits and readahead-marked pages alike; [~batched:false] keeps the
   per-page walk through [fault] as the oracle it is tested against. *)
let touch_range t ~addr ~len =
  if len <= 0 then Ok 0
  else if t.batched then begin
    (* the per-page walk hits [fault]'s liveness check on page one *)
    alive t "Addr_space.fault";
    touch_range_batched t ~addr ~len
  end
  else begin
    let vpn0 = Addr.page_number addr in
    let vpn1 = Addr.page_number (addr + len - 1) in
    let rec go vpn n =
      if vpn > vpn1 then Ok n
      else
        match touch t (Addr.addr_of_page vpn) with
        | Ok () -> go (vpn + 1) (n + 1)
        | Error e -> Error e
    in
    go vpn0 0
  end

let write_byte t addr v =
  match fault t ~addr ~write:true with
  | Error e -> Error e
  | Ok () ->
    let pte = Page_table.lookup t.pt ~vpn:(Addr.page_number addr) in
    Frame.write_byte t.frames (Pte.frame pte) ~off:(Addr.page_offset addr) v;
    Ok ()

let read_byte t addr =
  match fault t ~addr ~write:false with
  | Error e -> Error e
  | Ok () ->
    let pte = Page_table.lookup t.pt ~vpn:(Addr.page_number addr) in
    Ok (Frame.read_byte t.frames (Pte.frame pte) ~off:(Addr.page_offset addr))

let map_image_page t ~addr ~perm ?data ~kind () =
  alive t "Addr_space.map_image_page";
  if not (Addr.is_page_aligned addr) then Error `Invalid
  else begin
    match mmap ~addr ~len:Addr.page_size ~perm ~kind t with
    | Error (`No_space | `Invalid) -> Error `Invalid
    | Error (`Overlap | `Commit_limit) as e -> e
    | Ok _ -> (
      match Frame.alloc t.frames with
      | Error `Out_of_memory -> Error `Out_of_memory
      | Ok frame ->
        Cost.charge t.cost "exec:load-page" (params t).Cost.exec_per_page;
        (match data with
        | Some s -> Frame.blit_string t.frames frame ~off:0 s
        | None -> ());
        Page_table.map t.pt ~vpn:(Addr.page_number addr)
          (Pte.make ~frame ~perm ());
        Ok ())
  end

let clone_common t ~pt ~committed_charge =
  {
    frames = t.frames;
    cost = t.cost;
    tlb = t.tlb;
    regions = t.regions;
    pt;
    mmap_base = t.mmap_base;
    heap = t.heap;
    committed = committed_charge;
    dead = false;
    batched = t.batched;
    blame = t.blame;
    (* the kernel stamps the clone's sharing origin explicitly after the
       creating syscall succeeds; until then nothing is attributed *)
    blame_origin = -1;
    (* COW entanglement with the source: same family *)
    family = t.family;
    (* no CPU caches the clone's translations until it is scheduled *)
    cpumask = Cpuset.empty;
    pager = t.pager;
    (* a forked lazy-zygote child keeps faulting against the template *)
    backing = t.backing;
    backing_holes = t.backing_holes;
  }

(* After a COW page-table copy, pages of *shared* VMAs must not be COW:
   both processes should keep writing the same frame. *)
let fixup_shared t child_pt =
  Region_map.iter
    (fun s e vma ->
      if vma.Vma.shared then begin
        let vpn0 = Addr.page_number s and vpn1 = Addr.page_number (e - 1) in
        for vpn = vpn0 to vpn1 do
          let restore pt =
            ignore
              (Page_table.update pt ~vpn (fun pte ->
                   if Pte.cow pte then
                     Pte.with_cow (Pte.with_perm pte vma.Vma.perm) false
                   else pte))
          in
          restore t.pt;
          restore child_pt
        done
      end)
    t.regions

(* Page ranges of shared VMAs, ascending and disjoint, with the region
   permission their PTEs must keep across a fork. *)
let shared_ranges t =
  List.filter_map
    (fun (s, e, vma) ->
      if vma.Vma.shared then
        Some (Addr.page_number s, Addr.page_number (e - 1), vma.Vma.perm)
      else None)
    (Region_map.to_list t.regions)

let clone_cow t =
  alive t "Addr_space.clone_cow";
  let p = params t in
  (* the child re-charges the parent's private commit: this is the
     accounting pressure that makes strict-commit systems reject big
     forks even though COW would copy almost nothing *)
  match Frame.commit t.frames t.committed with
  | Error `Commit_limit -> Error `Commit_limit
  | Ok () ->
    Cost.charge ~n:(Region_map.cardinal t.regions) t.cost "fork:vma"
      (p.Cost.vma_clone *. float_of_int (Region_map.cardinal t.regions));
    let child_pt =
      if t.batched then
        (* lazy subtree sharing; the shared-VMA fixup is fused into the
           clone's single leaf pass *)
        Page_table.clone_cow_shared t.pt ~frames:t.frames ~cost:t.cost
          ~shared:(shared_ranges t)
      else begin
        let pt = Page_table.clone_cow t.pt ~frames:t.frames ~cost:t.cost in
        fixup_shared t pt;
        pt
      end
    in
    as_shootdown t;
    Ok (clone_common t ~pt:child_pt ~committed_charge:t.committed)

(* The eager copy's reference walk, page by page: one region lookup, one
   frame allocation and one charge per private page, then the lazy
   entries, copied verbatim. Stops at the first frame it cannot get. *)
let eager_copy_pages t child_pt =
  let p = params t in
  let result =
    Page_table.fold_present t.pt ~init:(Ok ()) ~f:(fun acc ~vpn pte ->
        match acc with
        | Error _ as e -> e
        | Ok () -> (
          let vma = Region_map.find_containing (Addr.addr_of_page vpn) t.regions in
          let perm =
            match vma with Some (_, _, v) -> v.Vma.perm | None -> Pte.perm pte
          in
          let shared =
            match vma with Some (_, _, v) -> v.Vma.shared | None -> false
          in
          if shared then begin
            Frame.incref t.frames (Pte.frame pte);
            Page_table.map child_pt ~vpn (Pte.make ~frame:(Pte.frame pte) ~perm ());
            Ok ()
          end
          else
            match Frame.alloc t.frames with
            | Error `Out_of_memory -> Error `Out_of_memory
            | Ok fresh ->
              Cost.charge t.cost "fork:eager-copy" p.Cost.frame_copy;
              Frame.copy_contents t.frames ~src:(Pte.frame pte) ~dst:fresh;
              Page_table.map child_pt ~vpn (Pte.make ~frame:fresh ~perm ());
              Ok ()))
  in
  if result = Ok () then
    Page_table.fold_lazy t.pt ~init:() ~f:(fun () ~vpn pte ->
        let leaf = Page_table.writable_leaf child_pt ~vpn in
        leaf.(vpn land (Addr.entries_per_table - 1)) <- pte;
        Page_table.note_lazy child_pt 1);
  result

exception Eager_oom

(* The eager copy in one ascending pass over the parent's leaves: each
   child leaf is filled directly, each page's region read from one
   cursor over the region list, and [fork:eager-copy] charged once for
   all the copies made — also when the pass stops at a frame it cannot
   get. Frames are taken, and the deny hook drawn, in the walk's order. *)
let eager_copy_leaves t child_pt =
  let regions = ref (Region_map.to_list t.regions) in
  (* the region cursor: pages [lo, hi] of the first region not wholly
     below the last page visited *)
  let lo = ref max_int and hi = ref (-1) in
  let rperm = ref Perm.none and rshared = ref false in
  let rec seek vpn =
    match !regions with
    | (s, e, vma) :: rest ->
      let last = Addr.page_number (e - 1) in
      if last < vpn then begin
        regions := rest;
        seek vpn
      end
      else begin
        lo := Addr.page_number s;
        hi := last;
        rperm := vma.Vma.perm;
        rshared := vma.Vma.shared
      end
    | [] ->
      lo := max_int;
      hi := max_int
  in
  let copies = ref 0 in
  let copy_leaf ~base entries =
    let first = ref 0 in
    while !first < Addr.entries_per_table && entries.(!first) = Pte.absent do
      incr first
    done;
    if !first < Addr.entries_per_table then begin
      let dst = Page_table.writable_leaf child_pt ~vpn:base in
      let mapped = ref 0 and lazies = ref 0 in
      for i = !first to Addr.entries_per_table - 1 do
        let pte = entries.(i) in
        if Pte.present pte then begin
          let vpn = base lor i in
          if vpn > !hi then seek vpn;
          let frame = Pte.frame pte in
          if vpn >= !lo && !rshared then begin
            Frame.incref t.frames frame;
            dst.(i) <- Pte.make ~frame ~perm:!rperm ()
          end
          else begin
            let fresh = Frame.take t.frames in
            if fresh = Frame.no_frame then begin
              Page_table.note_mapped child_pt !mapped;
              raise Eager_oom
            end;
            Frame.copy_contents t.frames ~src:frame ~dst:fresh;
            let perm = if vpn >= !lo then !rperm else Pte.perm pte in
            dst.(i) <- Pte.make ~frame:fresh ~perm ();
            incr copies
          end;
          incr mapped
        end
        else if Pte.lazy_ pte then begin
          dst.(i) <- pte;
          incr lazies
        end
      done;
      Page_table.note_mapped child_pt !mapped;
      Page_table.note_lazy child_pt !lazies
    end
  in
  let result =
    match Page_table.iter_leaves t.pt ~f:copy_leaf with
    | () -> Ok ()
    | exception Eager_oom -> Error `Out_of_memory
  in
  charge_n t.cost "fork:eager-copy" ~n:!copies (params t).Cost.frame_copy;
  result

let clone_eager t =
  alive t "Addr_space.clone_eager";
  let p = params t in
  match Frame.commit t.frames t.committed with
  | Error `Commit_limit -> Error `Commit_limit
  | Ok () -> (
    Cost.charge ~n:(Region_map.cardinal t.regions) t.cost "fork:vma"
      (p.Cost.vma_clone *. float_of_int (Region_map.cardinal t.regions));
    let child_pt = Page_table.create () in
    match (if t.batched then eager_copy_leaves else eager_copy_pages) t child_pt with
    | Error `Out_of_memory ->
      ignore (Page_table.clear child_pt ~frames:t.frames);
      Frame.uncommit t.frames t.committed;
      Error `Out_of_memory
    | Ok () -> Ok (clone_common t ~pt:child_pt ~committed_charge:t.committed))

(* Template (zygote) support.

   [seal] turns a warmed address space into an immutable template image:
   one fork-shaped pass (charged at exactly the fork categories — the
   freeze is an honest O(footprint) one-time cost) that downgrades
   writable pages to read-only COW and pins every resident frame
   immortal, so per-child spawns never touch those refcounts. The
   source keeps running; its later writes COW away from the pinned
   frames. The returned space is the template's handle: it carries the
   sealed table, the region map and heap marker children inherit, and a
   zero commit charge (each child re-charges its own commit; the
   template object owns frames, not commit). *)
let seal t =
  alive t "Addr_space.seal";
  if pager_active t then
    invalid_arg "Addr_space.seal: unresolved pager-backed pages";
  let p = params t in
  Cost.charge ~n:(Region_map.cardinal t.regions) t.cost "fork:vma"
    (p.Cost.vma_clone *. float_of_int (Region_map.cardinal t.regions));
  let tpl_pt =
    Page_table.seal_cow t.pt ~frames:t.frames ~cost:t.cost
      ~shared:(shared_ranges t)
  in
  as_shootdown t;
  clone_common t ~pt:tpl_pt ~committed_charge:0

(* Spawn a child space from a sealed template in O(shared subtrees).
   The commit charge is the only fallible step and runs first, so a
   failed spawn leaves the template (and the machine) untouched —
   the transactional invariant the fault-injection tests check. *)
let clone_from_sealed ?(lazy_ = false) tpl ~commit_pages =
  alive tpl "Addr_space.clone_from_sealed";
  if lazy_ && tpl.pager = None then
    invalid_arg "Addr_space.clone_from_sealed: lazy spawn but no pager";
  let p = params tpl in
  match Frame.commit tpl.frames commit_pages with
  | Error `Commit_limit -> Error `Commit_limit
  | Ok () ->
    Cost.charge ~n:(Region_map.cardinal tpl.regions) tpl.cost "fork:vma"
      (p.Cost.vma_clone *. float_of_int (Region_map.cardinal tpl.regions));
    if lazy_ then begin
      (* demand spawn: the child starts from an EMPTY table (one root
         node, charged as a single subtree) and records the sealed
         table as its fault-time backing — O(1) in the template's
         footprint; each page is fetched privately on first touch *)
      let child = clone_common tpl ~pt:(Page_table.create ()) ~committed_charge:commit_pages in
      Cost.charge tpl.cost "zygote:subtree" p.Cost.pt_node_copy;
      child.backing <- Some tpl.pt;
      child.backing_holes <- [];
      Ok (child, 0)
    end
    else begin
      let pt, subtrees = Page_table.clone_sealed tpl.pt ~cost:tpl.cost in
      Ok (clone_common tpl ~pt ~committed_charge:commit_pages, subtrees)
    end

(* True when every resident frame has refcount exactly 1 — no COW
   sharer, no template pin. Freezing demands this: a sole-owner source
   is the only holder of its frames, so pinning them transfers clean
   ownership to the template and discard can account for every page. *)
let sole_owner t =
  alive t "Addr_space.sole_owner";
  match
    Page_table.fold_present t.pt ~init:() ~f:(fun () ~vpn:_ pte ->
        if Frame.refcount t.frames (Pte.frame pte) <> 1 then raise Exit)
  with
  | () -> true
  | exception Exit -> false

(* Tear down a template handle: un-pin every resident frame back to a
   single counted reference, then drop the table, freeing them. Only
   legal once nothing alive depends on the template (the kernel's
   live-dependant count gates this with EBUSY). *)
let destroy_sealed t =
  if not t.dead then begin
    Cost.charge t.cost "proc:destroy" (params t).Cost.proc_destroy;
    Page_table.iter_leaves t.pt ~f:(fun ~base:_ entries ->
        Array.iter
          (fun pte -> if Pte.present pte then Frame.unpin t.frames (Pte.frame pte))
          entries);
    ignore (Page_table.clear t.pt ~frames:t.frames);
    Frame.uncommit t.frames t.committed;
    t.committed <- 0;
    t.regions <- Region_map.empty;
    t.heap <- None;
    t.dead <- true
  end

let destroy t =
  if not t.dead then begin
    Cost.charge t.cost "proc:destroy" (params t).Cost.proc_destroy;
    ignore (Page_table.clear t.pt ~frames:t.frames);
    Frame.uncommit t.frames t.committed;
    t.committed <- 0;
    t.regions <- Region_map.empty;
    t.heap <- None;
    t.dead <- true
  end

let fold_resident t ~init ~f =
  Page_table.fold_present t.pt ~init ~f:(fun acc ~vpn pte -> f acc ~vpn ~pte)

let fold_lazy t ~init ~f =
  Page_table.fold_lazy t.pt ~init ~f:(fun acc ~vpn pte -> f acc ~vpn ~pte)

let resident_pages t = Page_table.present_count t.pt
let committed_pages t = t.committed
let vma_count t = Region_map.cardinal t.regions
let regions t = Region_map.to_list t.regions
let pt_nodes t = Page_table.node_count t.pt

let pp_layout ppf t =
  Region_map.iter
    (fun s e vma ->
      Format.fprintf ppf "%a-%a %a@\n" Addr.pp s Addr.pp e Vma.pp vma)
    t.regions
