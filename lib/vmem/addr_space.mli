(** Simulated process address spaces: VMAs + page table + demand paging
    + copy-on-write.

    This module is where the paper's performance argument lives:
    {!clone_cow} (fork) walks the whole page table and its cost grows
    with the parent's resident set, while a spawned process starts from
    {!create} with an empty table at constant cost. All operations charge
    the shared {!Cost.t} meter. *)

type fault_error = [ `Segfault | `Perm_denied | `Out_of_memory ]

type t

val create :
  ?mmap_base:int ->
  ?batched:bool ->
  ?blame:Blame.t ->
  frames:Frame.t ->
  cost:Cost.t ->
  tlb:Tlb.t ->
  unit ->
  t
(** A fresh, empty address space. [mmap_base] is where unhinted mmaps are
    placed (the ASLR knob; default [0x7000_0000_0000]). [batched]
    (default true) selects the O(range) fast paths — leaf-level batch
    operations and lazily shared page-table subtrees on fork; [false]
    keeps the original per-page walks, which charge the identical
    modelled cost and serve as the test oracle for the batched paths.
    [blame] attaches a cost-attribution ledger: COW-break charges are
    then deferred-attributed to the space's current sharing origin (see
    {!set_blame_origin}). Clones inherit both.
    @raise Invalid_argument if [mmap_base] is not page-aligned or out of
    range. *)

val frames : t -> Frame.t
val cost : t -> Cost.t
val mmap_base : t -> int

val family : t -> int
(** Clone-lineage id: spaces whose frames may be COW-entangled (a forked
    child and its parent, children of one template) share a family. The
    SMP kernel runs syscalls concurrently only across distinct families,
    so refcount races between entangled spaces cannot arise. Fresh
    spaces from {!create} get a new family; clones inherit. *)

val cpumask : t -> Cpuset.t
(** Which simulated CPUs may currently cache translations of this space.
    Maintained by the SMP scheduler via {!note_cpu}; consulted by the
    tracked-shootdown paths so fork/munmap/mprotect IPI only the CPUs
    that actually hold stale entries. Empty until first scheduled. *)

val note_cpu : t -> cpu:int -> unit
(** The scheduler's half of the mask contract: called for the running
    CPU on every scheduling step of a thread of this space (not just on
    context switch — a full shootdown collapses the mask to the sender,
    and still-running remote CPUs must be re-observed immediately). *)

type meters = { m_cost : Cost.t; m_tlb : Tlb.t; m_blame : Blame.t option }
(** The accounting sinks an address space charges into. Mutable only to
    support the SMP kernel's record-and-replay parallel phase: each
    concurrent task swaps in a scratch meter set, records the charges it
    generates, and the kernel replays them into the real meters
    sequentially in CPU order — so parallel execution never changes any
    simulated number. *)

val meters : t -> meters
val set_meters : t -> meters -> unit

type fetch = {
  category : string;  (** the cost category one pulled page is charged to *)
  cycles : Cost.params -> float;
      (** what one page costs under the meter's parameters; must be
          integer-valued, so that a charge for [n] pages at once is
          exact *)
}
(** The price of one page from one pager source. *)

type pager = {
  frames : Frame.t;
      (** the physical memory the pager serves; {!set_pager} refuses a
          pager built for another machine *)
  fetch_class : int -> int;
      (** which of [fetches] serves a lazy PTE's cookie (the cookie
          encoding is the installer's — typically [Ksim.Pager]'s —
          private convention); must be in [[0, Array.length fetches)] *)
  fetches : fetch array;  (** price of a page per cookie class *)
  template : fetch;
      (** price of a page copied out of a lazy-zygote backing table *)
  deny : unit -> bool;
      (** fault-injection hook, consulted once per pulled page
          (readahead included), before its frame allocation; [true]
          fails that fetch like OOM *)
  readahead : int;
      (** extra consecutive pager-backed pages pulled per request *)
}
(** A simulated user-mode pager (see the module comment of
    {!Ksim.Pager}), described by what its pages cost rather than by
    per-page callbacks: the space pulls the pages itself — frames, the
    copy of a template page, the entries — counts them per source and
    charges each source once per touch, on whatever meter the space
    holds at that moment (the SMP kernel swaps scratch meters in during
    its record-and-replay phase). *)

val set_pager : t -> pager option -> unit
(** Install (or remove) the pager consulted on first-touch faults of
    pager-backed pages. Must be installed before {!map_lazy} or a lazy
    {!clone_from_sealed}; with no pager and no lazy pages every fault
    path is bit-identical to the eager simulator. *)

val pager_installed : t -> bool

val pager_active : t -> bool
(** A pager is installed {e and} this space has pager-backed pages
    (lazy PTEs or a template backing table) — i.e. faults may reach the
    pager. The SMP kernel excludes such spaces' touches from its
    parallel phase. *)

val lazy_pages : t -> int
(** Number of lazy (mapped-but-unbacked) PTEs. *)

val has_backing : t -> bool
(** True for lazy-zygote children still backed by their template. *)

val set_blame_origin : t -> int -> unit
(** Stamp the {!Blame} event id that most recently made this space's
    pages COW-shared (fork stamps both sides; freeze stamps the source;
    a zygote spawn stamps the child). Later COW breaks in this space are
    deferred-charged to that event — "most recent sharing event wins",
    which is sound because every sharing operation re-downgrades all
    resident private pages. *)

val blame_origin : t -> int option

val mmap :
  ?addr:int ->
  ?shared:bool ->
  len:int ->
  perm:Perm.t ->
  kind:Vma.kind ->
  t ->
  (int, [> `No_space | `Overlap | `Commit_limit | `Invalid ]) result
(** Map [len] bytes (rounded up to pages). Without [addr] the lowest gap
    at or above [mmap_base] is used; with [addr] the exact (page-aligned)
    address is required. Private mappings charge commit. Returns the
    start address. Pages are demand-faulted, not populated. *)

val map_lazy :
  ?addr:int ->
  len:int ->
  perm:Perm.t ->
  kind:Vma.kind ->
  cookie0:int ->
  stride:int ->
  t ->
  (int, [> `No_space | `Overlap | `Commit_limit | `Invalid ]) result
(** Like {!mmap} (private mapping, commit charged as usual) but the
    pages are installed as {e lazy} PTEs — no frame allocated, no byte
    copied, O(ranges) — each carrying the pager cookie
    [cookie0 + k*stride] ([stride] 1 for consecutive image pages, 0 to
    repeat a constant cookie such as demand-zero). First touch is a
    major fault served by the installed pager.
    @raise Invalid_argument when no pager is installed. *)

val munmap : t -> addr:int -> len:int -> (unit, [> `Invalid ]) result
(** Unmap every whole page of [[addr, addr+len)]; mapped sub-ranges are
    released (frames decref'd, commit uncharged), holes are ignored, and
    straddling VMAs are split — POSIX semantics. Flushes remote TLBs. *)

val protect :
  t -> addr:int -> len:int -> perm:Perm.t -> (unit, [> `Invalid | `No_region ]) result
(** mprotect: change region and PTE permissions for a range that must be
    fully covered by existing VMAs. COW pages never regain write
    permission directly (the next write faults and copies). *)

val set_heap_base : t -> int -> unit
(** Install the heap start (done once by the program loader).
    @raise Invalid_argument if not page-aligned or already set. *)

val reset_heap_base : t -> unit
(** Rollback hook for failed image loads: forget the heap base again.
    No-op when none is set. @raise Invalid_argument if the heap has
    grown past its base (real state cannot be rolled back this way). *)

val brk : t -> int
(** Current program break; equals the heap base before any growth.
    @raise Invalid_argument if no heap base was set. *)

val set_brk : t -> int -> (unit, [> `Invalid | `Commit_limit | `Overlap ]) result
(** Grow or shrink the heap to end at the given (page-aligned) break. *)

val fault : t -> addr:int -> write:bool -> (unit, fault_error) result
(** Simulate a memory access: demand-zero fill, COW break, or failure.
    Charges fault costs. *)

val touch : t -> int -> (unit, fault_error) result
(** A write access to one address ([fault ~write:true]). *)

val touch_range : t -> addr:int -> len:int -> (int, fault_error) result
(** Write-touch every page of the range; returns the number of pages
    touched. Stops at the first fault error. The result, every entry,
    the cost breakdown with event counts, the blame attribution and the
    order of fault-injection draws are those of {!touch} on each page in
    turn; a batched space gets them from one leaf-granular pass that
    charges each cost category once per touch, demand paging included
    (lazy PTEs, backing-table pages, readahead and readahead hits). *)

val read_byte : t -> int -> (int, fault_error) result
val write_byte : t -> int -> int -> (unit, fault_error) result

val map_image_page :
  t -> addr:int -> perm:Perm.t -> ?data:string -> kind:Vma.kind ->
  unit -> (unit, [> `Out_of_memory | `Commit_limit | `Overlap | `Invalid ]) result
(** Loader path: map one populated page at [addr] (creating a one-page
    VMA), optionally initialised with [data] (at most a page). *)

val clone_cow : t -> (t, [> `Commit_limit | `Out_of_memory ]) result
(** Fork the address space: share the VMA list, copy the page table with
    COW downgrades (charging per node and per PTE), re-charge the
    parent's commit, shoot down the parent's TLB. The child inherits
    [mmap_base] — the layout-inheritance property that weakens ASLR. *)

val clone_eager : t -> (t, [> `Commit_limit | `Out_of_memory ]) result
(** Eager copy (no COW): every resident private page is copied
    immediately into a fresh frame (one ["fork:eager-copy"] per page);
    pages of shared VMAs are shared, at the region permission. Lazy
    (demand-paged) entries are copied verbatim, with no frame and no
    charge, so the child faults them through the pager like a COW
    child does. The ablation baseline for E9.

    A batched space does it in one pass over the parent's leaves and
    makes one ["fork:eager-copy"] charge for all its copies (none when
    it copies nothing); the cost breakdown, event counts and order of
    frame allocations and deny-hook draws are those of the per-page
    walk [~batched:false] keeps. If a frame cannot be had, the copies
    made before it stay charged, the partial child is freed and its
    commit released, and the result is [Error `Out_of_memory]. *)

val seal : t -> t
(** Freeze the address space into an immutable template image: one
    fork-shaped pass (charged at the fork categories — freezing is an
    honest O(footprint) one-time cost) downgrades writable pages to
    read-only COW, pins every resident frame into the immortal refcount
    class, and flushes the source TLB. The source space stays live (its
    later writes COW away from the pinned frames); the returned handle
    carries the sealed table, the inherited region map and heap marker,
    and a zero commit charge. *)

val clone_from_sealed :
  ?lazy_:bool -> t -> commit_pages:int -> (t * int, [> `Commit_limit ]) result
(** Spawn a child space from a sealed template in O(shared subtrees):
    charge [commit_pages] of commit (the only fallible step, performed
    first so failure leaves the template untouched), then share the
    sealed table by bumping its root — one ["zygote:subtree"] charge per
    occupied root slot, independent of footprint. Returns the child and
    the number of subtrees shared.

    With [~lazy_:true] (demand spawn) the child instead starts from an
    empty table (one ["zygote:subtree"] charge, subtree count 0) and
    records the sealed table as its fault-time {e backing}: each page
    is pulled privately by the pager on first touch, so spawn cost is
    independent even of the template's root fan-out and untouched pages
    are never instantiated. @raise Invalid_argument when [~lazy_:true]
    and no pager is installed. *)

val sole_owner : t -> bool
(** True when every resident frame has refcount exactly 1 — the freeze
    precondition: no COW sharer or template pin may already hold the
    frames this space is about to seal. *)

val destroy_sealed : t -> unit
(** Tear down a template handle: un-pin every resident frame and free
    it. Only legal once nothing alive depends on the template (the
    kernel gates this with EBUSY). Idempotent. *)

val destroy : t -> unit
(** Release every frame and commit charge. Idempotent; using a destroyed
    address space raises [Invalid_argument]. *)

val fold_resident :
  t -> init:'a -> f:('a -> vpn:int -> pte:Pte.t -> 'a) -> 'a
(** Ascending fold over the present PTEs — introspection for tests
    (the batched-vs-reference oracle compares exact table contents)
    and debugging. *)

val fold_lazy : t -> init:'a -> f:('a -> vpn:int -> pte:Pte.t -> 'a) -> 'a
(** Ascending fold over the lazy PTEs (same oracle role). *)

val resident_pages : t -> int
val committed_pages : t -> int
val vma_count : t -> int
val regions : t -> (int * int * Vma.t) list
val pt_nodes : t -> int

val pp_layout : Format.formatter -> t -> unit
(** /proc/pid/maps-style dump, for examples and debugging. *)
