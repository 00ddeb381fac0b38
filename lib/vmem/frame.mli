(** Physical frame allocator with reference counts and commit accounting.

    One {!t} models the physical memory of a simulated machine and is
    shared by every address space on it. Frames are reference-counted so
    copy-on-write sharing (fork) is explicit and checkable. Frame
    *contents* are materialised lazily: an allocated frame reads as
    zeroes until the first byte is written, so a multi-GiB address-space
    sweep costs O(#frames) small integers, not O(bytes).

    Commit accounting models the policy choice the paper ties to fork:
    under [Strict] accounting the sum of committed private pages may not
    exceed physical memory, so forking a large process fails even though
    COW would rarely copy the pages; [Overcommit] waives the check, which
    is exactly the Linux-style behaviour the paper blames fork for
    encouraging (and which surfaces later as OOM kills). [Demand] also
    waives the check — admission is identical to [Overcommit] — but is
    the kernel's signal that backing failures at first-touch faults
    should invoke the OOM-killer victim chooser rather than surface as
    ENOMEM to the toucher (see [Ksim.Kernel]). *)

type policy = Strict | Overcommit | Demand

type t

type frame = int
(** Frame number in [[0, total)]. *)

val create : ?policy:policy -> frames:int -> unit -> t
(** [create ~frames ()] models a machine with [frames] physical frames.
    Default policy is [Strict]. @raise Invalid_argument if [frames <= 0]. *)

val policy : t -> policy
val set_policy : t -> policy -> unit

val set_threadsafe : t -> bool -> unit
(** Serialise the shared allocator state (free stack, spill/data tables,
    commit pool) behind a mutex, for the SMP kernel's domain-parallel
    phase. Off by default; the sequential paths never pay for the lock.
    Per-frame refcount bytes of {e distinct} frames are already safe to
    update concurrently — the kernel's family discipline guarantees no
    two domains ever count the same frame. *)

val set_deny_alloc : t -> (unit -> bool) option -> unit
(** Install (or clear) a fault-injection hook consulted once per frame
    allocation, batched paths included; returning [true] fails that
    allocation with [`Out_of_memory]. Used by [Ksim.Fault]. *)

val set_deny_commit : t -> (unit -> bool) option -> unit
(** Like {!set_deny_alloc} for {!commit}: consulted once per call that
    charges a positive number of pages; [true] fails it with
    [`Commit_limit] regardless of policy. *)

val total : t -> int
val used : t -> int
val free : t -> int

val alloc : t -> (frame, [> `Out_of_memory ]) result
(** Allocate a zero-filled frame with refcount 1. *)

val no_frame : frame
(** [-1]: what {!take} returns when no frame can be had. *)

val take : t -> frame
(** {!alloc} without the result box, for per-page loops that must not
    allocate on the host: the frame, or {!no_frame} when memory is out
    or the deny hook refused. *)

val alloc_upto : t -> int -> frame array
(** [alloc_upto t n] allocates up to [n] frames (each refcount 1) in
    exactly the order [n] successive {!alloc} calls would have produced
    — recycled frames newest-freed first, then fresh ones ascending.
    The result is shorter than [n] when memory runs out (possibly
    empty); no error is raised. *)

val incref : t -> frame -> unit
(** @raise Invalid_argument on an unallocated frame. *)

val decref : t -> frame -> bool
(** Drop one reference; returns [true] when this freed the frame (its
    contents are discarded). @raise Invalid_argument on an unallocated
    frame. *)

val incref_many : t -> frame array -> int -> unit
(** [incref_many t fs n] is {!incref} on [fs.(0..n-1)] in order, in one
    call (the fork pass increfs every resident frame).
    @raise Invalid_argument like {!incref}, or on a bad [n]. *)

val decref_many : t -> frame array -> int -> unit
(** [decref_many t fs n] is {!decref} on [fs.(0..n-1)] in order, in one
    call, discarding the per-frame results (teardown drops whole leaves
    at a time). @raise Invalid_argument like {!decref}, or on a bad
    [n]. *)

val refcount : t -> frame -> int
(** 0 for unallocated frames; [max_int] for pinned (immortal) frames. *)

val pin : t -> frame -> unit
(** Move the frame into the immortal refcount class: {!incref} and
    {!decref} become no-ops and {!refcount} reads as [max_int], so COW
    breaks always copy away from it and nothing can free it. Sealed
    templates pin their pages so zygote children never touch the
    per-frame counts. Idempotent. @raise Invalid_argument on an
    unallocated frame. *)

val pin_many : t -> frame array -> int -> unit
(** [pin_many t fs n] is {!pin} on [fs.(0..n-1)] (the seal pass pins
    every resident frame). @raise Invalid_argument like {!pin}, or on a
    bad [n]. *)

val unpin : t -> frame -> unit
(** Return a pinned frame to a normally-counted single reference
    (refcount 1) — the template-teardown path, after which a plain
    {!decref} frees it. @raise Invalid_argument if the frame is not
    pinned. *)

val is_pinned : t -> frame -> bool

val pinned : t -> int
(** Number of frames currently in the immortal class. *)

val commit : t -> int -> (unit, [> `Commit_limit ]) result
(** [commit t pages] charges [pages] of commit. Fails under [Strict]
    when the new total would exceed {!total}; always succeeds under
    [Overcommit]. *)

val uncommit : t -> int -> unit
(** Releases commit charge; clamps at zero rather than going negative. *)

val committed : t -> int

val write_byte : t -> frame -> off:int -> int -> unit
(** Materialises the frame contents on first write.
    @raise Invalid_argument on a bad frame, offset or byte value. *)

val read_byte : t -> frame -> off:int -> int
(** Reads 0 from never-written frames. *)

val blit_string : t -> frame -> off:int -> string -> unit
val read_string : t -> frame -> off:int -> len:int -> string

val copy_contents : t -> src:frame -> dst:frame -> unit
(** Copy page contents (used when breaking COW). Never-written sources
    leave [dst] untouched (both read as zeroes). *)
