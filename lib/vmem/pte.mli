(** Packed page-table entries.

    A PTE is a single immutable [int]: bit 0 = present, bits 1-3 =
    read/write/exec, bit 4 = copy-on-write, bit 5 = accessed, bit 6 =
    dirty, bit 7 = lazy/prefetched (see below); the frame number
    occupies the bits above {!frame_shift}. Packing keeps a
    fully-mapped multi-GiB address space cheap (one int per page).

    Demand paging adds a third entry state besides absent and present:
    a {e lazy} entry ([bit 7] set, present clear) records permissions
    and a pager {e cookie} (in the frame field) for a page that has
    been mapped but never backed — the first touch is a major fault
    that asks the pager to supply the frame. Because lazy entries are
    not present, every present-gated walk (refcounts, {!clear},
    the batch helpers) skips them without change. On a {e present}
    entry, the same bit 7 means "installed by readahead": the first
    real access clears it and counts as a readahead hit. *)

type t = int

val absent : t
val present : t -> bool

val make : frame:Frame.frame -> perm:Perm.t -> ?cow:bool -> unit -> t
(** A fresh present entry; [cow] defaults to false.
    @raise Invalid_argument on a negative frame. *)

val make_lazy : cookie:int -> perm:Perm.t -> unit -> t
(** A not-present-until-touched entry carrying a pager [cookie]
    (an opaque non-negative int the pager interprets; this module
    only stores it). @raise Invalid_argument on a negative cookie. *)

val frame : t -> Frame.frame
val perm : t -> Perm.t
val writable : t -> bool
(** [(perm t).write] without building the permission record. *)

val cow : t -> bool
val accessed : t -> bool
val dirty : t -> bool

val lazy_ : t -> bool
(** True for lazy (mapped, unbacked) entries only — never for absent
    or present ones. *)

val cookie : t -> int
(** The pager cookie of a lazy entry (reads the frame field). *)

val prefetched : t -> bool
(** True for a present entry installed by pager readahead and not yet
    accessed. *)

val mark_prefetched : t -> t
val clear_prefetched : t -> t

val with_perm : t -> Perm.t -> t
val with_cow : t -> bool -> t
val with_frame : t -> Frame.frame -> t
val mark_accessed : t -> t
val mark_dirty : t -> t

val frame_shift : int

(** {1 Batch helpers}

    The range paths of the simulator process pages by the million;
    these keep the per-page bit work inside this module (one call per
    leaf instead of one cross-module call per page). Each is exactly
    equivalent to the corresponding per-page loop. *)

val blit_run : frames:int array -> n:int -> perm:Perm.t -> t array -> at:int -> unit
(** [blit_run ~frames ~n ~perm dst ~at] writes
    [make ~frame:frames.(k) ~perm ()] into [dst.(at + k)] for
    [k < n]. @raise Invalid_argument on out-of-bounds slices. *)

val frames_of_run : t array -> lo:int -> hi:int -> dst:int array -> int
(** Gather the frame numbers of the present entries of
    [src.(lo..hi)] into [dst] (from index 0); returns how many were
    present. [dst] must have room for [hi - lo + 1]. *)

val downgrade_run : t array -> lo:int -> hi:int -> dst:int array -> int
(** The fork pass over one leaf slice: gather present frame numbers
    into [dst] like {!frames_of_run} and additionally downgrade every
    present writable entry in place to read-only COW (the
    accessed/dirty bits survive). Returns the number of present
    entries. *)

val lazy_blit_run :
  cookies:int array -> n:int -> perm:Perm.t -> t array -> at:int -> unit
(** [lazy_blit_run ~cookies ~n ~perm dst ~at] writes
    [make_lazy ~cookie:cookies.(k) ~perm ()] into [dst.(at + k)] for
    [k < n]. @raise Invalid_argument on out-of-bounds slices. *)

val pp : Format.formatter -> t -> unit
