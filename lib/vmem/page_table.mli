(** 4-level radix page table over packed {!Pte} entries.

    This is the data structure whose wholesale duplication makes fork's
    cost proportional to the parent's address-space size: {!clone_cow}
    walks and copies every table page containing a present entry, which
    is exactly what a COW fork must do, while a freshly spawned process
    starts from an empty table.

    The harness-side representation is decoupled from the modelled cost:
    table nodes are reference-counted, so {!clone_cow_shared} can charge
    the full modelled copy while actually sharing untouched subtrees
    between parent and child, privatising them only when written. Range
    operations ({!map_range}, {!unmap_range}, {!protect_range}, and
    cursors over {!find_leaf} and {!writable_leaf}) locate each leaf
    once and then work on its packed PTE array directly, making hot
    paths O(leaves), not O(pages). *)

type t

val create : unit -> t

val map : t -> vpn:int -> Pte.t -> unit
(** Install (or replace) the entry for virtual page [vpn], allocating
    intermediate table nodes as needed.
    @raise Invalid_argument if [vpn] is out of range or the PTE is
    absent. *)

val unmap : t -> vpn:int -> Pte.t
(** Remove and return the entry ({!Pte.absent} if none was present).
    Lazy (demand-paged) entries are removed too and returned. *)

val lookup : t -> vpn:int -> Pte.t
(** {!Pte.absent} when unmapped. *)

val update : t -> vpn:int -> (Pte.t -> Pte.t) -> bool
(** Apply a function to a *present* entry in place; returns false (and
    does nothing) when the page is unmapped. The function must return a
    present entry. *)

val present_count : t -> int
(** Number of present leaf entries. *)

val lazy_count : t -> int
(** Number of lazy (mapped-but-unbacked, demand-paged) entries. *)

val node_count : t -> int
(** Number of table pages this table logically owns, root included.
    Subtrees shared with a clone count towards both tables (each was
    charged for its copy at fork time). *)

val iter_leaves : t -> f:(base:int -> Pte.t array -> unit) -> unit
(** Call [f] on every existing leaf in increasing vpn order, with the
    vpn of the leaf's slot 0 and its packed entry array, in one walk of
    the tree: O(table nodes), never O(pages). The array may be shared
    with a clone; as with {!find_leaf}, read it only, unless the caller
    owns every table sharing it. *)

val fold_present : t -> init:'a -> f:('a -> vpn:int -> Pte.t -> 'a) -> 'a
(** Iterate all present entries in increasing vpn order. *)

val fold_lazy : t -> init:'a -> f:('a -> vpn:int -> Pte.t -> 'a) -> 'a
(** Iterate all lazy (demand-paged) entries in increasing vpn order. *)

val map_range : t -> vpn:int -> Pte.t array -> unit
(** Install [ptes.(i)] at [vpn + i] for every [i], locating each leaf
    once ([Array.blit] into fresh leaves). Equivalent to repeated
    {!map}. @raise Invalid_argument on out-of-range vpns or absent
    PTEs. *)

val map_lazy_range :
  t -> vpn:int -> n:int -> cookie0:int -> stride:int -> perm:Perm.t -> unit
(** Install [n] lazy (demand-paged) entries from [vpn], locating each
    leaf once: page [k] of the run carries cookie [cookie0 + k*stride]
    ([stride] 1 indexes consecutive image pages, 0 repeats a constant
    source cookie). No frame is allocated, no byte copied. The range
    must be wholly absent. @raise Invalid_argument on out-of-range
    vpns, negative cookie runs, or occupied slots. *)

val unmap_range : t -> vpn0:int -> vpn1:int -> f:(Pte.t -> unit) -> int
(** Remove every present entry in [[vpn0, vpn1]], calling [f] on each
    removed PTE in ascending vpn order; returns the number removed.
    Lazy entries in the range are dropped too (without calling [f] —
    there is no frame to release), but not counted in the result.
    Like {!unmap}, emptied leaf nodes stay allocated. *)

val protect_range : t -> vpn0:int -> vpn1:int -> f:(Pte.t -> Pte.t) -> int
(** Apply [f] to every present entry in [[vpn0, vpn1]] in place, in
    ascending vpn order; returns the number updated. [f] must return
    present entries. Equivalent to {!update} on every page of the
    range. *)

val find_leaf : t -> vpn:int -> Pte.t array
(** The packed entry array of the leaf covering [vpn] (index it with
    [vpn land (Addr.entries_per_table - 1)]), or [[||]] when that leaf
    does not exist. The array may be shared with a clone: read it only,
    and write through {!writable_leaf}. For cursors that visit many
    pages of one leaf, locating it once. *)

val writable_leaf : t -> vpn:int -> Pte.t array
(** The leaf covering [vpn], privatised from any clone and created
    (with its intermediate nodes) when missing: entries may be written
    directly, reporting count changes via {!note_mapped} and
    {!note_lazy}. *)

val note_mapped : t -> int -> unit
(** Adjust the present-entry counter by [n] — for range fillers writing
    through {!writable_leaf}. *)

val note_lazy : t -> int -> unit
(** Adjust the lazy-entry counter by [n] — for batched fault paths that
    convert lazy entries to present through {!writable_leaf} (which must
    also {!note_mapped} the same count). *)

val clone_cow : t -> frames:Frame.t -> cost:Cost.t -> t
(** Duplicate the table for a forked child: every table node is copied
    (charged as [pt_node_copy]), every present entry visited (charged as
    [pte_copy]); writable entries are downgraded to read-only+COW in
    {b both} parent and child, and each referenced frame's refcount is
    incremented. Lazy entries are copied verbatim (also [pte_copy] — a
    PTE word the fork must copy, though no frame backs it): both sides
    keep the cookie and fault their page independently. The caller is
    responsible for the parent TLB flush this downgrade requires. This
    is the eager reference walk — the oracle the batched path is tested
    against. *)

val clone_cow_shared :
  t ->
  frames:Frame.t ->
  cost:Cost.t ->
  shared:(int * int * Perm.t) list ->
  t
(** Fork the table with lazy subtree sharing: charges exactly what
    {!clone_cow} would ([pt_node_copy] per node, [pte_copy] per present
    entry, each frame incref'd), but the child shares every node with
    the parent until one side writes. [shared] lists the vpn ranges
    [(lo, hi, perm)] of shared VMAs, ascending and disjoint: their pages
    are pinned at the region permission with COW clear (the
    {!clone_cow}-then-fixup result), all other writable pages are
    downgraded to read-only COW in both tables. *)

val seal_cow :
  t ->
  frames:Frame.t ->
  cost:Cost.t ->
  shared:(int * int * Perm.t) list ->
  t
(** Seal the table into a template image: the same transform pass (and
    the same [pt_node_copy]/[pte_copy] charges) as {!clone_cow_shared},
    but every resident frame is moved into the immortal refcount class
    ({!Frame.pin}) instead of gaining a reference. The returned table is
    the template's handle; [t] remains usable by the source process,
    whose later writes COW away from the pinned frames. The caller owes
    the source TLB flush the downgrade requires. *)

val clone_sealed : t -> cost:Cost.t -> t * int
(** Clone a sealed template table for a zygote child in O(top-level
    subtrees): the frames behind it are immortal and the PTEs are
    already in post-fork form, so the clone bumps the root and charges
    one [pt_node_copy] per occupied root slot — cost proportional to the
    root fan-out (category ["zygote:subtree"]), not the footprint.
    Returns the child table and the number of subtrees shared. *)

val clear : t -> frames:Frame.t -> int
(** Drop every present entry, decrementing frame refcounts; returns the
    number of entries dropped. Subtrees shared with a clone survive
    under the other table. Used by exec and process teardown. *)
