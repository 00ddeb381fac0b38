(** The simulated user-mode pager behind demand paging.

    A {!Vmem.Addr_space.pager} describes what pulling a page costs, per
    source; the address space does the pulling. This module owns that
    fetch-cost model and the private cookie encoding, keeping vmem
    ignorant of what a cookie means. Three page sources are modelled:

    - {e zero-fill} ([zero_cookie]): anonymous demand memory served by
      the pager (charged ["pager:fetch-zero"]);
    - {e image-backed} ([image_cookie]): a page of the executable image,
      installed lazily by a demand-paged exec (["pager:fetch-image"]);
    - {e template-backed} (no cookie — the backing-table path): a page
      copied out of a sealed zygote template on first touch
      (["pager:fetch-template"]).

    Each first-touch fault additionally charges one ["pager:request"]
    upcall, amortised over [readahead + 1] pages when readahead pulls
    neighbours in — the batching policy knob of E18.

    The interface is run-granular: the pager classifies a cookie
    ([fetch_class], the cookie's tag) and prices one page of each class
    from the meter's {!Vmem.Cost.params}; the address space counts the
    pages a touch pulls and charges every source once per touch, with
    the page count as the event count. Only [deny], the fault-injection
    hook, is consulted page by page, so injected failures land on the
    same pages whether a space is batched or not.

    On a real OS this layer is what [userfaultfd] (Linux) or an external
    pager port (Mach) would implement; here only its costs are
    simulated. *)

val zero_cookie : int
(** Cookie for pager-served demand-zero pages. *)

val image_cookie : page:int -> int
(** Cookie for page [page] (0-based) of an executable image.
    @raise Invalid_argument on a negative page. *)

val image_stride : int
(** The per-page cookie increment of a consecutive image run:
    [image_cookie ~page:(p + 1) = image_cookie ~page:p + image_stride].
    Pass as [~stride] to {!Vmem.Addr_space.map_lazy} when installing an
    image segment in one call. *)

val decode : int -> [ `Zero | `Image of int ]
(** Inverse of the encoders (exposed for tests and trace dumps).
    @raise Invalid_argument on an unknown tag. *)

val make :
  frames:Vmem.Frame.t ->
  deny:(unit -> bool) ->
  readahead:int ->
  unit ->
  Vmem.Addr_space.pager
(** Build the pager for one machine: [frames] is its physical memory
    (only spaces on that machine accept the pager; template fetches copy
    pinned frames within it), [deny] the fault-injection hook consulted
    per pulled page (wire to {!Fault.on_pager_fetch}), [readahead] the
    batch knob.
    @raise Invalid_argument on negative [readahead]. *)
