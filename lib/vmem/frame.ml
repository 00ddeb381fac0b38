type policy = Strict | Overcommit | Demand

type frame = int

(* Refcounts are byte-packed: values 0..253 live directly in [refcounts];
   the sentinel 255 means the true count (>= 254) is in [spill], and the
   sentinel 254 marks an {e immortal} frame — pinned by a sealed
   template, exempt from counting entirely. Sweeps allocate tens of
   millions of frames per boot, so the count store must be one byte per
   frame, not one word. *)
let spilled = 255
let immortal = 254

(* The free list is a LIFO stack, run-compressed: teardown frees frames
   in long ascending bursts, so the stack stores (lo, hi) runs where the
   pushes arrived as lo, lo+1, ..., hi. Popping a run yields hi, hi-1,
   ..., lo — exactly the reverse-push order a flat stack would give.
   Pushes that don't extend the top run just open a new one, so
   arbitrary free patterns degrade to one run per frame, never worse
   than the flat representation.

   The runs live in fixed chunks of [chunk_words] words, (lo, hi) pairs
   side by side: the top chunk is [chunk], the full ones under it are
   [below]. A chunk is small enough for the minor heap, so a growing
   stack never allocates straight into the major heap the way doubling
   a flat array does (millions of words of garbage in a large demand
   paging run). Invariant: [fill = 0] only when [below] is empty too. *)
let chunk_words = 256

type t = {
  nframes : int;
  refcounts : Bytes.t;
  spill : (int, int) Hashtbl.t;  (** true refcounts >= 255 *)
  mutable next_fresh : int;  (** frames >= this have never been handed out *)
  mutable chunk : int array;  (** top free-run chunk: lo at even, hi at odd slots *)
  mutable fill : int;  (** words in use in [chunk] *)
  mutable below : int array list;  (** full chunks under [chunk], topmost first *)
  mutable spare : int array;
      (** an emptied chunk kept for the next overflow ([[||]] if none), so
          a stack hovering at a chunk boundary does not reallocate *)
  mutable used : int;
  mutable pinned : int;  (** frames in the immortal class *)
  mutable committed : int;
  mutable policy : policy;
  data : (int, Bytes.t) Hashtbl.t;  (** materialised contents *)
  mutable data_max : int;  (** no frame above this ever had contents *)
  mutable deny_alloc : (unit -> bool) option;
      (** fault-injection hook: consulted once per frame allocation;
          [true] makes the allocation fail with [`Out_of_memory] *)
  mutable deny_commit : (unit -> bool) option;
      (** fault-injection hook: consulted once per non-empty commit
          charge; [true] makes it fail with [`Commit_limit] *)
  lock : Mutex.t;
  mutable threadsafe : bool;
      (** serialise the shared allocator state (free stack, spill and
          data tables, commit pool) across OCaml domains; enabled by the
          SMP kernel only while its parallel phase is live, so the
          sequential paths never pay for the lock *)
}

let create ?(policy = Strict) ~frames () =
  if frames <= 0 then invalid_arg "Frame.create: frames <= 0";
  {
    nframes = frames;
    refcounts = Bytes.make frames '\000';
    spill = Hashtbl.create 16;
    next_fresh = 0;
    chunk = Array.make chunk_words 0;
    fill = 0;
    below = [];
    spare = [||];
    used = 0;
    pinned = 0;
    committed = 0;
    policy;
    data = Hashtbl.create 64;
    data_max = -1;
    deny_alloc = None;
    deny_commit = None;
    lock = Mutex.create ();
    threadsafe = false;
  }

let set_threadsafe t b = t.threadsafe <- b
let[@inline] lock t = if t.threadsafe then Mutex.lock t.lock
let[@inline] unlock t = if t.threadsafe then Mutex.unlock t.lock

let set_deny_alloc t hook = t.deny_alloc <- hook
let set_deny_commit t hook = t.deny_commit <- hook

let denied hook = match hook with Some f -> f () | None -> false

let policy t = t.policy
let set_policy t p = t.policy <- p
let total t = t.nframes
let used t = t.used
let free t = t.nframes - t.used

let rc_get t f = Char.code (Bytes.unsafe_get t.refcounts f)
let rc_set t f v = Bytes.unsafe_set t.refcounts f (Char.unsafe_chr v)

let check_frame t f name =
  if f < 0 || f >= t.nframes || rc_get t f = 0 then
    invalid_arg (name ^ ": unallocated frame")

let push_free t f =
  let n = t.fill in
  if n > 0 && t.chunk.(n - 1) + 1 = f then t.chunk.(n - 1) <- f
  else begin
    if n = chunk_words then begin
      t.below <- t.chunk :: t.below;
      (if Array.length t.spare > 0 then begin
         t.chunk <- t.spare;
         t.spare <- [||]
       end
       else t.chunk <- Array.make chunk_words 0);
      t.fill <- 0
    end;
    let n = t.fill in
    t.chunk.(n) <- f;
    t.chunk.(n + 1) <- f;
    t.fill <- n + 2
  end

(* Remove the top run (the caller has taken all of its frames). *)
let drop_run t =
  let n = t.fill - 2 in
  if n > 0 then t.fill <- n
  else
    match t.below with
    | c :: rest ->
      t.spare <- t.chunk;
      t.chunk <- c;
      t.below <- rest;
      t.fill <- chunk_words
    | [] -> t.fill <- 0

let no_frame = -1

let take t =
  if denied t.deny_alloc then no_frame
  else begin
    lock t;
    let f =
      if t.fill > 0 then begin
        let n = t.fill in
        let f = t.chunk.(n - 1) in
        if f = t.chunk.(n - 2) then drop_run t else t.chunk.(n - 1) <- f - 1;
        rc_set t f 1;
        t.used <- t.used + 1;
        f
      end
      else if t.next_fresh >= t.nframes then no_frame
      else begin
        let f = t.next_fresh in
        t.next_fresh <- t.next_fresh + 1;
        rc_set t f 1;
        t.used <- t.used + 1;
        f
      end
    in
    unlock t;
    f
  end

let alloc t =
  let f = take t in
  if f = no_frame then Error `Out_of_memory else Ok f

(* With a deny hook installed, the batched path must consult it once per
   frame — exactly like [n] successive allocs would — so "fail the Nth
   frame allocation" schedules bite identically whether the machine runs
   batched or per-page. *)
let alloc_upto_hooked t n =
  let out = Array.make (max n 1) 0 in
  let rec go k =
    if k >= n then k
    else
      let f = take t in
      if f = no_frame then k
      else begin
        out.(k) <- f;
        go (k + 1)
      end
  in
  let k = go 0 in
  if k = n then out else Array.sub out 0 k

let alloc_upto t n =
  if n < 0 then invalid_arg "Frame.alloc_upto: negative count";
  if t.deny_alloc <> None then alloc_upto_hooked t n
  else begin
  lock t;
  let out = Array.make n 0 in
  (* Only the shared free-list/counter manipulation needs the lock; the
     refcount initialisation loop below runs outside it. The popped
     frames are exclusively this caller's until it hands them out, so
     no other domain can touch their count bytes, and byte stores to
     distinct indices don't interfere. This keeps parallel SMP touch
     cores from serialising on O(pages) work under the mutex. *)
  let k = ref 0 in
  (* recycled frames first, newest-freed first — the exact order [n]
     successive allocs would produce *)
  while !k < n && t.fill > 0 do
    let lo = t.chunk.(t.fill - 2) and hi = t.chunk.(t.fill - 1) in
    let take = min (n - !k) (hi - lo + 1) in
    for i = 0 to take - 1 do
      out.(!k + i) <- hi - i
    done;
    if take = hi - lo + 1 then drop_run t else t.chunk.(t.fill - 1) <- hi - take;
    k := !k + take
  done;
  let fresh = min (n - !k) (t.nframes - t.next_fresh) in
  let fresh0 = t.next_fresh in
  t.next_fresh <- t.next_fresh + fresh;
  t.used <- t.used + !k + fresh;
  unlock t;
  for i = 0 to fresh - 1 do
    out.(!k + i) <- fresh0 + i
  done;
  k := !k + fresh;
  for i = 0 to !k - 1 do
    rc_set t out.(i) 1
  done;
  if !k = n then out else Array.sub out 0 !k
  end

let incref_spilling t f c =
  if c = immortal - 1 then begin
    rc_set t f spilled;
    Hashtbl.replace t.spill f (c + 1)
  end
  else Hashtbl.replace t.spill f (Hashtbl.find t.spill f + 1)

let incref t f =
  check_frame t f "Frame.incref";
  lock t;
  let c = rc_get t f in
  if c < immortal - 1 then rc_set t f (c + 1)
  else if c = immortal then ()
  else incref_spilling t f c;
  unlock t

let decref_spilled t f =
  let v = Hashtbl.find t.spill f - 1 in
  if v < immortal then begin
    Hashtbl.remove t.spill f;
    rc_set t f v
  end
  else Hashtbl.replace t.spill f v

let decref t f =
  check_frame t f "Frame.decref";
  lock t;
  let c = rc_get t f in
  let r =
    if c = spilled then begin
      decref_spilled t f;
      false
    end
    else if c = immortal then false
    else begin
      rc_set t f (c - 1);
      if c = 1 then begin
        if f <= t.data_max then Hashtbl.remove t.data f;
        push_free t f;
        t.used <- t.used - 1;
        true
      end
      else false
    end
  in
  unlock t;
  r

let incref_many t fs n =
  if n < 0 || n > Array.length fs then invalid_arg "Frame.incref_many";
  lock t;
  for i = 0 to n - 1 do
    let f = Array.unsafe_get fs i in
    if f < 0 || f >= t.nframes then check_frame t f "Frame.incref";
    let c = rc_get t f in
    if c = 0 then check_frame t f "Frame.incref"
    else if c < immortal - 1 then rc_set t f (c + 1)
    else if c = immortal then ()
    else incref_spilling t f c
  done;
  unlock t

let decref_many t fs n =
  if n < 0 || n > Array.length fs then invalid_arg "Frame.decref_many";
  lock t;
  for i = 0 to n - 1 do
    let f = Array.unsafe_get fs i in
    if f < 0 || f >= t.nframes then check_frame t f "Frame.decref";
    let c = rc_get t f in
    if c = 1 then begin
      rc_set t f 0;
      if f <= t.data_max then Hashtbl.remove t.data f;
      push_free t f;
      t.used <- t.used - 1
    end
    else if c = 0 then check_frame t f "Frame.decref"
    else if c = immortal then ()
    else if c < spilled then rc_set t f (c - 1)
    else decref_spilled t f
  done;
  unlock t

let refcount t f =
  if f < 0 || f >= t.nframes then 0
  else begin
    lock t;
    let r =
      match rc_get t f with
      | c when c = spilled -> Hashtbl.find t.spill f
      | c when c = immortal -> max_int
      | c -> c
    in
    unlock t;
    r
  end

(* The immortal class: a pinned frame belongs to a sealed template, so
   it opts out of reference counting — incref/decref become no-ops,
   {!refcount} reads as [max_int] (COW breaks always copy away from it,
   never reclaim it in place), and the frame cannot be freed until
   {!unpin} returns it to a normally-counted single reference. Pinning
   is what keeps zygote spawns O(shared subtrees): children never touch
   the per-frame counts of template pages. *)
let pin t f =
  check_frame t f "Frame.pin";
  let c = rc_get t f in
  if c <> immortal then begin
    if c = spilled then Hashtbl.remove t.spill f;
    rc_set t f immortal;
    t.pinned <- t.pinned + 1
  end

let pin_many t fs n =
  if n < 0 || n > Array.length fs then invalid_arg "Frame.pin_many";
  for i = 0 to n - 1 do
    pin t (Array.unsafe_get fs i)
  done

let unpin t f =
  check_frame t f "Frame.unpin";
  if rc_get t f <> immortal then invalid_arg "Frame.unpin: frame not pinned";
  rc_set t f 1;
  t.pinned <- t.pinned - 1

let is_pinned t f = f >= 0 && f < t.nframes && rc_get t f = immortal
let pinned t = t.pinned

let commit t pages =
  if pages < 0 then invalid_arg "Frame.commit: negative";
  if pages > 0 && denied t.deny_commit then Error `Commit_limit
  else begin
    lock t;
    let r =
      match t.policy with
      | Overcommit | Demand ->
        (* Demand admits like Overcommit at commit time; the reckoning
           moves to first-touch faults, where the kernel's OOM killer
           frees pressure instead of refusing admission. *)
        t.committed <- t.committed + pages;
        Ok ()
      | Strict ->
        if t.committed + pages > t.nframes then Error `Commit_limit
        else begin
          t.committed <- t.committed + pages;
          Ok ()
        end
    in
    unlock t;
    r
  end

let uncommit t pages =
  if pages < 0 then invalid_arg "Frame.uncommit: negative";
  lock t;
  t.committed <- max 0 (t.committed - pages);
  unlock t

let committed t = t.committed

let contents t f =
  match Hashtbl.find_opt t.data f with
  | Some b -> b
  | None ->
    let b = Bytes.make Addr.page_size '\000' in
    Hashtbl.add t.data f b;
    if f > t.data_max then t.data_max <- f;
    b

let write_byte t f ~off v =
  check_frame t f "Frame.write_byte";
  if off < 0 || off >= Addr.page_size then
    invalid_arg "Frame.write_byte: offset";
  if v < 0 || v > 255 then invalid_arg "Frame.write_byte: byte value";
  lock t;
  Bytes.set (contents t f) off (Char.chr v);
  unlock t

let read_byte t f ~off =
  check_frame t f "Frame.read_byte";
  if off < 0 || off >= Addr.page_size then invalid_arg "Frame.read_byte: offset";
  lock t;
  let r =
    match Hashtbl.find_opt t.data f with
    | None -> 0
    | Some b -> Char.code (Bytes.get b off)
  in
  unlock t;
  r

let blit_string t f ~off s =
  check_frame t f "Frame.blit_string";
  if off < 0 || off + String.length s > Addr.page_size then
    invalid_arg "Frame.blit_string: range";
  lock t;
  Bytes.blit_string s 0 (contents t f) off (String.length s);
  unlock t

let read_string t f ~off ~len =
  check_frame t f "Frame.read_string";
  if off < 0 || len < 0 || off + len > Addr.page_size then
    invalid_arg "Frame.read_string: range";
  lock t;
  let r =
    match Hashtbl.find_opt t.data f with
    | None -> String.make len '\000'
    | Some b -> Bytes.sub_string b off len
  in
  unlock t;
  r

let copy_contents t ~src ~dst =
  check_frame t src "Frame.copy_contents";
  check_frame t dst "Frame.copy_contents";
  (* a frame above [data_max] never had contents: nothing to look up *)
  if src <= t.data_max then begin
    lock t;
    (match Hashtbl.find_opt t.data src with
    | None -> ()
    | Some b ->
      Hashtbl.replace t.data dst (Bytes.copy b);
      if dst > t.data_max then t.data_max <- dst);
    unlock t
  end
