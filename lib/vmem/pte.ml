type t = int

let bit_present = 1
let bit_read = 2
let bit_write = 4
let bit_exec = 8
let bit_cow = 16
let bit_accessed = 32
let bit_dirty = 64
let bit_lazy = 128
let frame_shift = 8
let absent = 0
let present t = t land bit_present <> 0

let make ~frame ~perm ?(cow = false) () =
  if frame < 0 then invalid_arg "Pte.make: negative frame";
  (frame lsl frame_shift)
  lor bit_present
  lor (if perm.Perm.read then bit_read else 0)
  lor (if perm.Perm.write then bit_write else 0)
  lor (if perm.Perm.exec then bit_exec else 0)
  lor if cow then bit_cow else 0

let frame t = t lsr frame_shift

(* A lazy (not-present-until-touched) entry reuses the frame field as an
   opaque pager cookie. It never sets bit_present, so every present-gated
   walk (clear, refcount passes, the batch helpers below) skips it for
   free; only the fault path and the explicit range installers look at
   bit_lazy. *)
let make_lazy ~cookie ~perm () =
  if cookie < 0 then invalid_arg "Pte.make_lazy: negative cookie";
  (cookie lsl frame_shift)
  lor bit_lazy
  lor (if perm.Perm.read then bit_read else 0)
  lor (if perm.Perm.write then bit_write else 0)
  lor if perm.Perm.exec then bit_exec else 0

let lazy_ t = t land bit_lazy <> 0 && t land bit_present = 0
let cookie t = t lsr frame_shift

(* On a present entry, bit 7 marks "installed by readahead, not yet
   touched" — the first real access clears it and counts as a readahead
   hit instead of a fault. *)
let mark_prefetched t = t lor bit_lazy
let prefetched t = t land bit_lazy <> 0 && t land bit_present <> 0
let clear_prefetched t = t land lnot bit_lazy

let perm t =
  {
    Perm.read = t land bit_read <> 0;
    write = t land bit_write <> 0;
    exec = t land bit_exec <> 0;
  }

let writable t = t land bit_write <> 0
let cow t = t land bit_cow <> 0
let accessed t = t land bit_accessed <> 0
let dirty t = t land bit_dirty <> 0

let with_perm t p =
  let cleared = t land lnot (bit_read lor bit_write lor bit_exec) in
  cleared
  lor (if p.Perm.read then bit_read else 0)
  lor (if p.Perm.write then bit_write else 0)
  lor if p.Perm.exec then bit_exec else 0

let with_cow t c = if c then t lor bit_cow else t land lnot bit_cow

let with_frame t f =
  if f < 0 then invalid_arg "Pte.with_frame: negative frame";
  (f lsl frame_shift) lor (t land ((1 lsl frame_shift) - 1))

let mark_accessed t = t lor bit_accessed
let mark_dirty t = t lor bit_dirty

(* Batch helpers: the simulator's range paths process pages by the
   million, and without cross-module inlining a per-page [make] or
   [frame] call dominates the loop, so these keep the per-page work
   inside this module. *)

let blit_run ~frames ~n ~perm dst ~at =
  if n < 0 || n > Array.length frames || at < 0 || at + n > Array.length dst
  then invalid_arg "Pte.blit_run";
  if n > 0 then begin
    let template = make ~frame:0 ~perm () in
    for k = 0 to n - 1 do
      Array.unsafe_set dst (at + k)
        (template lor (Array.unsafe_get frames k lsl frame_shift))
    done
  end

let frames_of_run src ~lo ~hi ~dst =
  if lo < 0 || hi >= Array.length src || hi - lo >= Array.length dst then
    invalid_arg "Pte.frames_of_run";
  let k = ref 0 in
  for i = lo to hi do
    let pte = Array.unsafe_get src i in
    if pte land bit_present <> 0 then begin
      Array.unsafe_set dst !k (pte lsr frame_shift);
      incr k
    end
  done;
  !k

let downgrade_run src ~lo ~hi ~dst =
  if lo < 0 || hi >= Array.length src || hi - lo >= Array.length dst then
    invalid_arg "Pte.downgrade_run";
  let k = ref 0 in
  for i = lo to hi do
    let pte = Array.unsafe_get src i in
    if pte land bit_present <> 0 then begin
      Array.unsafe_set dst !k (pte lsr frame_shift);
      incr k;
      if pte land bit_write <> 0 then
        Array.unsafe_set src i ((pte land lnot bit_write) lor bit_cow)
    end
  done;
  !k

let lazy_blit_run ~cookies ~n ~perm dst ~at =
  if n < 0 || n > Array.length cookies || at < 0 || at + n > Array.length dst
  then invalid_arg "Pte.lazy_blit_run";
  if n > 0 then begin
    let template = make_lazy ~cookie:0 ~perm () in
    for k = 0 to n - 1 do
      Array.unsafe_set dst (at + k)
        (template lor (Array.unsafe_get cookies k lsl frame_shift))
    done
  end

let pp ppf t =
  if lazy_ t then
    Format.fprintf ppf "lazy cookie=%d %a" (cookie t) Perm.pp (perm t)
  else if not (present t) then Format.pp_print_string ppf "<absent>"
  else
    Format.fprintf ppf "frame=%d %a%s%s%s%s" (frame t) Perm.pp (perm t)
      (if cow t then " cow" else "")
      (if accessed t then " acc" else "")
      (if dirty t then " dirty" else "")
      (if prefetched t then " pref" else "")
