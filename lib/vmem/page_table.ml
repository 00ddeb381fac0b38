(* Nodes are reference-counted so {!clone_cow_shared} can hand the whole
   radix tree to a forked child without copying it: both tables point at
   the same nodes until one of them writes, at which point the writer
   privatises the path to the touched leaf (path copying). The modelled
   cost of the copy is still charged eagerly at clone time — sharing is
   a harness optimisation, never a semantic one. *)
type node =
  | Leaf of { mutable refs : int; entries : int array }  (** packed PTEs *)
  | Inner of { mutable refs : int; children : node option array }

type t = {
  mutable root : node;
  mutable present : int;
  mutable lazy_ : int;  (** mapped-but-unbacked (demand-paged) entries *)
  mutable nodes : int;
}

let new_leaf () =
  Leaf { refs = 1; entries = Array.make Addr.entries_per_table Pte.absent }

let new_inner () =
  Inner { refs = 1; children = Array.make Addr.entries_per_table None }

let create () = { root = new_inner (); present = 0; lazy_ = 0; nodes = 1 }

let check_vpn vpn =
  if vpn < 0 || vpn >= Addr.max_va lsr Addr.page_shift then
    invalid_arg "Page_table: vpn out of range"

let bump = function
  | Leaf l -> l.refs <- l.refs + 1
  | Inner i -> i.refs <- i.refs + 1

(* One more owner is about to write through [node]: give the caller a
   copy it owns exclusively (children keep their identity and gain a
   reference from the copy). Nodes already exclusively owned are
   returned as-is. *)
let privatize = function
  | Leaf l when l.refs > 1 ->
    l.refs <- l.refs - 1;
    Leaf { refs = 1; entries = Array.copy l.entries }
  | Inner i when i.refs > 1 ->
    i.refs <- i.refs - 1;
    let children = Array.copy i.children in
    Array.iter (function None -> () | Some c -> bump c) children;
    Inner { refs = 1; children }
  | n -> n

(* Read-only walk from the root (level = levels-1) down to the leaf;
   [[||]] when the leaf does not exist (no option box: fault paths walk
   once per page). *)
let rec walk_ro node level vpn =
  match node with
  | Leaf l -> l.entries
  | Inner i -> (
    match i.children.(Addr.table_index ~level vpn) with
    | None -> [||]
    | Some child -> walk_ro child (level - 1) vpn)

(* Walk for writing: privatise every node on the path so mutating the
   returned leaf array cannot be observed through another table, and
   optionally create missing nodes ([t.nodes] counts this table's
   logical pages, so creation bumps it exactly like the eager walk). *)
let leaf_for_write t vpn ~create_missing =
  let root = privatize t.root in
  t.root <- root;
  let rec go node level =
    match node with
    | Leaf l -> Some l.entries
    | Inner i -> (
      let idx = Addr.table_index ~level vpn in
      match i.children.(idx) with
      | Some child ->
        let child' = privatize child in
        if child' != child then i.children.(idx) <- Some child';
        go child' (level - 1)
      | None ->
        if not create_missing then None
        else begin
          let child = if level = 1 then new_leaf () else new_inner () in
          i.children.(idx) <- Some child;
          t.nodes <- t.nodes + 1;
          go child (level - 1)
        end)
  in
  go root (Addr.levels - 1)

let map t ~vpn pte =
  check_vpn vpn;
  if not (Pte.present pte) then invalid_arg "Page_table.map: absent pte";
  match leaf_for_write t vpn ~create_missing:true with
  | None -> assert false
  | Some entries ->
    let idx = Addr.table_index ~level:0 vpn in
    let old = entries.(idx) in
    if not (Pte.present old) then t.present <- t.present + 1;
    if Pte.lazy_ old then t.lazy_ <- t.lazy_ - 1;
    entries.(idx) <- pte

let unmap t ~vpn =
  check_vpn vpn;
  match leaf_for_write t vpn ~create_missing:false with
  | None -> Pte.absent
  | Some entries ->
    let idx = Addr.table_index ~level:0 vpn in
    let old = entries.(idx) in
    if Pte.present old then begin
      entries.(idx) <- Pte.absent;
      t.present <- t.present - 1
    end
    else if Pte.lazy_ old then begin
      entries.(idx) <- Pte.absent;
      t.lazy_ <- t.lazy_ - 1
    end;
    old

let lookup t ~vpn =
  check_vpn vpn;
  let entries = walk_ro t.root (Addr.levels - 1) vpn in
  if Array.length entries = 0 then Pte.absent
  else entries.(Addr.table_index ~level:0 vpn)

let update t ~vpn f =
  check_vpn vpn;
  let entries = walk_ro t.root (Addr.levels - 1) vpn in
  if Array.length entries = 0 then false
  else
    let idx = Addr.table_index ~level:0 vpn in
    let old = entries.(idx) in
    if not (Pte.present old) then false
    else begin
      let updated = f old in
      if not (Pte.present updated) then
        invalid_arg "Page_table.update: function returned absent pte";
      if updated <> old then begin
        match leaf_for_write t vpn ~create_missing:false with
        | None -> assert false
        | Some entries -> entries.(idx) <- updated
      end;
      true
    end

let find_leaf t ~vpn =
  check_vpn vpn;
  walk_ro t.root (Addr.levels - 1) vpn

let writable_leaf t ~vpn =
  check_vpn vpn;
  match leaf_for_write t vpn ~create_missing:true with
  | Some entries -> entries
  | None -> assert false

let present_count t = t.present
let lazy_count t = t.lazy_
let node_count t = t.nodes
let note_mapped t n = t.present <- t.present + n
let note_lazy t n = t.lazy_ <- t.lazy_ + n

(* Every existing leaf, in ascending vpn order, with the vpn of its
   first slot. The tree is walked once: O(nodes), never O(pages). *)
let iter_leaves t ~f =
  (* the vpn is reconstructed incrementally: at each level the child
     index contributes 9 more bits *)
  let rec go node vpn_prefix =
    match node with
    | Leaf l -> f ~base:(vpn_prefix lsl Addr.index_bits) l.entries
    | Inner i ->
      for idx = 0 to Addr.entries_per_table - 1 do
        match i.children.(idx) with
        | None -> ()
        | Some child -> go child ((vpn_prefix lsl Addr.index_bits) lor idx)
      done
  in
  go t.root 0

let fold_entries t ~keep ~init ~f =
  let acc = ref init in
  iter_leaves t ~f:(fun ~base entries ->
      for i = 0 to Addr.entries_per_table - 1 do
        if keep entries.(i) then acc := f !acc ~vpn:(base lor i) entries.(i)
      done);
  !acc

let fold_present t ~init ~f = fold_entries t ~keep:Pte.present ~init ~f
let fold_lazy t ~init ~f = fold_entries t ~keep:Pte.lazy_ ~init ~f

(* Leaf-granular cursor over [vpn0, vpn1]: one callback per leaf
   position, in ascending vpn order. O(leaves * levels), never
   O(pages). *)
let fold_leaves t ~vpn0 ~vpn1 ~init ~missing ~leaf =
  if vpn1 < vpn0 then init
  else begin
  check_vpn vpn0;
  check_vpn vpn1;
  let acc = ref init in
  let li = ref (vpn0 lsr Addr.index_bits) in
  let last = vpn1 lsr Addr.index_bits in
  while !li <= last do
    let base = !li lsl Addr.index_bits in
    let lo = if base < vpn0 then vpn0 - base else 0 in
    let hi =
      if base + Addr.entries_per_table - 1 > vpn1 then vpn1 - base
      else Addr.entries_per_table - 1
    in
    (match walk_ro t.root (Addr.levels - 1) base with
    | [||] ->
      let materialize () =
        match leaf_for_write t base ~create_missing:true with
        | Some e -> e
        | None -> assert false
      in
      acc := missing !acc ~vpn:(base + lo) ~span:(hi - lo + 1) ~materialize
    | entries ->
      let writable () =
        match leaf_for_write t base ~create_missing:false with
        | Some e -> e
        | None -> assert false
      in
      acc := leaf !acc ~base ~entries ~lo ~hi ~writable);
    incr li
  done;
  !acc
  end

let map_range t ~vpn ptes =
  let n = Array.length ptes in
  if n > 0 then begin
    check_vpn vpn;
    check_vpn (vpn + n - 1);
    Array.iter
      (fun pte ->
        if not (Pte.present pte) then
          invalid_arg "Page_table.map_range: absent pte")
      ptes;
    ignore
      (fold_leaves t ~vpn0:vpn ~vpn1:(vpn + n - 1) ~init:()
         ~missing:(fun () ~vpn:v ~span ~materialize ->
           let entries = materialize () in
           let i0 = v land (Addr.entries_per_table - 1) in
           Array.blit ptes (v - vpn) entries i0 span;
           t.present <- t.present + span)
         ~leaf:(fun () ~base ~entries:_ ~lo ~hi ~writable ->
           let entries = writable () in
           for i = lo to hi do
             let old = entries.(i) in
             if not (Pte.present old) then t.present <- t.present + 1;
             if Pte.lazy_ old then t.lazy_ <- t.lazy_ - 1;
             entries.(i) <- ptes.(base + i - vpn)
           done))
  end

(* Install a run of lazy (demand-paged) entries over an absent range,
   locating each leaf once: page k of the run carries cookie
   [cookie0 + k*stride] (stride 1 indexes consecutive image pages,
   stride 0 repeats a constant source cookie). No frame is allocated
   and no byte copied — this is the O(ranges) map the lazy exec/spawn
   paths buy. The range must be wholly absent (the loader maps into
   fresh VMAs). *)
let map_lazy_range t ~vpn ~n ~cookie0 ~stride ~perm =
  if n > 0 then begin
    check_vpn vpn;
    check_vpn (vpn + n - 1);
    if cookie0 < 0 || stride < 0 then
      invalid_arg "Page_table.map_lazy_range: bad cookie run";
    let install entries ~at ~from ~span =
      let cookies =
        Array.init span (fun k -> cookie0 + ((from + k) * stride))
      in
      Pte.lazy_blit_run ~cookies ~n:span ~perm entries ~at;
      t.lazy_ <- t.lazy_ + span
    in
    ignore
      (fold_leaves t ~vpn0:vpn ~vpn1:(vpn + n - 1) ~init:()
         ~missing:(fun () ~vpn:v ~span ~materialize ->
           install (materialize ())
             ~at:(v land (Addr.entries_per_table - 1))
             ~from:(v - vpn) ~span)
         ~leaf:(fun () ~base ~entries ~lo ~hi ~writable ->
           for i = lo to hi do
             if entries.(i) <> Pte.absent then
               invalid_arg "Page_table.map_lazy_range: occupied slot"
           done;
           install (writable ()) ~at:lo ~from:(base + lo - vpn)
             ~span:(hi - lo + 1)))
  end

let protect_range t ~vpn0 ~vpn1 ~f =
  if vpn1 < vpn0 then 0
  else
    fold_leaves t ~vpn0 ~vpn1 ~init:0
      ~missing:(fun acc ~vpn:_ ~span:_ ~materialize:_ -> acc)
      ~leaf:(fun acc ~base:_ ~entries ~lo ~hi ~writable ->
        let any = ref false in
        (try
           for i = lo to hi do
             if Pte.present entries.(i) then begin
               any := true;
               raise Exit
             end
           done
         with Exit -> ());
        if not !any then acc
        else begin
          let entries = writable () in
          let n = ref 0 in
          for i = lo to hi do
            let pte = entries.(i) in
            if Pte.present pte then begin
              let updated = f pte in
              if not (Pte.present updated) then
                invalid_arg "Page_table.protect_range: absent pte";
              entries.(i) <- updated;
              incr n
            end
          done;
          acc + !n
        end)

let unmap_range t ~vpn0 ~vpn1 ~f =
  if vpn1 < vpn0 then 0
  else
    fold_leaves t ~vpn0 ~vpn1 ~init:0
      ~missing:(fun acc ~vpn:_ ~span:_ ~materialize:_ -> acc)
      ~leaf:(fun acc ~base:_ ~entries ~lo ~hi ~writable ->
        let any = ref false in
        (try
           for i = lo to hi do
             if entries.(i) <> Pte.absent then begin
               any := true;
               raise Exit
             end
           done
         with Exit -> ());
        if not !any then acc
        else begin
          let entries = writable () in
          let n = ref 0 and dropped_lazy = ref 0 in
          for i = lo to hi do
            let pte = entries.(i) in
            if Pte.present pte then begin
              f pte;
              entries.(i) <- Pte.absent;
              incr n
            end
            else if Pte.lazy_ pte then begin
              (* unbacked entry: nothing to release, just forget it *)
              entries.(i) <- Pte.absent;
              incr dropped_lazy
            end
          done;
          t.present <- t.present - !n;
          t.lazy_ <- t.lazy_ - !dropped_lazy;
          acc + !n
        end)

let clone_cow t ~frames ~cost =
  let p = Cost.params cost in
  let nodes = ref 0 in
  let present = ref 0 in
  let lazies = ref 0 in
  let rec copy node =
    incr nodes;
    Cost.charge cost "fork:pt-node" p.Cost.pt_node_copy;
    match node with
    | Leaf l ->
      let dst = Array.make Addr.entries_per_table Pte.absent in
      for i = 0 to Addr.entries_per_table - 1 do
        let pte = l.entries.(i) in
        if Pte.present pte then begin
          Cost.charge cost "fork:pte" p.Cost.pte_copy;
          incr present;
          Frame.incref frames (Pte.frame pte);
          let shared =
            if (Pte.perm pte).Perm.write then
              (* downgrade to read-only COW in both tables *)
              Pte.with_cow
                (Pte.with_perm pte
                   { (Pte.perm pte) with Perm.write = false })
                true
            else pte
          in
          l.entries.(i) <- shared;
          dst.(i) <- shared
        end
        else if Pte.lazy_ pte then begin
          (* an unbacked entry is still a PTE word the fork copies; both
             sides keep the cookie and fault their page independently *)
          Cost.charge cost "fork:pte" p.Cost.pte_copy;
          incr lazies;
          dst.(i) <- pte
        end
      done;
      Leaf { refs = 1; entries = dst }
    | Inner inner ->
      let dst = Array.make Addr.entries_per_table None in
      for i = 0 to Addr.entries_per_table - 1 do
        match inner.children.(i) with
        | None -> ()
        | Some child -> dst.(i) <- Some (copy child)
      done;
      Inner { refs = 1; children = dst }
  in
  let root = copy t.root in
  { root; present = !present; lazy_ = !lazies; nodes = !nodes }

(* The fork transform a PTE undergoes during {!clone_cow} followed by
   the shared-VMA fixup the address space applies afterwards, fused:
   pages of shared VMAs end up at the region permission with COW clear,
   private writable pages are downgraded to read-only COW. *)
let fork_transform pte ~shared_perm =
  match shared_perm with
  | Some rperm ->
    if (Pte.perm pte).Perm.write || Pte.cow pte then
      Pte.with_cow (Pte.with_perm pte rperm) false
    else pte
  | None ->
    if (Pte.perm pte).Perm.write then
      Pte.with_cow
        (Pte.with_perm pte { (Pte.perm pte) with Perm.write = false })
        true
    else pte

(* The shared fork pass behind {!clone_cow_shared} and {!seal_cow}:
   [hold] gives one present frame its new owner and [hold_many] the
   first [k] frames of a scratch array. Callers pass full-arity lambdas:
   a partial application such as [Frame.incref_many frames] allocates
   an intermediate closure each time it is applied to its last two
   arguments. *)
let share_pass t ~cost ~shared ~hold ~hold_many =
  let p = Cost.params cost in
  (* Charge what the eager walk would have: one pt_node_copy per table
     page (empty ones included — the eager walk copies those too) and
     one pte_copy per present entry. All cost parameters are
     integer-valued, so n summed charges and one charge of n*c are the
     same float exactly. *)
  Cost.charge ~n:t.nodes cost "fork:pt-node"
    (p.Cost.pt_node_copy *. float_of_int t.nodes);
  let ptes = t.present + t.lazy_ in
  if ptes > 0 then
    Cost.charge ~n:ptes cost "fork:pte" (p.Cost.pte_copy *. float_of_int ptes);
  (* One ascending pass over the leaves: hold every present frame and
     apply the fork transform in place. A leaf still shared with an
     earlier clone holds only PTEs the transform maps to themselves
     (writable private pages were already downgraded by that clone, and
     shared-VMA pages already sit at their region permission), so the
     in-place write is invisible through the other table. *)
  let shared_tail = ref shared in
  let scratch = Array.make Addr.entries_per_table 0 in
  iter_leaves t ~f:(fun ~base entries ->
      (* drop shared ranges wholly below this leaf, then test whether any
         remaining one overlaps it *)
      let rec advance () =
        match !shared_tail with
        | (_, hi, _) :: rest when hi < base ->
          shared_tail := rest;
          advance ()
        | l -> l
      in
      let overlaps_leaf =
        match advance () with
        | (lo, _, _) :: _ -> lo <= base + Addr.entries_per_table - 1
        | [] -> false
      in
      if not overlaps_leaf then begin
        (* the common private-only leaf: one batch downgrade + hold *)
        let k =
          Pte.downgrade_run entries ~lo:0 ~hi:(Addr.entries_per_table - 1)
            ~dst:scratch
        in
        if k > 0 then hold_many scratch k
      end
      else
        for i = 0 to Addr.entries_per_table - 1 do
          let pte = entries.(i) in
          if Pte.present pte then begin
            let vpn = base lor i in
            let rec perm_for () =
              match !shared_tail with
              | (_, hi, _) :: rest when hi < vpn ->
                shared_tail := rest;
                perm_for ()
              | (lo, _, rperm) :: _ when lo <= vpn -> Some rperm
              | _ -> None
            in
            hold (Pte.frame pte);
            let updated = fork_transform pte ~shared_perm:(perm_for ()) in
            if updated <> pte then entries.(i) <- updated
          end
        done);
  bump t.root;
  { root = t.root; present = t.present; lazy_ = t.lazy_; nodes = t.nodes }

let clone_cow_shared t ~frames ~cost ~shared =
  share_pass t ~cost ~shared
    ~hold:(fun f -> Frame.incref frames f)
    ~hold_many:(fun fs k -> Frame.incref_many frames fs k)

(* Seal pass: identical shape (and identical cost charges) to
   {!clone_cow_shared}, but the frames move into the immortal refcount
   class instead of gaining a reference — a sealed template's pages are
   owned by the template object, not counted per-child. The returned
   table is the template's immutable handle; [t] stays usable by the
   source process, whose later writes COW away from the pinned frames. *)
let seal_cow t ~frames ~cost ~shared =
  share_pass t ~cost ~shared
    ~hold:(fun f -> Frame.pin frames f)
    ~hold_many:(fun fs k -> Frame.pin_many frames fs k)

(* Clone from a sealed table: every frame behind it is immortal and
   every PTE is already in post-fork form, so there is nothing to
   transform and no per-page refcount work — bump the root and charge
   one node copy per top-level subtree. This is the O(shared subtrees)
   spawn the zygote subsystem sells: cost is the root fan-out, not the
   footprint. *)
let clone_sealed t ~cost =
  let p = Cost.params cost in
  let subtrees =
    match t.root with
    | Leaf _ -> 1
    | Inner i ->
      Array.fold_left
        (fun n c -> match c with None -> n | Some _ -> n + 1)
        0 i.children
  in
  let n = max subtrees 1 in
  Cost.charge ~n cost "zygote:subtree" (p.Cost.pt_node_copy *. float_of_int n);
  bump t.root;
  ({ root = t.root; present = t.present; lazy_ = t.lazy_; nodes = t.nodes },
   subtrees)

let clear t ~frames =
  (* Same ascending decref order as a [fold_present] walk, but one
     gather + one [Frame.decref_many] per leaf instead of two
     cross-module calls per page. *)
  let scratch = Array.make Addr.entries_per_table 0 in
  let dropped = ref 0 in
  let rec drop = function
    | Leaf l ->
      let k =
        Pte.frames_of_run l.entries ~lo:0 ~hi:(Addr.entries_per_table - 1)
          ~dst:scratch
      in
      if k > 0 then begin
        Frame.decref_many frames scratch k;
        dropped := !dropped + k
      end
    | Inner i ->
      Array.iter (function None -> () | Some c -> drop c) i.children
  in
  drop t.root;
  let dropped = !dropped in
  (* Drop this table's reference on every exclusively-owned node; nodes
     still shared with a clone survive under the other table. *)
  let rec release = function
    | Leaf l -> l.refs <- l.refs - 1
    | Inner i ->
      i.refs <- i.refs - 1;
      if i.refs = 0 then
        Array.iter (function None -> () | Some c -> release c) i.children
  in
  release t.root;
  t.root <- new_inner ();
  t.present <- 0;
  t.lazy_ <- 0;
  t.nodes <- 1;
  dropped
