(* Unit, integration and property tests for the vmem substrate. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let ok = function
  | Ok v -> v
  | Error _ -> Alcotest.fail "expected Ok"

(* ------------------------------------------------------------------ *)
(* Addr *)

let test_addr_alignment () =
  check_bool "aligned 0" true (Vmem.Addr.is_page_aligned 0);
  check_bool "aligned 4096" true (Vmem.Addr.is_page_aligned 4096);
  check_bool "unaligned" false (Vmem.Addr.is_page_aligned 4097);
  check_int "down" 4096 (Vmem.Addr.align_down 8191);
  check_int "up" 8192 (Vmem.Addr.align_up 4097);
  check_int "up exact" 4096 (Vmem.Addr.align_up 4096)

let test_addr_pages () =
  check_int "page number" 2 (Vmem.Addr.page_number 8192);
  check_int "offset" 123 (Vmem.Addr.page_offset (8192 + 123));
  check_int "addr of page" 8192 (Vmem.Addr.addr_of_page 2);
  check_int "spanning 0" 0 (Vmem.Addr.pages_spanning 0 0);
  check_int "spanning 1" 1 (Vmem.Addr.pages_spanning 0 1);
  check_int "spanning exact" 1 (Vmem.Addr.pages_spanning 0 4096);
  check_int "spanning straddle" 2 (Vmem.Addr.pages_spanning 4095 2)

let test_addr_table_index () =
  let vpn = (3 lsl 27) lor (5 lsl 18) lor (7 lsl 9) lor 11 in
  check_int "l3" 3 (Vmem.Addr.table_index ~level:3 vpn);
  check_int "l2" 5 (Vmem.Addr.table_index ~level:2 vpn);
  check_int "l1" 7 (Vmem.Addr.table_index ~level:1 vpn);
  check_int "l0" 11 (Vmem.Addr.table_index ~level:0 vpn)

let prop_addr_align =
  QCheck.Test.make ~count:500 ~name:"addr: align_down/up bracket the address"
    QCheck.(int_bound (Vmem.Addr.max_va - Vmem.Addr.page_size))
    (fun a ->
      let d = Vmem.Addr.align_down a and u = Vmem.Addr.align_up a in
      d <= a && a <= u && u - d <= Vmem.Addr.page_size
      && Vmem.Addr.is_page_aligned d && Vmem.Addr.is_page_aligned u)

let prop_addr_index_recompose =
  QCheck.Test.make ~count:500 ~name:"addr: table indices recompose the vpn"
    QCheck.(int_bound ((Vmem.Addr.max_va lsr 12) - 1))
    (fun vpn ->
      let i l = Vmem.Addr.table_index ~level:l vpn in
      (i 3 lsl 27) lor (i 2 lsl 18) lor (i 1 lsl 9) lor i 0 = vpn)

(* ------------------------------------------------------------------ *)
(* Perm *)

let test_perm_allows () =
  check_bool "rw allows r" true (Vmem.Perm.allows Vmem.Perm.rw Vmem.Perm.r);
  check_bool "r allows rw" false (Vmem.Perm.allows Vmem.Perm.r Vmem.Perm.rw);
  check_bool "anything allows none" true
    (Vmem.Perm.allows Vmem.Perm.none Vmem.Perm.none);
  check_bool "rwx allows rx" true (Vmem.Perm.allows Vmem.Perm.rwx Vmem.Perm.rx)

let test_perm_ops () =
  check_bool "union" true
    (Vmem.Perm.equal Vmem.Perm.rwx
       (Vmem.Perm.union Vmem.Perm.rw Vmem.Perm.rx));
  check_bool "inter" true
    (Vmem.Perm.equal Vmem.Perm.r (Vmem.Perm.inter Vmem.Perm.rw Vmem.Perm.rx));
  check_str "to_string" "rw-" (Vmem.Perm.to_string Vmem.Perm.rw);
  check_str "none" "---" (Vmem.Perm.to_string Vmem.Perm.none)

(* ------------------------------------------------------------------ *)
(* Frame *)

let test_frame_alloc_free () =
  let fr = Vmem.Frame.create ~frames:4 () in
  let a = ok (Vmem.Frame.alloc fr) in
  let b = ok (Vmem.Frame.alloc fr) in
  check_bool "distinct" true (a <> b);
  check_int "used" 2 (Vmem.Frame.used fr);
  check_int "free" 2 (Vmem.Frame.free fr);
  check_bool "freed" true (Vmem.Frame.decref fr a);
  check_int "used after" 1 (Vmem.Frame.used fr);
  (* freed frame is reused *)
  let c = ok (Vmem.Frame.alloc fr) in
  check_int "reuse" a c

let test_frame_refcount () =
  let fr = Vmem.Frame.create ~frames:4 () in
  let f = ok (Vmem.Frame.alloc fr) in
  check_int "rc1" 1 (Vmem.Frame.refcount fr f);
  Vmem.Frame.incref fr f;
  check_int "rc2" 2 (Vmem.Frame.refcount fr f);
  check_bool "not freed" false (Vmem.Frame.decref fr f);
  check_bool "freed" true (Vmem.Frame.decref fr f);
  check_int "rc0" 0 (Vmem.Frame.refcount fr f)

let test_frame_oom () =
  let fr = Vmem.Frame.create ~frames:2 () in
  ignore (ok (Vmem.Frame.alloc fr));
  ignore (ok (Vmem.Frame.alloc fr));
  (match Vmem.Frame.alloc fr with
  | Error `Out_of_memory -> ()
  | Ok _ -> Alcotest.fail "expected OOM")

let test_frame_unallocated_ops () =
  let fr = Vmem.Frame.create ~frames:2 () in
  Alcotest.check_raises "incref" (Invalid_argument "Frame.incref: unallocated frame")
    (fun () -> Vmem.Frame.incref fr 0)

let test_frame_commit () =
  let fr = Vmem.Frame.create ~frames:10 () in
  ok (Vmem.Frame.commit fr 8);
  check_int "committed" 8 (Vmem.Frame.committed fr);
  (match Vmem.Frame.commit fr 3 with
  | Error `Commit_limit -> ()
  | Ok () -> Alcotest.fail "expected commit failure");
  Vmem.Frame.uncommit fr 4;
  ok (Vmem.Frame.commit fr 3);
  check_int "committed after" 7 (Vmem.Frame.committed fr)

let test_frame_overcommit () =
  let fr = Vmem.Frame.create ~policy:Vmem.Frame.Overcommit ~frames:10 () in
  ok (Vmem.Frame.commit fr 1000);
  check_int "committed" 1000 (Vmem.Frame.committed fr)

let test_frame_data () =
  let fr = Vmem.Frame.create ~frames:4 () in
  let f = ok (Vmem.Frame.alloc fr) in
  check_int "zero before write" 0 (Vmem.Frame.read_byte fr f ~off:100);
  Vmem.Frame.write_byte fr f ~off:100 42;
  check_int "read back" 42 (Vmem.Frame.read_byte fr f ~off:100);
  Vmem.Frame.blit_string fr f ~off:0 "hi";
  check_str "string" "hi" (Vmem.Frame.read_string fr f ~off:0 ~len:2);
  let g = ok (Vmem.Frame.alloc fr) in
  Vmem.Frame.copy_contents fr ~src:f ~dst:g;
  check_int "copied" 42 (Vmem.Frame.read_byte fr g ~off:100)

let test_frame_free_discards_data () =
  let fr = Vmem.Frame.create ~frames:1 () in
  let f = ok (Vmem.Frame.alloc fr) in
  Vmem.Frame.write_byte fr f ~off:0 7;
  ignore (Vmem.Frame.decref fr f);
  let f' = ok (Vmem.Frame.alloc fr) in
  check_int "same slot" f f';
  check_int "zeroed" 0 (Vmem.Frame.read_byte fr f' ~off:0)

let test_frame_pin () =
  let fr = Vmem.Frame.create ~frames:8 () in
  let f = ok (Vmem.Frame.alloc fr) in
  check_bool "not pinned" false (Vmem.Frame.is_pinned fr f);
  Vmem.Frame.pin fr f;
  check_bool "pinned" true (Vmem.Frame.is_pinned fr f);
  check_int "pinned count" 1 (Vmem.Frame.pinned fr);
  check_int "refcount saturates" max_int (Vmem.Frame.refcount fr f);
  (* refcounting is a no-op on a pinned frame: it can never be freed *)
  Vmem.Frame.incref fr f;
  check_bool "decref no-op" false (Vmem.Frame.decref fr f);
  check_bool "still pinned" true (Vmem.Frame.is_pinned fr f);
  check_int "still used" 1 (Vmem.Frame.used fr);
  (* pin is idempotent *)
  Vmem.Frame.pin fr f;
  check_int "still one pinned" 1 (Vmem.Frame.pinned fr);
  (* unpin restores a plain sole-owner reference *)
  Vmem.Frame.unpin fr f;
  check_int "rc back to 1" 1 (Vmem.Frame.refcount fr f);
  check_int "none pinned" 0 (Vmem.Frame.pinned fr);
  check_bool "freed" true (Vmem.Frame.decref fr f);
  check_int "all returned" 0 (Vmem.Frame.used fr)

let test_frame_pin_spilled () =
  (* pinning a frame whose count lives in the spill table drops the
     spill entry; unpin yields rc 1, not the old spilled count *)
  let fr = Vmem.Frame.create ~frames:4 () in
  let f = ok (Vmem.Frame.alloc fr) in
  for _ = 1 to 300 do
    Vmem.Frame.incref fr f
  done;
  check_int "spilled rc" 301 (Vmem.Frame.refcount fr f);
  Vmem.Frame.pin fr f;
  check_int "saturated" max_int (Vmem.Frame.refcount fr f);
  Vmem.Frame.unpin fr f;
  check_int "unpin forgets spilled count" 1 (Vmem.Frame.refcount fr f);
  check_bool "freed" true (Vmem.Frame.decref fr f)

let test_frame_pin_many () =
  let fr = Vmem.Frame.create ~frames:8 () in
  let fs = Array.init 4 (fun _ -> ok (Vmem.Frame.alloc fr)) in
  Vmem.Frame.pin_many fr fs 3;
  check_int "three pinned" 3 (Vmem.Frame.pinned fr);
  check_bool "fourth untouched" false (Vmem.Frame.is_pinned fr fs.(3));
  Alcotest.check_raises "unpin unpinned"
    (Invalid_argument "Frame.unpin: frame not pinned") (fun () ->
      Vmem.Frame.unpin fr fs.(3))

(* ------------------------------------------------------------------ *)
(* Pte *)

let test_pte_roundtrip () =
  let pte = Vmem.Pte.make ~frame:1234 ~perm:Vmem.Perm.rw ~cow:true () in
  check_bool "present" true (Vmem.Pte.present pte);
  check_int "frame" 1234 (Vmem.Pte.frame pte);
  check_bool "perm" true (Vmem.Perm.equal Vmem.Perm.rw (Vmem.Pte.perm pte));
  check_bool "cow" true (Vmem.Pte.cow pte);
  check_bool "not dirty" false (Vmem.Pte.dirty pte);
  let pte = Vmem.Pte.mark_dirty (Vmem.Pte.mark_accessed pte) in
  check_bool "dirty" true (Vmem.Pte.dirty pte);
  check_bool "accessed" true (Vmem.Pte.accessed pte)

let test_pte_updates () =
  let pte = Vmem.Pte.make ~frame:5 ~perm:Vmem.Perm.rw () in
  let pte' = Vmem.Pte.with_perm pte Vmem.Perm.r in
  check_bool "downgraded" true
    (Vmem.Perm.equal Vmem.Perm.r (Vmem.Pte.perm pte'));
  check_int "frame preserved" 5 (Vmem.Pte.frame pte');
  let pte'' = Vmem.Pte.with_frame pte' 9 in
  check_int "frame swapped" 9 (Vmem.Pte.frame pte'');
  check_bool "perm preserved" true
    (Vmem.Perm.equal Vmem.Perm.r (Vmem.Pte.perm pte''))

let prop_pte_roundtrip =
  QCheck.Test.make ~count:500 ~name:"pte: make/accessors roundtrip"
    QCheck.(triple (int_bound 1_000_000) bool (pair bool bool))
    (fun (frame, cow, (w, x)) ->
      let perm = { Vmem.Perm.read = true; write = w; exec = x } in
      let pte = Vmem.Pte.make ~frame ~perm ~cow () in
      Vmem.Pte.frame pte = frame
      && Vmem.Perm.equal (Vmem.Pte.perm pte) perm
      && Vmem.Pte.cow pte = cow)

(* ------------------------------------------------------------------ *)
(* Page_table *)

let test_pt_map_lookup () =
  let pt = Vmem.Page_table.create () in
  let pte = Vmem.Pte.make ~frame:7 ~perm:Vmem.Perm.rw () in
  Vmem.Page_table.map pt ~vpn:42 pte;
  check_bool "found" true (Vmem.Page_table.lookup pt ~vpn:42 = pte);
  check_bool "absent" false
    (Vmem.Pte.present (Vmem.Page_table.lookup pt ~vpn:43));
  check_int "present" 1 (Vmem.Page_table.present_count pt)

let test_pt_unmap () =
  let pt = Vmem.Page_table.create () in
  Vmem.Page_table.map pt ~vpn:1 (Vmem.Pte.make ~frame:1 ~perm:Vmem.Perm.r ());
  let old = Vmem.Page_table.unmap pt ~vpn:1 in
  check_bool "returned" true (Vmem.Pte.present old);
  check_int "empty" 0 (Vmem.Page_table.present_count pt);
  check_bool "double unmap absent" false
    (Vmem.Pte.present (Vmem.Page_table.unmap pt ~vpn:1))

let test_pt_node_growth () =
  let pt = Vmem.Page_table.create () in
  check_int "root only" 1 (Vmem.Page_table.node_count pt);
  Vmem.Page_table.map pt ~vpn:0 (Vmem.Pte.make ~frame:0 ~perm:Vmem.Perm.r ());
  (* root + 2 inner + 1 leaf *)
  check_int "one path" 4 (Vmem.Page_table.node_count pt);
  (* same leaf: no growth *)
  Vmem.Page_table.map pt ~vpn:1 (Vmem.Pte.make ~frame:1 ~perm:Vmem.Perm.r ());
  check_int "same leaf" 4 (Vmem.Page_table.node_count pt);
  (* far page: fresh path below root *)
  Vmem.Page_table.map pt ~vpn:(1 lsl 27)
    (Vmem.Pte.make ~frame:2 ~perm:Vmem.Perm.r ());
  check_int "new subtree" 7 (Vmem.Page_table.node_count pt)

let test_pt_fold_order () =
  let pt = Vmem.Page_table.create () in
  let vpns = [ 999; 3; 512; 100_000 ] in
  List.iter
    (fun v ->
      Vmem.Page_table.map pt ~vpn:v (Vmem.Pte.make ~frame:v ~perm:Vmem.Perm.r ()))
    vpns;
  let seen =
    Vmem.Page_table.fold_present pt ~init:[] ~f:(fun acc ~vpn pte ->
        check_int "frame matches vpn" vpn (Vmem.Pte.frame pte);
        vpn :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 3; 512; 999; 100_000 ] (List.rev seen)

let test_pt_update () =
  let pt = Vmem.Page_table.create () in
  check_bool "absent" false (Vmem.Page_table.update pt ~vpn:5 Vmem.Pte.mark_dirty);
  Vmem.Page_table.map pt ~vpn:5 (Vmem.Pte.make ~frame:5 ~perm:Vmem.Perm.rw ());
  check_bool "updated" true (Vmem.Page_table.update pt ~vpn:5 Vmem.Pte.mark_dirty);
  check_bool "dirty" true (Vmem.Pte.dirty (Vmem.Page_table.lookup pt ~vpn:5))

let test_pt_clone_cow () =
  let fr = Vmem.Frame.create ~frames:16 () in
  let cost = Vmem.Cost.create () in
  let pt = Vmem.Page_table.create () in
  let fa = ok (Vmem.Frame.alloc fr) in
  let fb = ok (Vmem.Frame.alloc fr) in
  Vmem.Page_table.map pt ~vpn:1 (Vmem.Pte.make ~frame:fa ~perm:Vmem.Perm.rw ());
  Vmem.Page_table.map pt ~vpn:2 (Vmem.Pte.make ~frame:fb ~perm:Vmem.Perm.r ());
  let child = Vmem.Page_table.clone_cow pt ~frames:fr ~cost in
  check_int "present copied" 2 (Vmem.Page_table.present_count child);
  check_int "refcount a" 2 (Vmem.Frame.refcount fr fa);
  check_int "refcount b" 2 (Vmem.Frame.refcount fr fb);
  (* writable page downgraded in both *)
  let p1 = Vmem.Page_table.lookup pt ~vpn:1 in
  let c1 = Vmem.Page_table.lookup child ~vpn:1 in
  check_bool "parent cow" true (Vmem.Pte.cow p1);
  check_bool "child cow" true (Vmem.Pte.cow c1);
  check_bool "parent read-only" false (Vmem.Pte.perm p1).Vmem.Perm.write;
  (* read-only page untouched *)
  check_bool "ro not cow" false (Vmem.Pte.cow (Vmem.Page_table.lookup pt ~vpn:2));
  check_bool "charged" true (Vmem.Cost.total cost > 0.0)

let test_pt_clear () =
  let fr = Vmem.Frame.create ~frames:16 () in
  let pt = Vmem.Page_table.create () in
  for i = 0 to 4 do
    let f = ok (Vmem.Frame.alloc fr) in
    Vmem.Page_table.map pt ~vpn:i (Vmem.Pte.make ~frame:f ~perm:Vmem.Perm.rw ())
  done;
  check_int "dropped" 5 (Vmem.Page_table.clear pt ~frames:fr);
  check_int "all freed" 0 (Vmem.Frame.used fr);
  check_int "empty" 0 (Vmem.Page_table.present_count pt)

let prop_pt_map_unmap =
  QCheck.Test.make ~count:100 ~name:"page table: present_count tracks ops"
    QCheck.(list (int_bound 100_000))
    (fun vpns ->
      let pt = Vmem.Page_table.create () in
      let module IS = Set.Make (Int) in
      let live =
        List.fold_left
          (fun live vpn ->
            Vmem.Page_table.map pt ~vpn
              (Vmem.Pte.make ~frame:vpn ~perm:Vmem.Perm.r ());
            IS.add vpn live)
          IS.empty vpns
      in
      Vmem.Page_table.present_count pt = IS.cardinal live
      && IS.for_all
           (fun vpn -> Vmem.Pte.frame (Vmem.Page_table.lookup pt ~vpn) = vpn)
           live)

(* ------------------------------------------------------------------ *)
(* Region_map *)

let test_rm_add_overlap () =
  let m = ok (Vmem.Region_map.add ~start:100 ~stop:200 "a" Vmem.Region_map.empty) in
  (match Vmem.Region_map.add ~start:150 ~stop:160 "b" m with
  | Error `Overlap -> ()
  | Ok _ -> Alcotest.fail "expected overlap");
  (match Vmem.Region_map.add ~start:50 ~stop:101 "b" m with
  | Error `Overlap -> ()
  | Ok _ -> Alcotest.fail "expected overlap (left straddle)");
  let m = ok (Vmem.Region_map.add ~start:200 ~stop:300 "b" m) in
  check_int "two regions" 2 (Vmem.Region_map.cardinal m)

let test_rm_find () =
  let m = ok (Vmem.Region_map.add ~start:100 ~stop:200 "a" Vmem.Region_map.empty) in
  (match Vmem.Region_map.find_containing 150 m with
  | Some (100, 200, "a") -> ()
  | _ -> Alcotest.fail "find 150");
  check_bool "199 in" true (Vmem.Region_map.mem 199 m);
  check_bool "200 out (exclusive)" false (Vmem.Region_map.mem 200 m);
  check_bool "99 out" false (Vmem.Region_map.mem 99 m)

let no_crop ~old_start:_ ~start:_ ~stop:_ v = v

let test_rm_carve_middle () =
  let m = ok (Vmem.Region_map.add ~start:0 ~stop:100 "a" Vmem.Region_map.empty) in
  let m, removed = Vmem.Region_map.carve ~start:40 ~stop:60 ~crop:no_crop m in
  Alcotest.(check (list (triple int int string)))
    "removed middle" [ (40, 60, "a") ] removed;
  Alcotest.(check (list (triple int int string)))
    "kept sides" [ (0, 40, "a"); (60, 100, "a") ]
    (Vmem.Region_map.to_list m)

let test_rm_carve_span () =
  let m = ok (Vmem.Region_map.add ~start:0 ~stop:10 "a" Vmem.Region_map.empty) in
  let m = ok (Vmem.Region_map.add ~start:20 ~stop:30 "b" m) in
  let m, removed = Vmem.Region_map.carve ~start:5 ~stop:25 ~crop:no_crop m in
  Alcotest.(check (list (triple int int string)))
    "removed" [ (5, 10, "a"); (20, 25, "b") ] removed;
  Alcotest.(check (list (triple int int string)))
    "kept" [ (0, 5, "a"); (25, 30, "b") ]
    (Vmem.Region_map.to_list m)

let test_rm_carve_crop_callback () =
  (* payload records its offset from the original start, like a file VMA *)
  let m = ok (Vmem.Region_map.add ~start:100 ~stop:200 0 Vmem.Region_map.empty) in
  let crop ~old_start ~start ~stop:_ off = off + (start - old_start) in
  let m, removed = Vmem.Region_map.carve ~start:150 ~stop:160 ~crop m in
  Alcotest.(check (list (triple int int int))) "mid offset" [ (150, 160, 50) ] removed;
  (match Vmem.Region_map.to_list m with
  | [ (100, 150, 0); (160, 200, 60) ] -> ()
  | _ -> Alcotest.fail "kept fragments wrong")

let test_rm_find_gap () =
  let m = ok (Vmem.Region_map.add ~start:100 ~stop:200 "a" Vmem.Region_map.empty) in
  let m = ok (Vmem.Region_map.add ~start:250 ~stop:300 "b" m) in
  Alcotest.(check (option int)) "before" (Some 0)
    (Vmem.Region_map.find_gap ~min:0 ~max:1000 ~len:50 m);
  Alcotest.(check (option int)) "between" (Some 200)
    (Vmem.Region_map.find_gap ~min:150 ~max:1000 ~len:50 m);
  Alcotest.(check (option int)) "after" (Some 300)
    (Vmem.Region_map.find_gap ~min:150 ~max:1000 ~len:80 m);
  Alcotest.(check (option int)) "fits exactly before" (Some 0)
    (Vmem.Region_map.find_gap ~min:0 ~max:320 ~len:100 m);
  Alcotest.(check (option int)) "too big" None
    (Vmem.Region_map.find_gap ~min:0 ~max:320 ~len:150 m)

let prop_rm_invariant =
  (* apply random add/carve ops; intervals must stay disjoint and sorted *)
  let op =
    QCheck.Gen.(
      oneof
        [
          map2 (fun s l -> `Add (s * 10, l)) (int_bound 100) (1 -- 5);
          map2 (fun s l -> `Carve (s * 10, l)) (int_bound 100) (1 -- 5);
        ])
  in
  QCheck.Test.make ~count:200 ~name:"region map: disjoint sorted invariant"
    (QCheck.make QCheck.Gen.(list_size (1 -- 40) op))
    (fun ops ->
      let m =
        List.fold_left
          (fun m op ->
            match op with
            | `Add (s, l) -> (
              match Vmem.Region_map.add ~start:s ~stop:(s + (l * 10)) () m with
              | Ok m -> m
              | Error `Overlap -> m)
            | `Carve (s, l) ->
              fst (Vmem.Region_map.carve ~start:s ~stop:(s + (l * 10)) ~crop:no_crop m))
          Vmem.Region_map.empty ops
      in
      let l = Vmem.Region_map.to_list m in
      let rec disjoint = function
        | (_, e1, ()) :: ((s2, _, ()) :: _ as rest) -> e1 <= s2 && disjoint rest
        | [ _ ] | [] -> true
      in
      disjoint l
      && Vmem.Region_map.total_length m
         = List.fold_left (fun acc (s, e, ()) -> acc + e - s) 0 l)

(* ------------------------------------------------------------------ *)
(* Tlb *)

let test_tlb_accounting () =
  let cost = Vmem.Cost.create () in
  let tlb = Vmem.Tlb.create ~cpus:4 cost in
  Vmem.Tlb.flush_local tlb;
  Vmem.Tlb.shootdown tlb;
  Vmem.Tlb.invalidate_page tlb;
  let s = Vmem.Tlb.stats tlb in
  check_int "flushes" 2 s.Vmem.Tlb.local_flushes;
  (* shootdown counts its own local flush *)
  check_int "shootdowns" 1 s.Vmem.Tlb.shootdowns;
  check_int "invl" 1 s.Vmem.Tlb.invalidations;
  let p = Vmem.Cost.params cost in
  Alcotest.(check (float 0.01))
    "shootdown cycles"
    (p.Vmem.Cost.tlb_shootdown *. 3.0)
    (Vmem.Cost.get cost "tlb:shootdown")

(* ------------------------------------------------------------------ *)
(* Addr_space *)

let make_as ?(frames = 4096) ?policy ?batched () =
  let fr = Vmem.Frame.create ?policy ~frames () in
  let cost = Vmem.Cost.create () in
  let tlb = Vmem.Tlb.create cost in
  (fr, Vmem.Addr_space.create ?batched ~frames:fr ~cost ~tlb ())

let page = Vmem.Addr.page_size

let test_as_mmap_gap () =
  let _, a = make_as () in
  let x = ok (Vmem.Addr_space.mmap ~len:(2 * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  check_int "at base" (Vmem.Addr_space.mmap_base a) x;
  let y = ok (Vmem.Addr_space.mmap ~len:page ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  check_int "next gap" (x + (2 * page)) y;
  check_int "vmas" 2 (Vmem.Addr_space.vma_count a)

let test_as_mmap_hint () =
  let _, a = make_as () in
  let hint = 0x1000_0000 in
  let x = ok (Vmem.Addr_space.mmap ~addr:hint ~len:page ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  check_int "placed at hint" hint x;
  (match Vmem.Addr_space.mmap ~addr:hint ~len:page ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a with
  | Error `Overlap -> ()
  | _ -> Alcotest.fail "expected overlap");
  match Vmem.Addr_space.mmap ~addr:(hint + 1) ~len:page ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a with
  | Error `Invalid -> ()
  | _ -> Alcotest.fail "expected invalid (unaligned)"

let test_as_demand_zero () =
  let fr, a = make_as () in
  let x = ok (Vmem.Addr_space.mmap ~len:page ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  check_int "nothing resident" 0 (Vmem.Addr_space.resident_pages a);
  check_int "reads zero" 0 (ok (Vmem.Addr_space.read_byte a x));
  check_int "one page resident" 1 (Vmem.Addr_space.resident_pages a);
  ok (Vmem.Addr_space.write_byte a (x + 5) 99);
  check_int "reads back" 99 (ok (Vmem.Addr_space.read_byte a (x + 5)));
  check_int "still one page" 1 (Vmem.Addr_space.resident_pages a);
  check_int "one frame used" 1 (Vmem.Frame.used fr)

let test_as_segfault_and_perms () =
  let _, a = make_as () in
  (match Vmem.Addr_space.read_byte a 0x500 with
  | Error `Segfault -> ()
  | _ -> Alcotest.fail "expected segfault");
  let x = ok (Vmem.Addr_space.mmap ~len:page ~perm:Vmem.Perm.r ~kind:Vmem.Vma.Anon a) in
  (match Vmem.Addr_space.write_byte a x 1 with
  | Error `Perm_denied -> ()
  | _ -> Alcotest.fail "expected perm denied");
  check_int "read ok" 0 (ok (Vmem.Addr_space.read_byte a x))

let test_as_munmap_partial () =
  let fr, a = make_as () in
  let x = ok (Vmem.Addr_space.mmap ~len:(4 * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  check_int "touched" 4 (ok (Vmem.Addr_space.touch_range a ~addr:x ~len:(4 * page)));
  check_int "committed" 4 (Vmem.Addr_space.committed_pages a);
  ok (Vmem.Addr_space.munmap a ~addr:(x + page) ~len:page);
  check_int "resident drops" 3 (Vmem.Addr_space.resident_pages a);
  check_int "commit drops" 3 (Vmem.Addr_space.committed_pages a);
  check_int "split vmas" 2 (Vmem.Addr_space.vma_count a);
  check_int "frames freed" 3 (Vmem.Frame.used fr);
  (* hole faults *)
  match Vmem.Addr_space.read_byte a (x + page) with
  | Error `Segfault -> ()
  | _ -> Alcotest.fail "expected segfault in hole"

let test_as_munmap_hole_ok () =
  let _, a = make_as () in
  (* munmap over nothing is fine, POSIX-style *)
  ok (Vmem.Addr_space.munmap a ~addr:0x4000_0000 ~len:(16 * page))

let test_as_protect () =
  let _, a = make_as () in
  let x = ok (Vmem.Addr_space.mmap ~len:(2 * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  ok (Vmem.Addr_space.write_byte a x 1);
  ok (Vmem.Addr_space.protect a ~addr:x ~len:page ~perm:Vmem.Perm.r);
  (match Vmem.Addr_space.write_byte a x 2 with
  | Error `Perm_denied -> ()
  | _ -> Alcotest.fail "write after mprotect");
  (* second page unaffected *)
  ok (Vmem.Addr_space.write_byte a (x + page) 3);
  (* protect over a hole fails *)
  match Vmem.Addr_space.protect a ~addr:0x5000_0000 ~len:page ~perm:Vmem.Perm.r with
  | Error `No_region -> ()
  | _ -> Alcotest.fail "expected no region"

let test_as_protect_restore () =
  let _, a = make_as () in
  let x = ok (Vmem.Addr_space.mmap ~len:page ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  ok (Vmem.Addr_space.write_byte a x 7);
  ok (Vmem.Addr_space.protect a ~addr:x ~len:page ~perm:Vmem.Perm.r);
  ok (Vmem.Addr_space.protect a ~addr:x ~len:page ~perm:Vmem.Perm.rw);
  ok (Vmem.Addr_space.write_byte a x 8);
  check_int "value" 8 (ok (Vmem.Addr_space.read_byte a x))

let test_as_brk () =
  let _, a = make_as () in
  let base = 0x2000_0000 in
  Vmem.Addr_space.set_heap_base a base;
  check_int "initial brk" base (Vmem.Addr_space.brk a);
  ok (Vmem.Addr_space.set_brk a (base + (4 * page)));
  check_int "grown" (base + (4 * page)) (Vmem.Addr_space.brk a);
  ok (Vmem.Addr_space.write_byte a (base + (2 * page)) 9);
  ok (Vmem.Addr_space.set_brk a (base + page));
  check_int "shrunk" (base + page) (Vmem.Addr_space.brk a);
  (match Vmem.Addr_space.read_byte a (base + (2 * page)) with
  | Error `Segfault -> ()
  | _ -> Alcotest.fail "freed heap page still mapped");
  match Vmem.Addr_space.set_brk a (base - page) with
  | Error `Invalid -> ()
  | _ -> Alcotest.fail "brk below base"

let fork_pair () =
  let fr, a = make_as () in
  let x = ok (Vmem.Addr_space.mmap ~len:(2 * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  ok (Vmem.Addr_space.write_byte a x 11);
  let child = ok (Vmem.Addr_space.clone_cow a) in
  (fr, a, child, x)

let test_as_cow_semantics () =
  let fr, parent, child, x = fork_pair () in
  (* child sees parent's data *)
  check_int "inherited" 11 (ok (Vmem.Addr_space.read_byte child x));
  (* same frame, refcount 2 *)
  check_int "one frame" 1 (Vmem.Frame.used fr);
  (* child write breaks COW *)
  ok (Vmem.Addr_space.write_byte child x 22);
  check_int "child sees own" 22 (ok (Vmem.Addr_space.read_byte child x));
  check_int "parent unchanged" 11 (ok (Vmem.Addr_space.read_byte parent x));
  check_int "two frames now" 2 (Vmem.Frame.used fr);
  (* parent write: sole owner fast path, no new frame *)
  ok (Vmem.Addr_space.write_byte parent x 33);
  check_int "still two frames" 2 (Vmem.Frame.used fr);
  check_int "parent value" 33 (ok (Vmem.Addr_space.read_byte parent x))

let test_as_cow_layout_inherited () =
  let _, parent, child, _ = fork_pair () in
  check_int "mmap_base inherited" (Vmem.Addr_space.mmap_base parent)
    (Vmem.Addr_space.mmap_base child);
  check_int "same vma count" (Vmem.Addr_space.vma_count parent)
    (Vmem.Addr_space.vma_count child)

let test_as_fork_cost_scales () =
  let fr = Vmem.Frame.create ~frames:(1 lsl 20) () in
  let cost = Vmem.Cost.create () in
  let tlb = Vmem.Tlb.create cost in
  let fork_cycles npages =
    let a = Vmem.Addr_space.create ~frames:fr ~cost ~tlb () in
    let x = ok (Vmem.Addr_space.mmap ~len:(npages * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
    ignore (ok (Vmem.Addr_space.touch_range a ~addr:x ~len:(npages * page)));
    let child, cycles = Vmem.Cost.delta cost (fun () -> ok (Vmem.Addr_space.clone_cow a)) in
    Vmem.Addr_space.destroy child;
    Vmem.Addr_space.destroy a;
    cycles
  in
  let small = fork_cycles 16 in
  let big = fork_cycles 16384 in
  check_bool "fork cost grows with resident set" true (big > small *. 10.0)

let test_as_destroy_releases () =
  let fr, parent, child, x = fork_pair () in
  ok (Vmem.Addr_space.write_byte child x 1);
  Vmem.Addr_space.destroy child;
  check_int "child frames gone" 1 (Vmem.Frame.used fr);
  check_int "parent still reads" 11 (ok (Vmem.Addr_space.read_byte parent x));
  Vmem.Addr_space.destroy parent;
  check_int "all freed" 0 (Vmem.Frame.used fr);
  check_int "commit zero" 0 (Vmem.Frame.committed fr);
  Vmem.Addr_space.destroy parent (* idempotent *)

let test_as_seal_clone () =
  let fr, a = make_as () in
  let x =
    ok (Vmem.Addr_space.mmap ~len:(2 * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a)
  in
  ok (Vmem.Addr_space.write_byte a x 11);
  check_bool "sole owner before seal" true (Vmem.Addr_space.sole_owner a);
  let tpl = Vmem.Addr_space.seal a in
  check_int "resident frame pinned" 1 (Vmem.Frame.pinned fr);
  (* the template now holds every frame: the source is no longer the
     sole owner (so it cannot be sealed twice) *)
  check_bool "not sole owner after seal" false (Vmem.Addr_space.sole_owner a);
  (* the sealed image is immutable: a source write COWs away from it *)
  ok (Vmem.Addr_space.write_byte a x 22);
  check_int "source copied away" 2 (Vmem.Frame.used fr);
  let child, subtrees = ok (Vmem.Addr_space.clone_from_sealed tpl ~commit_pages:1) in
  check_bool "shares at least one subtree" true (subtrees >= 1);
  check_int "child sees the frozen byte" 11 (ok (Vmem.Addr_space.read_byte child x));
  ok (Vmem.Addr_space.write_byte child x 33);
  check_int "child copied, template intact" 3 (Vmem.Frame.used fr);
  check_int "template byte unchanged" 22 (ok (Vmem.Addr_space.read_byte a x));
  Vmem.Addr_space.destroy child;
  Vmem.Addr_space.destroy a;
  check_int "only the pinned page left" 1 (Vmem.Frame.used fr);
  Vmem.Addr_space.destroy_sealed tpl;
  check_int "unpinned and freed" 0 (Vmem.Frame.used fr);
  check_int "no pins left" 0 (Vmem.Frame.pinned fr);
  check_int "no commit leak" 0 (Vmem.Frame.committed fr)

let test_as_seal_clone_commit_limit () =
  let fr, a = make_as ~frames:8 () in
  let x = ok (Vmem.Addr_space.mmap ~len:page ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  ok (Vmem.Addr_space.write_byte a x 5);
  let tpl = Vmem.Addr_space.seal a in
  let used = Vmem.Frame.used fr and committed = Vmem.Frame.committed fr in
  (* the commit charge is the only fallible step of a zygote clone: a
     refusal leaves the template and the frame pool untouched *)
  (match Vmem.Addr_space.clone_from_sealed tpl ~commit_pages:100 with
  | Error `Commit_limit -> ()
  | Ok _ -> Alcotest.fail "expected commit refusal");
  check_int "used unmoved" used (Vmem.Frame.used fr);
  check_int "commit unmoved" committed (Vmem.Frame.committed fr);
  check_int "still pinned" 1 (Vmem.Frame.pinned fr);
  (* and the template is still cloneable *)
  let child, _ = ok (Vmem.Addr_space.clone_from_sealed tpl ~commit_pages:1) in
  check_int "clone reads frozen byte" 5 (ok (Vmem.Addr_space.read_byte child x));
  Vmem.Addr_space.destroy child;
  Vmem.Addr_space.destroy a;
  Vmem.Addr_space.destroy_sealed tpl;
  check_int "all freed" 0 (Vmem.Frame.used fr);
  check_int "commit zero" 0 (Vmem.Frame.committed fr)

let test_as_fork_commit_limit () =
  (* strict accounting: a parent using >half of memory cannot fork *)
  let fr, a = make_as ~frames:100 () in
  let x = ok (Vmem.Addr_space.mmap ~len:(60 * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  ignore x;
  (match Vmem.Addr_space.clone_cow a with
  | Error `Commit_limit -> ()
  | Error `Out_of_memory -> Alcotest.fail "unexpected OOM"
  | Ok _ -> Alcotest.fail "fork should exceed commit");
  (* overcommit policy lets it through *)
  Vmem.Frame.set_policy fr Vmem.Frame.Overcommit;
  let child = ok (Vmem.Addr_space.clone_cow a) in
  Vmem.Addr_space.destroy child

(* An eager clone of a space spanning two leaves of one private VMA
   (with a munmap hole and materialised bytes in the second leaf) plus a
   shared VMA: private pages are copied at once, shared pages stay one
   frame, the hole stays a hole — batched or per-page alike. *)
let test_as_clone_eager () =
  List.iter
    (fun batched ->
      let fr, a = make_as ~batched () in
      let leaf = Vmem.Addr.entries_per_table in
      let x =
        ok (Vmem.Addr_space.mmap ~len:(2 * leaf * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a)
      in
      let y =
        ok
          (Vmem.Addr_space.mmap ~shared:true ~len:(4 * page) ~perm:Vmem.Perm.rw
             ~kind:Vmem.Vma.Anon a)
      in
      ignore (ok (Vmem.Addr_space.touch_range a ~addr:x ~len:(2 * leaf * page)));
      ignore (ok (Vmem.Addr_space.touch_range a ~addr:y ~len:(4 * page)));
      ok (Vmem.Addr_space.write_byte a x 5);
      let second = x + ((leaf + 188) * page) in
      ok (Vmem.Addr_space.write_byte a second 9);
      let hole = x + (300 * page) in
      ok (Vmem.Addr_space.munmap a ~addr:hole ~len:(10 * page));
      let private_pages = (2 * leaf) - 10 in
      check_int "parent resident" (private_pages + 4) (Vmem.Frame.used fr);
      let child = ok (Vmem.Addr_space.clone_eager a) in
      (* private pages copied at once, shared pages not *)
      check_int "frames" ((2 * private_pages) + 4) (Vmem.Frame.used fr);
      check_int "child resident" (private_pages + 4) (Vmem.Addr_space.resident_pages child);
      check_int "child table nodes" (Vmem.Addr_space.pt_nodes a) (Vmem.Addr_space.pt_nodes child);
      check_int "child copy, first leaf" 5 (ok (Vmem.Addr_space.read_byte child x));
      check_int "child copy, second leaf" 9 (ok (Vmem.Addr_space.read_byte child second));
      (match Vmem.Addr_space.read_byte child hole with
      | Error `Segfault -> ()
      | _ -> Alcotest.fail "the hole must stay unmapped in the child");
      (* no COW: a parent write doesn't reach the child and allocates nothing *)
      ok (Vmem.Addr_space.write_byte a x 6);
      ok (Vmem.Addr_space.write_byte a second 7);
      check_int "no frame on write" ((2 * private_pages) + 4) (Vmem.Frame.used fr);
      check_int "child isolated" 5 (ok (Vmem.Addr_space.read_byte child x));
      check_int "child isolated, second leaf" 9 (ok (Vmem.Addr_space.read_byte child second));
      (* the shared VMA: a child write is the parent's too *)
      ok (Vmem.Addr_space.write_byte child (y + page) 42);
      check_int "parent sees shared write" 42 (ok (Vmem.Addr_space.read_byte a (y + page)));
      Vmem.Addr_space.destroy child;
      Vmem.Addr_space.destroy a;
      check_int "all freed" 0 (Vmem.Frame.used fr))
    [ true; false ]

let test_as_shared_mapping_fork () =
  let _, a = make_as () in
  let x =
    ok (Vmem.Addr_space.mmap ~shared:true ~len:page ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a)
  in
  ok (Vmem.Addr_space.write_byte a x 1);
  let child = ok (Vmem.Addr_space.clone_cow a) in
  (* shared mapping: child writes are visible to the parent *)
  ok (Vmem.Addr_space.write_byte child x 77);
  check_int "parent sees shared write" 77 (ok (Vmem.Addr_space.read_byte a x))

let test_as_map_image_page () =
  let _, a = make_as () in
  ok
    (Vmem.Addr_space.map_image_page a ~addr:0x40_0000 ~perm:Vmem.Perm.rx
       ~data:"\x7fELF" ~kind:(Vmem.Vma.Text { path = "/bin/x" }) ());
  check_int "populated" 1 (Vmem.Addr_space.resident_pages a);
  check_int "byte 1" 0x45 (ok (Vmem.Addr_space.read_byte a 0x40_0001))

let test_as_oom_fault () =
  let _, a = make_as ~frames:2 ~policy:Vmem.Frame.Overcommit () in
  let x = ok (Vmem.Addr_space.mmap ~len:(8 * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  ok (Vmem.Addr_space.touch a x);
  ok (Vmem.Addr_space.touch a (x + page));
  match Vmem.Addr_space.touch a (x + (2 * page)) with
  | Error `Out_of_memory -> ()
  | _ -> Alcotest.fail "expected OOM"

let prop_as_fork_refcounts =
  QCheck.Test.make ~count:50
    ~name:"addr space: destroy everything frees every frame"
    QCheck.(pair (1 -- 8) (list_of_size Gen.(0 -- 20) (int_bound 7)))
    (fun (npages, writes) ->
      let fr = Vmem.Frame.create ~frames:1024 () in
      let cost = Vmem.Cost.create () in
      let tlb = Vmem.Tlb.create cost in
      let a = Vmem.Addr_space.create ~frames:fr ~cost ~tlb () in
      let x =
        match Vmem.Addr_space.mmap ~len:(npages * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a with
        | Ok x -> x
        | Error _ -> QCheck.assume_fail ()
      in
      List.iter
        (fun p ->
          if p < npages then
            match Vmem.Addr_space.write_byte a (x + (p * page)) 1 with
            | Ok () | Error _ -> ())
        writes;
      let child =
        match Vmem.Addr_space.clone_cow a with
        | Ok c -> c
        | Error _ -> QCheck.assume_fail ()
      in
      List.iter
        (fun p ->
          if p < npages then
            match Vmem.Addr_space.write_byte child (x + (p * page)) 2 with
            | Ok () | Error _ -> ())
        writes;
      Vmem.Addr_space.destroy child;
      Vmem.Addr_space.destroy a;
      Vmem.Frame.used fr = 0 && Vmem.Frame.committed fr = 0)

(* ------------------------------------------------------------------ *)
(* COW model check: a family of forked address spaces must behave like
   independent byte maps, no matter how writes and forks interleave *)

type world_op =
  | W_write of int * int * int  (* space index, page*16+off within 8 pages, byte *)
  | W_fork of int
  | W_destroy of int

let gen_world_op =
  QCheck.Gen.(
    frequency
      [
        (6, map3 (fun s loc v -> W_write (s, loc, v)) (int_bound 7) (int_bound 127) (int_bound 255));
        (2, map (fun s -> W_fork s) (int_bound 7));
        (1, map (fun s -> W_destroy s) (int_bound 7));
      ])

let prop_cow_model =
  QCheck.Test.make ~count:60 ~name:"addr space: fork family matches byte-map model"
    (QCheck.make QCheck.Gen.(list_size (0 -- 40) gen_world_op))
    (fun ops ->
      let base = 0x1000_0000 in
      let npages = 8 in
      let fr = Vmem.Frame.create ~policy:Vmem.Frame.Overcommit ~frames:4096 () in
      let cost = Vmem.Cost.create () in
      let tlb = Vmem.Tlb.create cost in
      let root = Vmem.Addr_space.create ~frames:fr ~cost ~tlb () in
      (match
         Vmem.Addr_space.mmap ~addr:base ~len:(npages * page) ~perm:Vmem.Perm.rw
           ~kind:Vmem.Vma.Anon root
       with
      | Ok _ -> ()
      | Error _ -> QCheck.assume_fail ());
      (* each live space paired with its reference byte map *)
      let live = ref [ (root, Hashtbl.create 64) ] in
      let addr_of loc = base + ((loc / 16) * page) + (loc mod 16) in
      let pick i = List.nth !live (i mod List.length !live) in
      let agree () =
        List.for_all
          (fun (aspace, model) ->
            Hashtbl.fold
              (fun addr expected acc ->
                acc
                &&
                match Vmem.Addr_space.read_byte aspace addr with
                | Ok got -> got = expected
                | Error _ -> false)
              model true)
          !live
      in
      let ok_steps =
        List.for_all
          (fun op ->
            match op with
            | W_write (s, loc, v) -> (
              let aspace, model = pick s in
              let addr = addr_of loc in
              match Vmem.Addr_space.write_byte aspace addr v with
              | Ok () ->
                Hashtbl.replace model addr v;
                true
              | Error _ -> false)
            | W_fork s -> (
              let aspace, model = pick s in
              match Vmem.Addr_space.clone_cow aspace with
              | Ok child ->
                live := !live @ [ (child, Hashtbl.copy model) ];
                true
              | Error _ -> false)
            | W_destroy s ->
              if List.length !live > 1 then begin
                let victim, _ = pick s in
                Vmem.Addr_space.destroy victim;
                live := List.filter (fun (a, _) -> a != victim) !live;
                true
              end
              else true)
          ops
      in
      let consistent = ok_steps && agree () in
      List.iter (fun (a, _) -> Vmem.Addr_space.destroy a) !live;
      consistent && Vmem.Frame.used fr = 0 && Vmem.Frame.committed fr = 0)

(* ------------------------------------------------------------------ *)
(* Batched-vs-reference oracle: the O(range) fast paths (leaf batch ops,
   lazily shared page-table subtrees on fork, the leaf-granular eager
   copy) must be indistinguishable from the per-page reference walks
   ([~batched:false]) — identical op results, PTE contents, page bytes,
   cost breakdown with event counts, and frame accounting — under
   arbitrary interleavings of map / touch / write / mprotect / clone /
   eager clone / unmap, including OOM and commit-limit failures. *)

type oracle_op =
  | O_mmap of int * int * int * bool  (* page offset, pages, perm, shared *)
  | O_map_lazy of int * int * int * bool  (* page offset, pages, perm, image kind *)
  | O_touch of int * int
  | O_protect of int * int * int
  | O_munmap of int * int
  | O_write of int * int  (* page offset, byte written at its offset 0 *)
  | O_clone
  | O_clone_eager of bool  (* continue in the eager child *)
  | O_zygote  (* seal the current space, continue in a lazy child of it *)

let gen_oracle_scenario =
  QCheck.Gen.(
    let arena = 96 in
    let op =
      frequency
        [
          ( 4,
            map3
              (fun off len (p, sh) -> O_mmap (off, len, p, sh))
              (int_bound (arena - 1)) (1 -- 16)
              (pair (int_bound 2) bool) );
          ( 3,
            map3
              (fun off len (p, image) -> O_map_lazy (off, len, p, image))
              (int_bound (arena - 1)) (1 -- 16) (pair (int_bound 2) bool) );
          (6, map2 (fun off len -> O_touch (off, len)) (int_bound (arena - 1)) (1 -- 24));
          ( 3,
            map3
              (fun off len p -> O_protect (off, len, p))
              (int_bound (arena - 1)) (1 -- 16) (int_bound 2) );
          (2, map2 (fun off len -> O_munmap (off, len)) (int_bound (arena - 1)) (1 -- 24));
          (2, map2 (fun off v -> O_write (off, v)) (int_bound (arena - 1)) (1 -- 255));
          (2, return O_clone);
          (2, map (fun cont -> O_clone_eager cont) bool);
          (1, return O_zygote);
        ]
    in
    (* failure schedules on one draw counter that the pager's deny hook
       and the frame allocator's share, like the kernel's single fault
       stream: the batched pass must consult them in the per-page walk's
       order for the same draws to fail. [None] installs no hook. *)
    let draws = list_size (0 -- 4) (1 -- 120) in
    let sched =
      frequency [ (1, return None); (2, map (fun s -> Some s) (pair draws draws)) ]
    in
    pair (triple (list_size (1 -- 45) op) bool bool) (triple (int_bound 3) sched bool))

(* A warm space frozen into a template, continued in a lazy child: the
   prefix that puts the random ops over a backing table. *)
let zygote_prefix =
  [ O_mmap (0, 24, 1, false); O_touch (0, 20); O_mmap (40, 16, 1, false);
    O_touch (40, 16); O_zygote ]

(* The test pager: cookie class by low bit, integer-valued fetch costs
   (so batching cannot round differently), the template priced apart. *)
let test_pager ?(deny = fun () -> false) fr ~readahead =
  {
    Vmem.Addr_space.frames = fr;
    fetch_class = (fun cookie -> cookie land 1);
    fetches =
      [|
        { category = "pager:fetch-zero"; cycles = (fun _ -> 100.0) };
        { category = "pager:fetch-image"; cycles = (fun _ -> 240.0) };
      |];
    template = { category = "pager:fetch-template"; cycles = (fun _ -> 60.0) };
    deny;
    readahead;
  }

type oracle_space = {
  fr : Vmem.Frame.t;
  cost : Vmem.Cost.t;
  blame : Vmem.Blame.t;
  seen : (string, float * int) Hashtbl.t;  (** what the meter observer saw *)
  draws : int ref;
  mutable cur : Vmem.Addr_space.t;
  mutable child : Vmem.Addr_space.t option;
  mutable sources : Vmem.Addr_space.t list;
      (** earlier spaces kept to the end: sealed into a template, or the
          parent of an eager child the scenario continued in *)
  mutable templates : Vmem.Addr_space.t list;
}

let prop_batched_oracle =
  let perm_of = [| Vmem.Perm.r; Vmem.Perm.rw; Vmem.Perm.rwx |] in
  let show_fault = function
    | `Segfault -> "segv"
    | `Perm_denied -> "perm"
    | `Out_of_memory -> "oom"
  in
  QCheck.Test.make ~count:200
    ~name:"addr space: batched paths match the per-page oracle"
    (QCheck.make gen_oracle_scenario)
    (fun ((ops, small_phys, overcommit), (readahead, sched, from_zygote)) ->
      let ops = if from_zygote then zygote_prefix @ ops else ops in
      let make batched =
        let fr =
          Vmem.Frame.create
            ~policy:(if overcommit then Vmem.Frame.Overcommit else Vmem.Frame.Strict)
            ~frames:(if small_phys then 48 else 4096)
            ()
        in
        let cost = Vmem.Cost.create () in
        let blame = Vmem.Blame.create () in
        let seen = Hashtbl.create 16 in
        Vmem.Cost.set_observer cost
          (Some
             (fun cat ~n cycles ->
               Vmem.Blame.on_cost blame cat ~n cycles;
               let c, k = Option.value ~default:(0.0, 0) (Hashtbl.find_opt seen cat) in
               Hashtbl.replace seen cat (c +. cycles, k + n)));
        let draws = ref 0 in
        let hook fails () =
          incr draws;
          List.mem !draws fails
        in
        let deny =
          match sched with
          | None -> fun () -> false
          | Some (pager_fails, frame_fails) ->
            Vmem.Frame.set_deny_alloc fr (Some (hook frame_fails));
            hook pager_fails
        in
        let tlb = Vmem.Tlb.create cost in
        let a = Vmem.Addr_space.create ~batched ~blame ~frames:fr ~cost ~tlb () in
        Vmem.Addr_space.set_pager a (Some (test_pager ~deny fr ~readahead));
        { fr; cost; blame; seen; draws; cur = a; child = None; sources = []; templates = [] }
      in
      let fast = make true in
      let slow = make false in
      let ptes a =
        let fr = Vmem.Addr_space.frames a in
        Vmem.Addr_space.fold_resident a ~init:[] ~f:(fun acc ~vpn ~pte ->
            (vpn, pte, Vmem.Frame.read_byte fr (Vmem.Pte.frame pte) ~off:0) :: acc)
      in
      let lazies a =
        Vmem.Addr_space.fold_lazy a ~init:[] ~f:(fun acc ~vpn ~pte ->
            (vpn, pte) :: acc)
      in
      let counts a =
        ( Vmem.Addr_space.resident_pages a,
          Vmem.Addr_space.pt_nodes a,
          Vmem.Addr_space.lazy_pages a,
          Vmem.Addr_space.committed_pages a )
      in
      let state sp =
        let a = sp.cur in
        ( ( Vmem.Cost.total sp.cost,
            List.sort compare (Vmem.Cost.by_category_counts sp.cost),
            List.sort compare (List.of_seq (Hashtbl.to_seq sp.seen)),
            Metrics.Json.to_string (Vmem.Blame.to_json sp.blame) ),
          ( Vmem.Frame.used sp.fr,
            Vmem.Frame.committed sp.fr,
            Vmem.Frame.pinned sp.fr,
            !(sp.draws) ),
          ( Vmem.Addr_space.resident_pages a,
            Vmem.Addr_space.pt_nodes a,
            Vmem.Addr_space.vma_count a,
            Vmem.Addr_space.lazy_pages a ),
          (ptes a, lazies a),
          Option.map (fun c -> (counts c, ptes c, lazies c)) sp.child )
      in
      let event sp style f =
        let id = Vmem.Blame.new_event sp.blame ~style ~parent:0 in
        (id, Vmem.Blame.with_context sp.blame ~id Vmem.Blame.Sync f)
      in
      let drop_child sp =
        Option.iter Vmem.Addr_space.destroy sp.child;
        sp.child <- None
      in
      let apply sp op =
        let a = sp.cur in
        let base = Vmem.Addr_space.mmap_base a in
        match op with
        | O_mmap (off, len, p, shared) -> (
          match
            Vmem.Addr_space.mmap ~addr:(base + (off * page)) ~shared
              ~len:(len * page) ~perm:perm_of.(p) ~kind:Vmem.Vma.Anon a
          with
          | Ok x -> Printf.sprintf "mmap:%x" x
          | Error `No_space -> "mmap:nospace"
          | Error `Overlap -> "mmap:overlap"
          | Error `Commit_limit -> "mmap:commit"
          | Error `Invalid -> "mmap:invalid")
        | O_map_lazy (off, len, p, image) -> (
          (* two cookie kinds: a constant zero cookie, and image pages
             numbered from the offset in strides that keep the class bit *)
          let cookie0, stride = if image then ((2 * off) + 1, 2) else (0, 0) in
          match
            Vmem.Addr_space.map_lazy ~addr:(base + (off * page))
              ~len:(len * page) ~perm:perm_of.(p) ~kind:Vmem.Vma.Anon
              ~cookie0 ~stride a
          with
          | Ok x -> Printf.sprintf "lazy:%x" x
          | Error `No_space -> "lazy:nospace"
          | Error `Overlap -> "lazy:overlap"
          | Error `Commit_limit -> "lazy:commit"
          | Error `Invalid -> "lazy:invalid")
        | O_touch (off, len) -> (
          match
            Vmem.Addr_space.touch_range a ~addr:(base + (off * page))
              ~len:(len * page)
          with
          | Ok n -> Printf.sprintf "touch:%d" n
          | Error e -> "touch:" ^ show_fault e)
        | O_protect (off, len, p) -> (
          match
            Vmem.Addr_space.protect a ~addr:(base + (off * page))
              ~len:(len * page) ~perm:perm_of.(p)
          with
          | Ok () -> "protect:ok"
          | Error `Invalid -> "protect:invalid"
          | Error `No_region -> "protect:noregion")
        | O_munmap (off, len) -> (
          match
            Vmem.Addr_space.munmap a ~addr:(base + (off * page))
              ~len:(len * page)
          with
          | Ok () -> "munmap:ok"
          | Error `Invalid -> "munmap:invalid")
        | O_write (off, v) -> (
          match Vmem.Addr_space.write_byte a (base + (off * page)) v with
          | Ok () -> "write:ok"
          | Error e -> "write:" ^ show_fault e)
        | O_clone -> (
          drop_child sp;
          match event sp "fork" (fun () -> Vmem.Addr_space.clone_cow a) with
          | id, Ok c ->
            Vmem.Addr_space.set_blame_origin a id;
            Vmem.Addr_space.set_blame_origin c id;
            sp.child <- Some c;
            "clone:ok"
          | _, Error `Commit_limit -> "clone:commit"
          | _, Error `Out_of_memory -> "clone:oom")
        | O_clone_eager cont -> (
          drop_child sp;
          (* like the kernel's fork_eager: no COW sharing, no origin *)
          match event sp "fork_eager" (fun () -> Vmem.Addr_space.clone_eager a) with
          | _, Ok c when cont ->
            sp.sources <- a :: sp.sources;
            sp.cur <- c;
            "eager:cont"
          | _, Ok c ->
            sp.child <- Some c;
            "eager:ok"
          | _, Error `Commit_limit -> "eager:commit"
          | _, Error `Out_of_memory -> "eager:oom")
        | O_zygote -> (
          (* a lazy zygote child faults its pages from the template's
             backing table; later munmaps punch holes into it. Like the
             kernel's freeze, only a sole owner with no unresolved
             pager-backed page is sealed. *)
          if Vmem.Addr_space.pager_active a || not (Vmem.Addr_space.sole_owner a)
          then "zygote:busy"
          else
            let id, tpl = event sp "freeze" (fun () -> Vmem.Addr_space.seal a) in
            Vmem.Addr_space.set_blame_origin a id;
            sp.templates <- tpl :: sp.templates;
            match
              event sp "zygote" (fun () ->
                  Vmem.Addr_space.clone_from_sealed ~lazy_:true tpl
                    ~commit_pages:(Vmem.Addr_space.committed_pages a))
            with
            | id, Ok (c, _) ->
              Vmem.Addr_space.set_blame_origin c id;
              sp.sources <- a :: sp.sources;
              sp.cur <- c;
              "zygote:ok"
            | _, Error `Commit_limit -> "zygote:commit")
      in
      List.iteri
        (fun i op ->
          let rf = apply fast op in
          let rs = apply slow op in
          if rf <> rs then
            Alcotest.failf "op %d: result mismatch (batched %s, oracle %s)" i
              rf rs;
          if state fast <> state slow then
            Alcotest.failf "op %d (%s): state diverged" i rf)
        ops;
      let finish sp =
        Option.iter Vmem.Addr_space.destroy sp.child;
        List.iter Vmem.Addr_space.destroy (sp.cur :: sp.sources);
        List.iter Vmem.Addr_space.destroy_sealed sp.templates;
        (Vmem.Frame.used sp.fr, Vmem.Frame.committed sp.fr)
      in
      let uf = finish fast and us = finish slow in
      uf = us && uf = (0, 0))

(* Readahead marks outlive the space's last lazy page: once page 0's
   fault resolves every lazy entry, the space is no longer pager-active,
   yet the first touches of pages 1-2 are still readahead hits that must
   clear their marks — batched or not. *)
let test_readahead_hits_after_last_lazy () =
  List.iter
    (fun batched ->
      let fr = Vmem.Frame.create ~frames:64 () in
      let cost = Vmem.Cost.create () in
      let a =
        Vmem.Addr_space.create ~batched ~frames:fr ~cost ~tlb:(Vmem.Tlb.create cost) ()
      in
      Vmem.Addr_space.set_pager a (Some (test_pager fr ~readahead:2));
      let x =
        ok
          (Vmem.Addr_space.map_lazy ~len:(3 * page) ~perm:Vmem.Perm.rw
             ~kind:Vmem.Vma.Anon ~cookie0:0 ~stride:0 a)
      in
      check_int "page 0" 1 (ok (Vmem.Addr_space.touch_range a ~addr:x ~len:page));
      check_bool "no lazy page left" false (Vmem.Addr_space.pager_active a);
      check_int "pages 1-2" 2
        (ok (Vmem.Addr_space.touch_range a ~addr:(x + page) ~len:(2 * page)));
      let marks =
        Vmem.Addr_space.fold_resident a ~init:0 ~f:(fun n ~vpn:_ ~pte ->
            if Vmem.Pte.prefetched pte then n + 1 else n)
      in
      let what = if batched then "batched " else "per-page " in
      check_int (what ^ "readahead hits") 2 (Vmem.Cost.count cost "pager:readahead-hit");
      check_int (what ^ "marks left") 0 marks;
      Vmem.Addr_space.destroy a)
    [ true; false ]

(* A pager belongs to one machine's memory, and its cookie classes must
   name one of its prices. *)
let test_pager_validation () =
  List.iter
    (fun batched ->
      let fr = Vmem.Frame.create ~frames:64 () in
      let cost = Vmem.Cost.create () in
      let a =
        Vmem.Addr_space.create ~batched ~frames:fr ~cost ~tlb:(Vmem.Tlb.create cost) ()
      in
      let other = Vmem.Frame.create ~frames:64 () in
      Alcotest.check_raises "pager of another machine"
        (Invalid_argument "Addr_space.set_pager: pager serves another machine's frames")
        (fun () -> Vmem.Addr_space.set_pager a (Some (test_pager other ~readahead:0)));
      Vmem.Addr_space.set_pager a
        (Some { (test_pager fr ~readahead:0) with fetch_class = (fun _ -> 2) });
      let x =
        ok
          (Vmem.Addr_space.map_lazy ~len:page ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon
             ~cookie0:0 ~stride:0 a)
      in
      Alcotest.check_raises "cookie class out of range"
        (Invalid_argument "Addr_space: pager fetch class out of range")
        (fun () -> ignore (Vmem.Addr_space.touch_range a ~addr:x ~len:page));
      check_int "entry still lazy" 1 (Vmem.Addr_space.lazy_pages a);
      check_int "no frame taken" 0 (Vmem.Frame.used fr);
      Vmem.Addr_space.destroy a)
    [ true; false ]

(* The batched lazy pass charges per touch, not per page: a 4096-page
   first touch without readahead reaches the meter observer a handful of
   times (fault:base, pager:request, one fetch class), where the
   per-page walk made three calls per page. *)
let test_lazy_touch_observer_calls () =
  let pages = 4096 in
  let fr = Vmem.Frame.create ~frames:(pages + 64) () in
  let cost = Vmem.Cost.create () in
  let calls = ref 0 in
  Vmem.Cost.set_observer cost (Some (fun _ ~n:_ _ -> incr calls));
  let a = Vmem.Addr_space.create ~frames:fr ~cost ~tlb:(Vmem.Tlb.create cost) () in
  Vmem.Addr_space.set_pager a (Some (test_pager fr ~readahead:0));
  let x =
    ok
      (Vmem.Addr_space.map_lazy ~len:(pages * page) ~perm:Vmem.Perm.rw
         ~kind:Vmem.Vma.Anon ~cookie0:1 ~stride:2 a)
  in
  calls := 0;
  check_int "touched" pages (ok (Vmem.Addr_space.touch_range a ~addr:x ~len:(pages * page)));
  check_bool "at most 8 observer calls" true (!calls <= 8);
  check_int "one request per page" pages (Vmem.Cost.count cost "pager:request");
  check_int "image pages fetched" pages (Vmem.Cost.count cost "pager:fetch-image");
  Vmem.Addr_space.destroy a

(* The batched eager clone charges per clone, not per page: a 4096-page
   space in three VMAs (one shared) reaches the meter observer twice —
   fork:vma and fork:eager-copy — where the per-page walk made one call
   per copied page. Failing the k-th frame charges the k-1 copies made,
   in one call, and leaves frames and commit where they were. *)
let test_eager_clone_observer_calls () =
  let pages = 4096 in
  let fr = Vmem.Frame.create ~frames:(2 * pages) () in
  let cost = Vmem.Cost.create () in
  let calls = ref [] in
  Vmem.Cost.set_observer cost (Some (fun cat ~n _ -> calls := (cat, n) :: !calls));
  let a = Vmem.Addr_space.create ~frames:fr ~cost ~tlb:(Vmem.Tlb.create cost) () in
  let map ?shared n =
    let x = ok (Vmem.Addr_space.mmap ?shared ~len:(n * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
    ignore (ok (Vmem.Addr_space.touch_range a ~addr:x ~len:(n * page)))
  in
  map 2048;
  map ~shared:true 1024;
  map 1024;
  let private_pages = 3072 in
  let clone () =
    calls := [];
    Vmem.Addr_space.clone_eager a
  in
  let child = ok (clone ()) in
  Alcotest.(check (list (pair string int)))
    "two observer calls"
    [ ("fork:vma", 3); ("fork:eager-copy", private_pages) ]
    (List.rev !calls);
  Vmem.Addr_space.destroy child;
  let used = Vmem.Frame.used fr and committed = Vmem.Frame.committed fr in
  List.iter
    (fun k ->
      let draws = ref 0 in
      Vmem.Frame.set_deny_alloc fr
        (Some
           (fun () ->
             incr draws;
             !draws = k));
      let copies_before = Vmem.Cost.count cost "fork:eager-copy" in
      (match clone () with
      | Error `Out_of_memory -> ()
      | Ok _ | Error `Commit_limit -> Alcotest.fail "frame k must fail the clone");
      Vmem.Frame.set_deny_alloc fr None;
      let expect = ("fork:vma", 3) :: (if k > 1 then [ ("fork:eager-copy", k - 1) ] else []) in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "frame %d denied" k) expect (List.rev !calls);
      check_int "k-1 copies charged" (k - 1)
        (Vmem.Cost.count cost "fork:eager-copy" - copies_before);
      check_int "draws" k !draws;
      check_int "frames back" used (Vmem.Frame.used fr);
      check_int "commit back" committed (Vmem.Frame.committed fr))
    [ 1; 700; private_pages ];
  Vmem.Addr_space.destroy a

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)
let tc n f = Alcotest.test_case n `Quick f

let () =
  Alcotest.run "vmem"
    [
      ( "addr",
        [
          tc "alignment" test_addr_alignment;
          tc "pages" test_addr_pages;
          tc "table index" test_addr_table_index;
        ] );
      qsuite "addr-props" [ prop_addr_align; prop_addr_index_recompose ];
      ("perm", [ tc "allows" test_perm_allows; tc "ops" test_perm_ops ]);
      ( "frame",
        [
          tc "alloc/free" test_frame_alloc_free;
          tc "refcount" test_frame_refcount;
          tc "oom" test_frame_oom;
          tc "unallocated" test_frame_unallocated_ops;
          tc "commit strict" test_frame_commit;
          tc "overcommit" test_frame_overcommit;
          tc "data" test_frame_data;
          tc "free discards data" test_frame_free_discards_data;
          tc "pin" test_frame_pin;
          tc "pin spilled" test_frame_pin_spilled;
          tc "pin many" test_frame_pin_many;
        ] );
      ( "pte",
        [ tc "roundtrip" test_pte_roundtrip; tc "updates" test_pte_updates ] );
      qsuite "pte-props" [ prop_pte_roundtrip ];
      ( "page-table",
        [
          tc "map/lookup" test_pt_map_lookup;
          tc "unmap" test_pt_unmap;
          tc "node growth" test_pt_node_growth;
          tc "fold order" test_pt_fold_order;
          tc "update" test_pt_update;
          tc "clone cow" test_pt_clone_cow;
          tc "clear" test_pt_clear;
        ] );
      qsuite "page-table-props" [ prop_pt_map_unmap ];
      ( "region-map",
        [
          tc "add/overlap" test_rm_add_overlap;
          tc "find" test_rm_find;
          tc "carve middle" test_rm_carve_middle;
          tc "carve span" test_rm_carve_span;
          tc "carve crop callback" test_rm_carve_crop_callback;
          tc "find gap" test_rm_find_gap;
        ] );
      qsuite "region-map-props" [ prop_rm_invariant ];
      ("tlb", [ tc "accounting" test_tlb_accounting ]);
      ( "addr-space",
        [
          tc "mmap gap" test_as_mmap_gap;
          tc "mmap hint" test_as_mmap_hint;
          tc "demand zero" test_as_demand_zero;
          tc "segfault/perms" test_as_segfault_and_perms;
          tc "munmap partial" test_as_munmap_partial;
          tc "munmap hole" test_as_munmap_hole_ok;
          tc "protect" test_as_protect;
          tc "protect restore" test_as_protect_restore;
          tc "brk" test_as_brk;
          tc "cow semantics" test_as_cow_semantics;
          tc "cow layout inherited" test_as_cow_layout_inherited;
          tc "fork cost scales" test_as_fork_cost_scales;
          tc "destroy releases" test_as_destroy_releases;
          tc "seal/clone" test_as_seal_clone;
          tc "seal commit limit" test_as_seal_clone_commit_limit;
          tc "fork commit limit" test_as_fork_commit_limit;
          tc "clone eager" test_as_clone_eager;
          tc "shared mapping fork" test_as_shared_mapping_fork;
          tc "map image page" test_as_map_image_page;
          tc "oom fault" test_as_oom_fault;
          tc "readahead hits after last lazy page" test_readahead_hits_after_last_lazy;
          tc "lazy touch observer calls" test_lazy_touch_observer_calls;
          tc "pager validation" test_pager_validation;
          tc "eager clone observer calls" test_eager_clone_observer_calls;
        ] );
      qsuite "addr-space-props"
        [ prop_as_fork_refcounts; prop_cow_model; prop_batched_oracle ];
    ]
