(* The benchmark's own checks: inputs are a pure function of the seed,
   simulated results are reproducible, and a wrong exit status or reply
   is counted as a failure rather than passing silently. *)

open Perfbench

(* Shrunken cases keep the tests fast; the generators are exercised at
   full size by the determinism tests. *)
let fork_case seed =
  let c = (Fork_sweep.gen ~seed ~n:8).(0) in
  { c with Fork_sweep.fmib = 16; vmas = min c.Fork_sweep.vmas 4 }

let demand_case seed ~oom =
  let c =
    List.find (fun c -> c.Demand.oom = oom) (Array.to_list (Demand.gen ~seed ~n:8))
  in
  { c with Demand.imib = 16 }

let serve_case seed = (Serve.gen ~seed ~n:8).(0)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_inputs () =
  let same name gen =
    Alcotest.(check bool) (name ^ ": same seed, same inputs") true (gen 7 = gen 7);
    Alcotest.(check bool) (name ^ ": new seed, new inputs") false (gen 7 = gen 8)
  in
  let n = Bench.batch in
  same "sim_fork_sweep" (fun seed -> Fork_sweep.gen ~seed ~n:(n "sim_fork_sweep"));
  same "sim_demand" (fun seed -> Demand.gen ~seed ~n:(n "sim_demand"));
  same "sim_serve" (fun seed -> Serve.gen ~seed ~n:(n "sim_serve"));
  same "real_spawn" (fun seed -> Real.gen ~seed)

let digest run = (run ()).Simcase.digest

let test_digest () =
  let check name run =
    let d7 = digest (run 7) and d7' = digest (run 7) and d8 = digest (run 8) in
    Alcotest.(check string) (name ^ ": same seed, same digest") d7 d7';
    Alcotest.(check bool) (name ^ ": new seed, new digest") false (d7 = d8)
  in
  let spans = Spans.off in
  check "sim_fork_sweep" (fun seed () ->
      Fork_sweep.run_case ~spans ~id:0 (fork_case seed));
  check "sim_demand" (fun seed () ->
      Demand.run_case ~spans ~id:0 (demand_case seed ~oom:false));
  check "sim_serve" (fun seed () ->
      Serve.run_case ~spans ~id:0 (serve_case seed))

let test_clean () =
  let clean name (r : Simcase.result) =
    Alcotest.(check (list string)) (name ^ ": no failures") [] r.Simcase.failures
  in
  let spans = Spans.create () in
  clean "oom" (Demand.run_case ~spans ~id:0 (demand_case 3 ~oom:true));
  let r = Demand.run_case ~spans ~id:0 (demand_case 3 ~oom:true) in
  Alcotest.(check int) "the OOM chooser killed the hog" 1 r.Simcase.kstat.Ksim.Kstat.oom_kills;
  clean "traced serve" (Serve.run_case ~spans ~id:0 (serve_case 3));
  Alcotest.(check bool) "spans recorded" true (Spans.count spans > 0)

let report () =
  { Bench.attempted = 0; failed = 0; failures = []; values = []; notes = [] }

let counted name case =
  let r = report () in
  let (_ : Bench.pass) =
    Bench.run_pass ~corrupt:true r ~spans:Spans.off [| case |]
  in
  Alcotest.(check int) (name ^ ": attempted") 1 r.Bench.attempted;
  Alcotest.(check int) (name ^ ": counted as failed") 1 r.Bench.failed;
  r.Bench.failures

let test_wrong_status () =
  let c = fork_case 5 in
  let failures =
    counted "status"
      { Bench.pages = 0; vmas = 1;
        run = (fun ?corrupt ~spans () -> Fork_sweep.run_case ?corrupt ~spans ~id:0 c) }
  in
  Alcotest.(check bool) "a status failure" true
    (List.exists (fun m -> contains m "status") failures)

let test_wrong_reply () =
  let c = serve_case 5 in
  let failures =
    counted "reply"
      { Bench.pages = 0; vmas = 1;
        run = (fun ?corrupt ~spans () -> Serve.run_case ?corrupt ~spans ~id:0 c) }
  in
  Alcotest.(check bool) "a reply failure" true
    (List.exists (fun m -> contains m "reply") failures)

let test_wrong_pool_reply () =
  let tally = { Real.attempted = 0; failures = [] } in
  match Spawnlib.Pool.create ~size:1 ~prog:"/bin/cat" ~argv:[ "cat" ] () with
  | Error e -> Alcotest.fail (Spawnlib.Pool.error_message e)
  | Ok pool ->
    let env =
      { Real.fp = Workload.Footprint.allocate ~mib:1;
        null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0; pool; pool_create_ns = 0 }
    in
    let inputs = Real.gen ~seed:1 in
    Real.verify env inputs tally Spans.off ~n:3;
    Alcotest.(check (list string)) "clean replies" [] tally.Real.failures;
    Real.verify ~corrupt:true env inputs tally Spans.off ~n:3;
    Real.teardown env;
    Alcotest.(check int) "attempted" 6 tally.Real.attempted;
    Alcotest.(check int) "one wrong reply counted" 1 (List.length tally.Real.failures)

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [ Alcotest.test_case "seeded generation" `Quick test_inputs ] );
      ( "checks",
        [
          Alcotest.test_case "digest is reproducible" `Quick test_digest;
          Alcotest.test_case "clean cases pass" `Quick test_clean;
          Alcotest.test_case "wrong status counted" `Quick test_wrong_status;
          Alcotest.test_case "wrong sim reply counted" `Quick test_wrong_reply;
          Alcotest.test_case "wrong pool reply counted" `Quick test_wrong_pool_reply;
        ] );
    ]
