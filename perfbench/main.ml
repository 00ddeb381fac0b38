(* The benchmark command. Usage:
     main.exe --workload NAME --seed N --seconds S --trace 0|1
   Prints the host stamp, checks, metrics and, as the last line, one JSON
   object; exits 1 when any check failed. See README.md. *)

open Perfbench

(* The benchmark's own GC settings, stamped into every run. A tighter
   space overhead than the default 120 keeps the heap peak, which the
   collector's progress through its cycle sways, within a few per cent
   between batches of equal weight. *)
let minor_heap_words = 1 lsl 20
let space_overhead = 60

let usage () =
  prerr_endline
    ("usage: main.exe --workload {" ^ String.concat "|" Bench.workloads
   ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with Some s when s > 0.0 -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  if not (List.mem !workload Bench.workloads) then usage ();
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words; space_overhead };
  let gc = Gc.get () in
  Printf.printf
    "# host nproc=%d ocaml=%s word_size=%d clock=monotonic workload=%s seed=%d seconds=%g trace=%d gc.minor_heap_words=%d gc.space_overhead=%d\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version Sys.word_size !workload seed
    !seconds (Bool.to_int !trace) gc.Gc.minor_heap_size gc.Gc.space_overhead;
  let o = Bench.run ~workload:!workload ~seed ~seconds:!seconds ~trace:!trace () in
  let r = o.Bench.report in
  let failures = List.rev r.Bench.failures in
  List.iteri (fun i m -> if i < 50 then Printf.printf "FAIL %s\n" m) failures;
  if List.length failures > 50 then Printf.printf "FAIL ... %d more\n" (List.length failures - 50);
  Option.iter (fun d -> Printf.printf "digest %s seed=%d %s\n" !workload seed d) o.Bench.digest;
  List.iter (Printf.printf "# %s\n") (List.rev r.Bench.notes);
  Printf.printf "failed_ratio %g ratio (%d of %d)\n"
    (float_of_int r.Bench.failed /. float_of_int (max 1 r.Bench.attempted))
    r.Bench.failed r.Bench.attempted;
  let shown =
    if !trace then
      List.map
        (fun (name, unit) ->
          (name, unit, Option.value (List.assoc_opt name r.Bench.values) ~default:0.0))
        Bench.per_layer
    else List.map (fun (name, unit) -> (name, unit, List.assoc name o.Bench.e2e)) Bench.end_to_end
  in
  List.iter (fun (name, unit, v) -> Printf.printf "metric %s %.6g %s\n" name v unit) shown;
  List.iter
    (fun (name, traced, untraced) ->
      Printf.printf "overhead %s traced/untraced %.4f (%.6g / %.6g)\n" name (traced /. untraced)
        traced untraced)
    o.Bench.overhead;
  (* The sim workloads' untraced figures before the scaling to host
     speed, so a comparison can be redone on raw values. The last line
     carries only the scaled ones. *)
  if o.Bench.raw <> [] then
    print_endline
      ("raw "
      ^ Metrics.Json.to_string
          (Metrics.Json.obj
             (List.map (fun (n, v) -> (n, Metrics.Json.int v)) o.Bench.refs
             @ [
                 ("nominal_ns", Metrics.Json.int Bench.Yardstick.nominal_ns);
                 ( "metrics",
                   Metrics.Json.obj (List.map (fun (n, v) -> (n, Metrics.Json.num v)) o.Bench.raw) );
               ])));
  if !trace then begin
    let dir = Filename.concat "perfbench" "out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (Printf.sprintf "spans-%s-%d.jsonl" !workload seed) in
    Spans.write o.Bench.spans path;
    Printf.printf "# spans %d written to %s (%d dropped)\n" (Spans.count o.Bench.spans) path
      (Spans.dropped o.Bench.spans)
  end;
  let json =
    Metrics.Json.obj
      [
        ("correct", Metrics.Json.bool (r.Bench.failed = 0));
        ("attempted", Metrics.Json.int r.Bench.attempted);
        ("failed", Metrics.Json.int r.Bench.failed);
        ( "metrics",
          Metrics.Json.obj
            (List.map
               (fun (name, unit, v) ->
                 (name, Metrics.Json.obj [ ("value", Metrics.Json.num v); ("unit", Metrics.Json.str unit) ]))
               shown) );
      ]
  in
  print_endline (Metrics.Json.to_string json);
  exit (if r.Bench.failed = 0 then 0 else 1)
