(* In-memory spans for the traced run. A span is opened around one of the
   benchmark's own calls into a layer's public function and closed when
   the call returns; it names its parent span and the case it belongs to,
   so a reader can rebuild the tree per case. Nothing is written until
   {!write} at exit. A full buffer drops new spans and counts them. *)

type span = {
  name : string;
  parent : int;  (** id of the enclosing span, [-1] for a root *)
  case : int;
  start : int;  (** monotonic ns *)
  mutable stop : int;
  mutable syscalls : int;  (** simulated syscalls completed inside *)
  mutable units : int;  (** work the span covered (pages, requests, ...) *)
}

type t = {
  enabled : bool;
  cap : int;
  mutable buf : span array;
  mutable n : int;
  mutable dropped : int;
}

let dummy =
  { name = ""; parent = -1; case = -1; start = 0; stop = 0; syscalls = 0;
    units = 0 }

let off = { enabled = false; cap = 0; buf = [||]; n = 0; dropped = 0 }

let create () =
  { enabled = true; cap = 2_000_000; buf = Array.make 4096 dummy; n = 0; dropped = 0 }

let enabled t = t.enabled

let start t ~name ~parent ~case =
  if not t.enabled then -1
  else if t.n >= t.cap then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    if t.n = Array.length t.buf then begin
      let b = Array.make (2 * t.n) dummy in
      Array.blit t.buf 0 b 0 t.n;
      t.buf <- b
    end;
    let id = t.n in
    t.buf.(id) <-
      { name; parent; case; start = Clock.now (); stop = -1; syscalls = 0;
        units = 0 };
    t.n <- id + 1;
    id
  end

let stop ?(syscalls = 0) ?(units = 0) t id =
  if id >= 0 then begin
    let s = t.buf.(id) in
    s.stop <- Clock.now ();
    s.syscalls <- syscalls;
    s.units <- units
  end

let dropped t = t.dropped
let count t = t.n

let fold t ~name ~init ~f =
  let acc = ref init in
  for i = 0 to t.n - 1 do
    let s = t.buf.(i) in
    if s.stop >= 0 && String.equal s.name name then acc := f !acc s
  done;
  !acc

(* Durations in ns of every closed span called [name]. *)
let durations t name =
  let out = Clock.Samples.create () in
  fold t ~name ~init:() ~f:(fun () s ->
      Clock.Samples.add out (float_of_int (s.stop - s.start)));
  Clock.Samples.to_array out

(* Summed duration (ns) and summed units of the spans called [name]. *)
let totals t name =
  fold t ~name ~init:(0, 0) ~f:(fun (d, u) s -> (d + (s.stop - s.start), u + s.units))

let write t path =
  let oc = open_out path in
  for i = 0 to t.n - 1 do
    let s = t.buf.(i) in
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"parent\":%d,\"case\":%d,\"start_ns\":%d,\"end_ns\":%d,\"syscalls\":%d,\"units\":%d}\n"
      i s.name s.parent s.case s.start s.stop s.syscalls s.units
  done;
  close_out oc
