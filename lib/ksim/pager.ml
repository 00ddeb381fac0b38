let tag_bits = 2
let tag_mask = (1 lsl tag_bits) - 1
let tag_zero = 0
let tag_image = 1

let zero_cookie = tag_zero
let image_stride = 1 lsl tag_bits
let image_cookie ~page =
  if page < 0 then invalid_arg "Pager.image_cookie: negative page";
  (page lsl tag_bits) lor tag_image

let decode cookie =
  match cookie land tag_mask with
  | 0 -> `Zero
  | 1 -> `Image (cookie lsr tag_bits)
  | _ -> invalid_arg "Pager: unknown cookie tag"

(* Per-page prices by source; the address space counts the pages it
   pulls and charges each source once per touch. Image geometry is
   modelled, not stored, so a fetched page has no bytes to fill in: a
   fresh frame already reads as zeroes, and only the fetch cost is
   real. Template pages are copied by the address space. *)
let fetch category cycles = { Vmem.Addr_space.category; cycles }

let template = fetch "pager:fetch-template" (fun p -> p.Vmem.Cost.pager_fetch_template)

(* [decode] without building the variant: the class is the tag. *)
let fetch_class cookie =
  let tag = cookie land tag_mask in
  if tag > tag_image then invalid_arg "Pager: unknown cookie tag";
  tag

let make ~frames ~deny ~readahead () =
  if readahead < 0 then invalid_arg "Pager.make: negative readahead";
  (* indexed by cookie tag, as [fetch_class] returns it *)
  let fetches =
    [|
      fetch "pager:fetch-zero" (fun p -> p.Vmem.Cost.pager_fetch_zero);
      fetch "pager:fetch-image" (fun p -> p.Vmem.Cost.pager_fetch_image);
    |]
  in
  { Vmem.Addr_space.frames; fetch_class; fetches; template; deny; readahead }
