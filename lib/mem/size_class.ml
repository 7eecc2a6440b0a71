let prefix_bytes = 8

type t = {
  sbsize : int;
  sizes : int array;
  lookup : int option array;
      (* ceil(request/8) -> class index, each [Some i] shared by every
         slot of class [i], so a lookup allocates nothing *)
  large_threshold : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let build_sizes sbsize =
  let max_block = sbsize / 8 in
  let acc = ref [] in
  (* Fine-grained: multiples of 16 up to 256. *)
  let s = ref 16 in
  while !s <= min 256 max_block do
    acc := !s :: !acc;
    s := !s + 16
  done;
  (* Coarse: quarter-steps of the enclosing power of two, Hoard-style. *)
  let s = ref 320 in
  let step = ref 64 in
  while !s <= max_block do
    acc := !s :: !acc;
    (* step doubles at each power of two: 320,384,448,512,640,768,896,
       1024,1280,... *)
    if is_pow2 !s then step := !s / 4;
    s := !s + !step
  done;
  Array.of_list (List.rev !acc)

let make ?(sbsize = 16 * 1024) () =
  if not (is_pow2 sbsize) || sbsize < 4096 then
    invalid_arg "Size_class.make: sbsize must be a power of two >= 4096";
  let sizes = build_sizes sbsize in
  let largest = sizes.(Array.length sizes - 1) in
  let large_threshold = largest - prefix_bytes in
  let slots = (large_threshold / 8) + 1 in
  let classes = Array.init (Array.length sizes) Option.some in
  let lookup = Array.make slots None in
  let ci = ref 0 in
  for slot = 0 to slots - 1 do
    let request = slot * 8 in
    while sizes.(!ci) - prefix_bytes < request do
      incr ci
    done;
    lookup.(slot) <- classes.(!ci)
  done;
  { sbsize; sizes; lookup; large_threshold }

let sbsize t = t.sbsize
let count t = Array.length t.sizes
let[@inline] block_size t i = t.sizes.(i)
let blocks_per_superblock t i = t.sbsize / t.sizes.(i)
let large_threshold t = t.large_threshold

let[@inline] class_of_request t n =
  if n < 0 then invalid_arg "Size_class.class_of_request: negative size";
  if n > t.large_threshold then None
  else t.lookup.((n + 7) / 8)
