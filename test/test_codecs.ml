(* Property tests for the pure packed-word codecs: Addr, Block_prefix,
   Anchor, Active_word, and the Size_class table. *)

open Util
module Addr = Mm_mem.Addr
module Prefix = Mm_mem.Block_prefix
module Sc = Mm_mem.Size_class
module Anchor = Mm_core.Anchor
module Aw = Mm_core.Active_word

(* ---------------- Addr ---------------- *)

let addr_gen =
  QCheck2.Gen.(pair (int_range 0 Addr.max_region) (int_range 0 Addr.max_offset))

let addr_roundtrip =
  qcheck "addr pack/unpack roundtrip" addr_gen (fun (region, offset) ->
      let a = Addr.make ~region ~offset in
      Addr.region a = region && Addr.offset a = offset)

let addr_arith =
  qcheck "addr offset arithmetic" addr_gen (fun (region, offset) ->
      let offset = min offset (Addr.max_offset - 64) in
      let a = Addr.make ~region ~offset in
      Addr.offset (a + 64) = offset + 64 && Addr.region (a + 64) = region)

let addr_line =
  qcheck "line distinguishes 64-byte windows" addr_gen (fun (region, offset) ->
      let offset = min offset (Addr.max_offset - 64) in
      let a = Addr.make ~region ~offset in
      Addr.line a <> Addr.line (a + 64))

let addr_bounds () =
  Alcotest.check_raises "region too big"
    (Invalid_argument "Addr.make: region") (fun () ->
      ignore (Addr.make ~region:(Addr.max_region + 1) ~offset:0));
  Alcotest.check_raises "negative offset"
    (Invalid_argument "Addr.make: offset") (fun () ->
      ignore (Addr.make ~region:0 ~offset:(-1)));
  Alcotest.(check int) "null is region 0 offset 0" 0 Addr.null

(* ---------------- Block_prefix ---------------- *)

let prefix_small =
  qcheck "small prefix roundtrip" QCheck2.Gen.(int_range 1 (1 lsl 30))
    (fun id ->
      let w = Prefix.small ~desc_id:id in
      (not (Prefix.is_large w)) && Prefix.desc_id w = id)

let prefix_large =
  qcheck "large prefix roundtrip" QCheck2.Gen.(int_range 1 (1 lsl 40))
    (fun len ->
      let w = Prefix.large ~total_len:len in
      Prefix.is_large w && Prefix.large_len w = len)

let prefix_kinds_disjoint =
  qcheck "prefix kinds disjoint" QCheck2.Gen.(int_range 1 (1 lsl 20))
    (fun v ->
      Prefix.is_large (Prefix.large ~total_len:v)
      <> Prefix.is_large (Prefix.small ~desc_id:v))

(* ---------------- Anchor ---------------- *)

let state_gen =
  QCheck2.Gen.oneofl [ Anchor.Active; Anchor.Full; Anchor.Partial; Anchor.Empty ]

let anchor_gen =
  QCheck2.Gen.(
    map
      (fun (a, c, s, t) -> (a, c, s, t))
      (quad (int_range 0 Anchor.max_count) (int_range 0 Anchor.max_count)
         state_gen (int_range 0 (1 lsl 36))))

let anchor_roundtrip =
  qcheck "anchor pack/unpack roundtrip" anchor_gen
    (fun (avail, count, state, tag) ->
      let a = Anchor.make ~avail ~count ~state ~tag in
      Anchor.avail a = avail && Anchor.count a = count
      && Anchor.state a = state && Anchor.tag a = tag)

let anchor_setters =
  qcheck "anchor setters touch one field" anchor_gen
    (fun (avail, count, state, tag) ->
      let a = Anchor.make ~avail ~count ~state ~tag in
      let a1 = Anchor.set_avail a ((avail + 1) land Anchor.max_count) in
      let a2 = Anchor.set_count a1 ((count + 7) land Anchor.max_count) in
      let a3 = Anchor.set_state a2 Anchor.Partial in
      Anchor.avail a3 = (avail + 1) land Anchor.max_count
      && Anchor.count a3 = (count + 7) land Anchor.max_count
      && Anchor.state a3 = Anchor.Partial
      && Anchor.tag a3 = tag)

let anchor_tag_increments =
  qcheck "incr_tag leaves other fields" anchor_gen
    (fun (avail, count, state, tag) ->
      let a = Anchor.make ~avail ~count ~state ~tag in
      let b = Anchor.incr_tag a in
      Anchor.avail b = avail && Anchor.count b = count
      && Anchor.state b = state
      && (Anchor.tag b = tag + 1 || (Anchor.tag b = 0 && tag = (1 lsl 37) - 1)))

let anchor_tag_changes_word =
  qcheck "incr_tag always changes the packed word" anchor_gen
    (fun (avail, count, state, tag) ->
      let a = Anchor.make ~avail ~count ~state ~tag in
      Anchor.incr_tag a <> a)

let anchor_fits_int () =
  (* The packed anchor must be a valid OCaml immediate for any field
     values — i.e. construction never overflows into the sign bit. *)
  let a =
    Anchor.make ~avail:Anchor.max_count ~count:Anchor.max_count
      ~state:Anchor.Empty ~tag:((1 lsl 37) - 1)
  in
  Alcotest.(check bool) "non-negative" true (a >= 0)

let anchor_bounds () =
  Alcotest.check_raises "avail too big" (Invalid_argument "Anchor.make: avail")
    (fun () ->
      ignore
        (Anchor.make ~avail:(Anchor.max_count + 1) ~count:0
           ~state:Anchor.Active ~tag:0))

(* ---------------- Active_word ---------------- *)

let active_roundtrip =
  qcheck "active word roundtrip"
    QCheck2.Gen.(pair (int_range 1 (1 lsl 40)) (int_range 0 Aw.max_credits))
    (fun (desc_id, credits) ->
      let w = Aw.make ~desc_id ~credits in
      (not (Aw.is_null w)) && Aw.desc_id w = desc_id && Aw.credits w = credits)

let active_dec =
  qcheck "dec_credits = reservation"
    QCheck2.Gen.(pair (int_range 1 (1 lsl 40)) (int_range 1 Aw.max_credits))
    (fun (desc_id, credits) ->
      let w = Aw.make ~desc_id ~credits in
      let w' = Aw.dec_credits w in
      Aw.desc_id w' = desc_id && Aw.credits w' = credits - 1)

let active_null () =
  Alcotest.(check bool) "null is null" true (Aw.is_null Aw.null);
  Alcotest.check_raises "dec on zero credits"
    (Invalid_argument "Active_word.dec_credits: no credits") (fun () ->
      ignore (Aw.dec_credits (Aw.make ~desc_id:3 ~credits:0)))

(* ---------------- Size_class ---------------- *)

let sc = Sc.make ()

let sc_monotone () =
  for i = 1 to Sc.count sc - 1 do
    if Sc.block_size sc i <= Sc.block_size sc (i - 1) then
      Alcotest.failf "class sizes not strictly increasing at %d" i
  done

let sc_smallest_fit =
  qcheck "class_of_request picks the smallest adequate class"
    QCheck2.Gen.(int_range 0 4000)
    (fun n ->
      match Sc.class_of_request sc n with
      | None -> n > Sc.large_threshold sc
      | Some c ->
          let fits c = Sc.block_size sc c - 8 >= n in
          fits c && (c = 0 || not (fits (c - 1))))

let sc_block_geometry () =
  for i = 0 to Sc.count sc - 1 do
    let b = Sc.block_size sc i in
    if b mod 16 <> 0 && b mod 8 <> 0 then
      Alcotest.failf "class %d size %d not 8-aligned" i b;
    if Sc.blocks_per_superblock sc i < 8 then
      Alcotest.failf "class %d has <8 blocks per superblock" i;
    if Sc.blocks_per_superblock sc i > Mm_core.Anchor.max_count + 1 then
      Alcotest.failf "class %d exceeds anchor field width" i
  done

let sc_large_threshold () =
  let t = Sc.large_threshold sc in
  Alcotest.(check bool) "threshold request is small" true
    (Sc.class_of_request sc t <> None);
  Alcotest.(check (option int)) "beyond threshold is large" None
    (Sc.class_of_request sc (t + 1))

let sc_sbsize_validation () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Size_class.make: sbsize must be a power of two >= 4096")
    (fun () -> ignore (Sc.make ~sbsize:5000 ()))

let sc_other_sbsizes () =
  List.iter
    (fun sbsize ->
      let sc = Sc.make ~sbsize () in
      Alcotest.(check bool)
        (Printf.sprintf "sbsize %d has classes" sbsize)
        true
        (Sc.count sc > 4))
    [ 4096; 8192; 32768; 65536 ]

let cases =
  [
    addr_roundtrip;
    addr_arith;
    addr_line;
    case "addr bounds" addr_bounds;
    prefix_small;
    prefix_large;
    prefix_kinds_disjoint;
    anchor_roundtrip;
    anchor_setters;
    anchor_tag_increments;
    anchor_tag_changes_word;
    case "anchor fits in an immediate" anchor_fits_int;
    case "anchor bounds" anchor_bounds;
    active_roundtrip;
    active_dec;
    case "active null" active_null;
    case "size classes monotone" sc_monotone;
    sc_smallest_fit;
    case "size class geometry" sc_block_geometry;
    case "large threshold boundary" sc_large_threshold;
    case "sbsize validation" sc_sbsize_validation;
    case "other sbsizes" sc_other_sbsizes;
  ]
