(* Real-domain allocator benchmark.

     main.exe run --workload W --seed N --seconds S --trace 0|1 [--commit C]
     main.exe inputs --workload W --seed N

   [run] measures the configurations new, new-cached and new-ob on
   [Inputs.domains] real domains for about S seconds. It prints every
   metric as "name value unit" and then, as its last line, one JSON
   object with the keys correct, attempted, failed and metrics. With
   --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
   "end_to_end"); with --trace 1 they are the per-layer ones, from a
   layer phase plus traced segments. [inputs] prints the digest of the
   inputs the seed generates.

   The end-to-end ops/s and set-up times are scaled to a host of nominal
   speed (see [nominal_speed]); the "unscaled" lines print them as the
   wall clock read them. *)

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Configuration order of repeat [r]: rotated, so no configuration always
   runs first. *)
let order r =
  let n = List.length Heaps.names in
  List.init n (fun i -> List.nth Heaps.names ((i + r) mod n))

let metrics = ref []
let emit name value unit_ = metrics := (name, value, unit_) :: !metrics
let attempted = ref 0
let failed = ref 0
let errors = ref []

let tally (r : Drive.result) =
  attempted := !attempted + r.attempted;
  failed := !failed + r.failed;
  errors := r.errors @ !errors

(* Run every configuration [repeats] times in each of [modes] (traced or
   not), interleaved so that drift in the host's speed hits them alike.
   The result lists the results of one (configuration, mode). *)
let segments inputs ~repeats ~seg_s ~modes =
  let tbl = Hashtbl.create 6 in
  for r = 0 to repeats - 1 do
    List.iter
      (fun cfg ->
        List.iter
          (fun traced ->
            let res = Drive.run inputs ~cfg ~seg_s ~traced in
            Printf.printf
              "segment %s%s: %.0f ops/s over %.3f s, on-CPU %.3f, speed %.5f, set-up \
               %.4f s\n"
              cfg
              (if traced then " traced" else "")
              (Drive.ops_per_s res) res.elapsed_s (Drive.on_cpu res)
              res.speed res.setup_s;
            tally res;
            Hashtbl.add tbl (cfg, traced) res)
          modes)
      (order r)
  done;
  Hashtbl.find_all tbl

let ncfg = float (List.length Heaps.names)

(* The end-to-end rates and times are scaled to a host of nominal speed:
   a segment's ops/s is multiplied, and its set-up time divided, by
   [nominal_speed /. speed], where [speed] is what [Drive.probe_speed]
   read on the same domains right after it. The nominal speed is about
   what the probe reads on an unloaded 2-vCPU Xeon guest. *)
let nominal_speed = 4e-3

let scaled_ops_per_s (r : Drive.result) =
  Drive.ops_per_s r *. nominal_speed /. r.speed

let scaled_setup_s (r : Drive.result) = r.setup_s *. r.speed /. nominal_speed

(* Median scaled ops/s over the segments in which the domains stayed on
   a CPU: those whose on-CPU share is at least 0.9 of the best segment's.
   A segment in which a domain lost its CPU to something else (another
   process, or the hypervisor's steal) shows a lower share and is left
   out, since it times the host rather than the allocator. *)
let steady_ops_per_s rs =
  let best = List.fold_left (fun a r -> Float.max a (Drive.on_cpu r)) 0. rs in
  median
    (List.filter_map
       (fun r ->
         if Drive.on_cpu r >= 0.9 *. best then Some (scaled_ops_per_s r)
         else None)
       rs)

(* One short untimed segment per configuration first: the process's
   first domain spawns and heap growth would otherwise land in the first
   measured segments. *)
let warm_up inputs =
  List.iter
    (fun cfg -> tally (Drive.run inputs ~cfg ~seg_s:0.2 ~traced:false))
    Heaps.names

let end_to_end inputs ~seconds =
  warm_up inputs;
  let repeats = max 1 (int_of_float seconds) in
  let runs =
    segments inputs ~repeats ~seg_s:(seconds /. (ncfg *. float repeats))
      ~modes:[ false ]
  in
  let by_cfg cfg = runs (cfg, false) in
  List.iter
    (fun cfg ->
      emit ("ops_per_s." ^ cfg) (steady_ops_per_s (by_cfg cfg)) "1/s")
    Heaps.names;
  List.iter
    (fun cfg ->
      emit ("peak_mapped_kib." ^ cfg)
        (median
           (List.map
              (fun (r : Drive.result) -> float r.space.mapped_peak /. 1024.)
              (by_cfg cfg)))
        "KiB")
    Heaps.names;
  (* Set-up of one repeat is the sum over the configurations. *)
  let setups =
    List.init repeats (fun i ->
        List.fold_left
          (fun acc cfg ->
            let r = List.nth (by_cfg cfg) i in
            acc +. scaled_setup_s r)
          0. Heaps.names)
  in
  emit "setup_s" (median setups) "s";
  List.iter
    (fun cfg ->
      let rs = by_cfg cfg in
      Printf.printf "unscaled %s: %.0f ops/s, set-up %.4f s, probe %.5f /ns\n"
        cfg
        (median (List.map Drive.ops_per_s rs))
        (median (List.map (fun (r : Drive.result) -> r.setup_s) rs))
        (median (List.map (fun (r : Drive.result) -> r.speed) rs)))
    Heaps.names;
  emit "ok_op_ratio"
    (float (!attempted - !failed) /. float (max 1 !attempted))
    "ratio"

(* The ns/op each end-to-end configuration should cost if the layer
   rows explain it: the contention-free pair through the instance, the
   payload stamp, plus each traced count per op times its layer row. *)
let explain ~cfg ~row ~measured ~per_op ~count =
  let retries =
    List.fold_left (fun a site -> a + count site) 0 Heaps.Lf.retry_sites
  in
  let terms =
    [
      ("pair", row ("frontend.malloc_free." ^ cfg) /. 2.);
      ("stamp", (row "store.write_word" +. row "store.read_word") /. 2.);
      ( "superblocks",
        per_op (count "sb_allocs")
        *. (row "store.superblock_alloc_free"
           +. row "desc_pool.alloc_retire.hazard") );
      ("failed_cas", per_op retries *. row "runtime.cas");
      ( "refill+flush",
        (per_op (count "refills") *. row "lf_alloc.refill_batch")
        +. (per_op (count "flushes") *. row "lf_alloc.flush_batch") );
      (* A minor collection stops every domain. *)
      ( "gc",
        float Inputs.domains
        *. per_op (count "minor_collections")
        *. row "gc.minor_collection" );
    ]
  in
  let explained = List.fold_left (fun a (_, v) -> a +. v) 0. terms in
  Printf.printf "explain %s: measured %.1f ns/op = %s + residual %.1f\n" cfg
    measured
    (String.concat " + "
       (List.map (fun (n, v) -> Printf.sprintf "%s %.1f" n v) terms))
    (measured -. explained);
  emit ("explain.explained_share." ^ cfg) (explained /. measured) "ratio";
  emit ("explain.residual_ns_per_op." ^ cfg) (measured -. explained) "ns"

(* bench/main.ml's bechamel estimate of the same pair, as recorded in the
   newest BENCH file, if there is one to compare with. *)
let recorded_pair () =
  let read path =
    In_channel.with_open_bin path In_channel.input_all
    |> Mm_obs.Json.of_string |> Result.to_option
  in
  match read "BENCH_5.json" with
  | exception Sys_error _ -> None
  | None -> None
  | Some j ->
      Option.bind (Mm_obs.Json.member "bechamel" j) Mm_obs.Json.to_list
      |> Option.value ~default:[]
      |> List.find_map (fun e ->
             match (Mm_obs.Json.member "name" e, Mm_obs.Json.member "ns_per_op" e) with
             | Some (Str "latency/malloc+free/new"), Some (Float v) -> Some v
             | _ -> None)

let per_layer inputs ~seconds =
  let rows = Layers.run ~quota:(Float.max 0.02 (seconds *. 0.5 /. 19.)) in
  List.iter
    (fun (r : Layers.row) ->
      emit (r.name ^ ".ns") r.ns "ns";
      emit (r.name ^ ".words") r.words "words";
      emit (r.name ^ ".r2") r.r2 "ratio")
    rows;
  let row name = (List.find (fun r -> r.Layers.name = name) rows).Layers.ns in
  Printf.printf
    "pair: lf_alloc.malloc_free %.1f ns (typed call), \
     frontend.malloc_free.new %.1f ns (instance closures)%s\n"
    (row "lf_alloc.malloc_free")
    (row "frontend.malloc_free.new")
    (match recorded_pair () with
    | Some v ->
        Printf.sprintf "; BENCH_5.json latency/malloc+free/new %.1f ns" v
    | None -> "");
  warm_up inputs;
  let repeats = max 1 (int_of_float (seconds /. 5.)) in
  let seg_s = seconds *. 0.5 /. (2. *. ncfg *. float repeats) in
  let by_mode = segments inputs ~repeats ~seg_s ~modes:[ false; true ] in
  let plain cfg = by_mode (cfg, false) and traced cfg = by_mode (cfg, true) in
  let median_ops rs = median (List.map Drive.ops_per_s rs) in
  let sum_ops f = List.fold_left (fun a cfg -> a +. median_ops (f cfg)) 0. in
  emit "trace.overhead_pct"
    (100.
    *. (sum_ops plain Heaps.names -. sum_ops traced Heaps.names)
    /. sum_ops plain Heaps.names)
    "%";
  List.iter
    (fun cfg ->
      let ts = traced cfg in
      let ops = float (List.fold_left (fun a (r : Drive.result) -> a + r.timed_ops) 0 ts) in
      let per_op n = float n /. ops and per_1k n = 1000. *. float n /. ops in
      (* Sum of a named counter over the traced segments. *)
      let count key =
        List.fold_left
          (fun a (r : Drive.result) ->
            a + Option.fold ~none:0 ~some:(List.assoc key) r.delta)
          0 ts
      in
      let hist pick =
        let h = Drive.Hist.create () in
        List.iter (fun (r : Drive.result) -> Drive.Hist.add ~into:h (pick r)) ts;
        h
      in
      let mh = hist (fun r -> r.malloc_hist) and fh = hist (fun r -> r.free_hist) in
      let name prefix = prefix ^ "." ^ cfg in
      let per_1k_row prefix key = emit (name prefix) (per_1k (count key)) "count/1k_ops" in
      emit (name "frontend.malloc_ns_p50") (Drive.Hist.percentile mh 0.5) "ns";
      emit (name "frontend.malloc_ns_p99") (Drive.Hist.percentile mh 0.99) "ns";
      emit (name "frontend.free_ns_p50") (Drive.Hist.percentile fh 0.5) "ns";
      emit (name "frontend.free_ns_p99") (Drive.Hist.percentile fh 0.99) "ns";
      emit (name "frontend.samples")
        (float (Drive.Hist.count mh + Drive.Hist.count fh))
        "count";
      emit (name "gc.minor_words_per_op")
        (List.fold_left (fun a (r : Drive.result) -> a +. r.minor_words) 0. ts /. ops)
        "words/op";
      per_1k_row "gc.minor_collections_per_1k_ops" "minor_collections";
      (* The sites each configuration can retry at. *)
      let sites =
        [ "active.reserve"; "anchor.pop"; "anchor.free" ]
        @
        match cfg with
        | "new-ob" -> [ "pub.push"; "pub.claim" ]
        | "new-cached" -> [ "bc.reserve_cas"; "bc.flush_cas" ]
        | _ -> []
      in
      List.iter
        (fun site -> per_1k_row ("lf_alloc.failed_cas_per_1k." ^ site) site)
        sites;
      if cfg = "new-cached" then begin
        let hits = count "hits" in
        emit "block_cache.hit_ratio"
          (float hits /. float (max 1 (hits + count "misses")))
          "ratio";
        let cache_row key =
          emit
            ("block_cache." ^ key ^ "_per_1k_ops")
            (per_1k (count key)) "count/1k_ops"
        in
        List.iter cache_row [ "refills"; "flushes"; "remote_frees" ]
      end;
      List.iter
        (fun key -> per_1k_row ("store." ^ key ^ "_per_1k_ops") key)
        [ "sb_allocs"; "sb_reuses"; "mmap"; "munmap" ];
      emit (name "space.utilization")
        (median
           (List.map
              (fun (r : Drive.result) ->
                float r.live_peak /. float (max 1 r.space.mapped_peak))
              ts))
        "ratio";
      explain ~cfg ~row ~per_op ~count
        ~measured:(float Inputs.domains *. 1e9 /. median_ops (plain cfg)))
    Heaps.names

let json_number v = if Float.is_integer v then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let report () =
  let ms = List.rev !metrics in
  List.iter (fun (n, v, u) -> Printf.printf "%-58s %16.6g %s\n" n v u) ms;
  List.iter (fun e -> Printf.printf "error: %s\n" e) !errors;
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) ms in
  if not finite then print_endline "error: a metric is not a finite number";
  let correct = !failed = 0 && !errors = [] && finite in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) !failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n
              (json_number (if Float.is_finite v then v else 0.))
              u)
          ms))

let usage () =
  prerr_endline
    "usage: main.exe run --workload W --seed N --seconds S --trace 0|1 \
     [--commit C]\n\
    \       main.exe inputs --workload W --seed N";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let cmd, kv =
    match args with c :: rest -> (c, opts [] rest) | [] -> usage ()
  in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload =
    match Inputs.workload_of_string (get "workload") with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int "seed" in
  let inputs = Inputs.generate workload ~seed in
  match cmd with
  | "inputs" -> print_endline (Inputs.digest inputs)
  | "run" ->
      let seconds = float (int "seconds") in
      if seconds <= 0. then usage ();
      Printf.printf
        "provenance: {\"seed\": %d, \"nproc\": %d, \"ocaml\": \"%s\", \
         \"flambda\": %b, \"runtime\": \"%s\", \"commit\": \"%s\", \
         \"workload\": \"%s\", \"domains\": %d, \"minor_heap_words\": %d}\n%!"
        seed
        (Domain.recommended_domain_count ())
        Sys.ocaml_version Build_info.flambda Mm_runtime.Real_rt.name
        (Option.value (List.assoc_opt "commit" kv) ~default:"unknown")
        (get "workload") Inputs.domains (Gc.get ()).minor_heap_size;
      (match int "trace" with
      | 0 -> end_to_end inputs ~seconds
      | 1 -> per_layer inputs ~seconds
      | _ -> usage ());
      report ()
  | _ -> usage ()
