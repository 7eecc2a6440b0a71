(* The observability layer (lib/obs, DESIGN.md §12): ring semantics
   (overflow drops are counted, never silent), snapshot consistency
   under the lib/check schedule explorer, codec round-trips, and the
   load-bearing property of the whole design — obs counters agree
   exactly with the allocator's own striped retry census, and tracing
   does not perturb the simulated run at all. *)

open Mm_runtime
module Obs = Mm_obs
module W = Mm_workloads
module Traced = Mm_harness.Traced

(* ------------------------------------------------------------------ *)
(* Ring semantics. *)

let ring_basic () =
  let r = Obs.Ring.create ~tid:3 ~capacity:8 in
  Alcotest.(check int) "empty" 0 (Obs.Ring.length r);
  Obs.Ring.record r ~kind:Obs.Event.Cas_ok ~label:"a" ~cycle:10;
  Obs.Ring.record r ~kind:Obs.Event.Cas_fail ~label:"b" ~cycle:20;
  Obs.Ring.record r ~kind:Obs.Event.Mmap ~label:"c" ~cycle:30;
  Alcotest.(check int) "length" 3 (Obs.Ring.length r);
  Alcotest.(check int) "no drops" 0 (Obs.Ring.dropped r);
  let snap = Obs.Ring.snapshot r in
  Alcotest.(check int) "snapshot length" 3 (Array.length snap);
  let e = snap.(1) in
  Alcotest.(check int) "tid" 3 e.Obs.Event.tid;
  Alcotest.(check string) "label" "b" e.Obs.Event.label;
  Alcotest.(check int) "cycle" 20 e.Obs.Event.cycle;
  Alcotest.(check bool) "kind" true (e.Obs.Event.kind = Obs.Event.Cas_fail)

let ring_overflow_counts () =
  let r = Obs.Ring.create ~tid:0 ~capacity:4 in
  for i = 0 to 9 do
    Obs.Ring.record r ~kind:Obs.Event.Transition ~label:(string_of_int i)
      ~cycle:i
  done;
  Alcotest.(check int) "capped length" 4 (Obs.Ring.length r);
  Alcotest.(check int) "drops counted" 6 (Obs.Ring.dropped r);
  (* Drop policy keeps the published prefix, never overwrites it. *)
  let snap = Obs.Ring.snapshot r in
  Array.iteri
    (fun i (e : Obs.Event.t) ->
      Alcotest.(check string)
        (Printf.sprintf "slot %d intact" i)
        (string_of_int i) e.Obs.Event.label)
    snap

(* ------------------------------------------------------------------ *)
(* Snapshot consistency under the schedule explorer: one writer thread
   publishing into a capacity-4 ring, one reader snapshotting
   concurrently. Over every explored interleaving the snapshot must be
   a prefix of what the writer published: events [0..len), each with
   the value the writer wrote — and at quiescence length + dropped must
   account for every record call. *)

let ring_writes = 6
let ring_cap = 4

let ring_target =
  let open Mm_check in
  let run ~threads ?on_label ?notify_done ?quiescent_checks:_ ~sched () =
    let cpus = max threads 1 in
    let s =
      match on_label with
      | Some on_label ->
          Sim.create ~cpus ~max_cycles:1_000_000_000 ~on_label ~sched ()
      | None -> Sim.create ~cpus ~max_cycles:1_000_000_000 ~sched ()
    in
    let ring = Obs.Ring.create ~tid:0 ~capacity:ring_cap in
    let check_snapshot () =
      let snap = Obs.Ring.snapshot ring in
      if Array.length snap > ring_cap then
        failwith "snapshot exceeds capacity";
      Array.iteri
        (fun i (e : Obs.Event.t) ->
          if e.Obs.Event.cycle <> i || e.Obs.Event.label <> string_of_int i
          then failwith "torn or out-of-order snapshot")
        snap
    in
    let body tid =
      if tid = 0 then
        for i = 0 to ring_writes - 1 do
          Sim_rt.label s "obs.write";
          Obs.Ring.record ring ~kind:Obs.Event.Cas_ok
            ~label:(string_of_int i) ~cycle:i
        done
      else
        for _ = 1 to 3 do
          Sim_rt.label s "obs.read";
          check_snapshot ()
        done
    in
    let wrap tid _ =
      body tid;
      match notify_done with Some f -> f tid | None -> ()
    in
    try
      ignore (Sim.run s (Array.init threads (fun tid -> wrap tid)));
      check_snapshot ();
      if Obs.Ring.length ring + Obs.Ring.dropped ring <> ring_writes then
        Error "record calls not accounted as published + dropped"
      else Ok ()
    with
    | Failure msg -> Error ("invariant: " ^ msg)
    | Sim.Deadlock msg -> Error ("deadlock: " ^ msg)
    | Sim.Progress_timeout msg -> Error ("livelock: " ^ msg)
  in
  {
    Target.name = "obs_ring";
    doc = "single-writer event ring vs concurrent snapshot";
    default_threads = 2;
    labels = [ "obs.write"; "obs.read" ];
    run;
  }

let snapshot_under_explorer () =
  let module E = Mm_check.Explore in
  let r = E.exhaustive ring_target ~threads:2 ~bound:3 ~budget:20_000 in
  (match r.E.finding with
  | None -> ()
  | Some f -> Alcotest.failf "explorer found: %s" f.E.error);
  Alcotest.(check bool)
    "explored a real space" true (r.E.executions > 50)

(* ------------------------------------------------------------------ *)
(* Codec round-trips. *)

let sample_events =
  [
    { Obs.Event.tid = 0; label = "ma.pop_cas"; kind = Obs.Event.Cas_fail; cycle = 17 };
    { Obs.Event.tid = 5; label = "sb.full->partial"; kind = Obs.Event.Transition; cycle = 99 };
    { Obs.Event.tid = 1; label = "a \"quoted\"\\ label\n"; kind = Obs.Event.Hp_scan; cycle = 0 };
    { Obs.Event.tid = 63; label = "store.mmap"; kind = Obs.Event.Mmap; cycle = 123456789 };
  ]

let chrome_roundtrip () =
  let s = Obs.Chrome.to_string ~dropped:7 sample_events in
  match Obs.Chrome.of_string s with
  | Error e -> Alcotest.fail e
  | Ok (events, dropped) ->
      Alcotest.(check int) "dropped" 7 dropped;
      Alcotest.(check int) "count" (List.length sample_events)
        (List.length events);
      List.iter2
        (fun (a : Obs.Event.t) (b : Obs.Event.t) ->
          Alcotest.(check bool) "event" true (a = b))
        sample_events events

let trace_file_roundtrip () =
  let t =
    {
      Obs.Trace_file.meta =
        {
          Obs.Trace_file.workload = "threadtest";
          allocator = "new";
          threads = 16;
          seed = 1;
          nheaps = 1;
          cpus = 16;
          ops = 32000;
          mallocs = 32000;
          frees = 32000;
          capacity = 65536;
        };
      dropped = 3;
      events = sample_events;
    }
  in
  let path = Filename.temp_file "mmalloc-trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Trace_file.save path t;
      match Obs.Trace_file.load path with
      | Error e -> Alcotest.fail e
      | Ok t' ->
          Alcotest.(check bool) "meta" true (t'.Obs.Trace_file.meta = t.Obs.Trace_file.meta);
          Alcotest.(check int) "dropped" 3 t'.Obs.Trace_file.dropped;
          Alcotest.(check bool) "events" true
            (t'.Obs.Trace_file.events = sample_events))

let json_parser () =
  let ok s = match Obs.Json.of_string s with Ok v -> v | Error e -> Alcotest.fail e in
  (match ok {|[1, -2.5, "xA\n", null, true, {"k": []}]|} with
  | Obs.Json.Arr
      [ Int 1; Float f; Str "xA\n"; Null; Bool true; Obj [ ("k", Arr []) ] ]
    ->
      Alcotest.(check (float 1e-9)) "float" (-2.5) f
  | v -> Alcotest.failf "unexpected parse: %s" (Obs.Json.to_string v));
  (match Obs.Json.of_string "{broken" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed JSON");
  (* encode -> decode is the identity on the trace value domain *)
  let v =
    Obs.Json.Obj
      [ ("s", Obs.Json.Str "tricky \"\\\n\t"); ("n", Obs.Json.Int (-42));
        ("l", Obs.Json.Arr [ Obs.Json.Bool false; Obs.Json.Null ]) ]
  in
  Alcotest.(check bool) "roundtrip" true (ok (Obs.Json.to_string v) = v)

(* ------------------------------------------------------------------ *)
(* The seeded sim run: obs counters must agree exactly with the
   allocator's own striped retry census, the mmap event count with the
   store's syscall stat — and installing the tracer must not move the
   simulated clock by a single cycle. *)

let small_threadtest inst ~threads =
  W.Threadtest.run inst ~threads
    { W.Threadtest.quick with iterations = 2; blocks = 100 }

let counters_match_census () =
  let c =
    Traced.capture ~nheaps:1 ~name:"threadtest" ~threads:8 ~seed:1
      small_threadtest
  in
  let agg = Option.get c.Traced.metric.W.Metrics.obs in
  Alcotest.(check int) "nothing dropped" 0 c.Traced.trace.Obs.Trace_file.dropped;
  List.iter2
    (fun (site, obs_n) (site', census_n) ->
      Alcotest.(check string) "site order" site' site;
      Alcotest.(check int) site census_n obs_n)
    (Traced.core_retry_counts agg)
    c.Traced.retry_counts;
  let mmaps =
    List.fold_left
      (fun n (s : Obs.Agg.site) -> n + s.Obs.Agg.mmaps)
      0 agg.Obs.Agg.sites
  in
  Alcotest.(check int) "mmap events = mmap_calls stat"
    c.Traced.metric.W.Metrics.os.Mm_mem.Store.mmap_calls mmaps;
  (* Transition census sanity: superblocks were installed. *)
  let installs =
    match Obs.Agg.site agg "sb.new->active" with
    | Some s -> s.Obs.Agg.transitions
    | None -> 0
  in
  Alcotest.(check bool) "saw sb.new->active" true (installs > 0)

let tracing_does_not_perturb () =
  let traced =
    Traced.capture ~nheaps:1 ~name:"threadtest" ~threads:8 ~seed:1
      small_threadtest
  in
  (* The same run, untraced, on an identically configured machine. *)
  let sim = Sim.create ~cpus:16 ~seed:1 ~max_cycles:100_000_000_000 () in
  let rt = Rt.simulated sim in
  let inst =
    Mm_harness.Allocators.make "new" rt (Mm_mem.Alloc_config.make ~nheaps:1 ())
  in
  let untraced = small_threadtest inst ~threads:8 in
  Alcotest.(check bool) "no tracer left installed" false
    (Rt.Obs.hook_installed ());
  Alcotest.(check (float 0.0))
    "virtual elapsed identical" untraced.W.Metrics.elapsed
    traced.Traced.metric.W.Metrics.elapsed;
  Alcotest.(check bool) "sim counters identical" true
    (untraced.W.Metrics.sim = traced.Traced.metric.W.Metrics.sim)

let cases =
  [
    Alcotest.test_case "ring-basic" `Quick ring_basic;
    Alcotest.test_case "ring-overflow-counts" `Quick ring_overflow_counts;
    Alcotest.test_case "snapshot-under-explorer" `Quick snapshot_under_explorer;
    Alcotest.test_case "chrome-roundtrip" `Quick chrome_roundtrip;
    Alcotest.test_case "trace-file-roundtrip" `Quick trace_file_roundtrip;
    Alcotest.test_case "json-parser" `Quick json_parser;
    Alcotest.test_case "counters-match-census" `Quick counters_match_census;
    Alcotest.test_case "tracing-does-not-perturb" `Quick tracing_does_not_perturb;
  ]
