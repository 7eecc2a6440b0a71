(* Rendering and the experiment harness. *)

module R = Mm_harness.Render
module E = Mm_harness.Experiments
open Util

let table_shape () =
  let lines =
    R.table ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  Alcotest.(check int) "header + separator + rows" 4 (List.length lines);
  (* All lines equally wide (fixed-width columns). *)
  let widths = List.map String.length lines in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let formatting () =
  Alcotest.(check string) "speedup" "2.50" (R.fmt_speedup 2.5);
  Alcotest.(check string) "throughput M" "3.00M/s" (R.fmt_throughput 3e6);
  Alcotest.(check string) "throughput k" "1.5k/s" (R.fmt_throughput 1500.0);
  Alcotest.(check string) "throughput raw" "500/s" (R.fmt_throughput 500.0);
  Alcotest.(check string) "ns" "120ns" (R.fmt_ns 120.0);
  Alcotest.(check string) "KB" "4KB" (R.fmt_bytes 4096);
  Alcotest.(check string) "MB" "2.0MB" (R.fmt_bytes (2 * 1024 * 1024))

let series_shape () =
  let lines =
    R.series ~col_title:"alloc" ~cols:[ "x"; "y" ] ~row_title:"t"
      ~rows:[ ("1", [ 1.0; 2.0 ]); ("2", [ 3.0; 4.0 ]) ]
  in
  Alcotest.(check int) "lines" 4 (List.length lines)

let catalogue_complete () =
  let ids = E.ids in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  (* Every DESIGN.md experiment is present. *)
  List.iter
    (fun id ->
      Alcotest.(check bool) ("catalogue has " ^ id) true (List.mem id ids))
    [
      "table1"; "latency"; "fig8a"; "fig8b"; "fig8c"; "fig8d"; "fig8e";
      "fig8f"; "fig8g"; "fig8h"; "space"; "uniproc"; "ablation-partial";
      "ablation-desc"; "ablation-credits"; "ablation-locks"; "ablation-hyper";
      "preempt"; "extra-workloads"; "tail-latency"; "contention-sites"; "kill";
    ]

(* The bench JSON of two synthetic outcomes, parsed back: no experiment
   runs. *)
let json_round_trip () =
  let outcome id runtime os =
    {
      E.id;
      title = "title of " ^ id;
      runtime;
      expectation = "expectation of " ^ id;
      lines = [ "a  b"; "-  -"; "1  2" ];
      os;
    }
  in
  let outcomes =
    [
      outcome "latency" "real" [ ("ops", 0); ("mmap_calls", 0) ];
      outcome "fig8a" "simulated" [ ("ops", 12_000); ("mmap_calls", 17) ];
    ]
  in
  let text =
    Mm_obs.Json.to_string (E.to_json ~mode:E.Quick ~seed:3 outcomes)
  in
  let j =
    match Mm_obs.Json.of_string text with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let module J = Mm_obs.Json in
  let str k o = Option.bind (J.member k o) J.to_str in
  let int k o = Option.bind (J.member k o) J.to_int in
  Alcotest.(check (option string)) "format" (Some "mm-bench/2") (str "format" j);
  Alcotest.(check (option string)) "mode" (Some "quick") (str "mode" j);
  Alcotest.(check (option int)) "seed" (Some 3) (int "seed" j);
  Alcotest.(check bool) "no bechamel or contended key" true
    (J.member "bechamel" j = None && J.member "contended" j = None);
  let exps =
    Option.value ~default:[] (Option.bind (J.member "experiments" j) J.to_list)
  in
  Alcotest.(check (list (option string))) "ids in order"
    [ Some "latency"; Some "fig8a" ] (List.map (str "id") exps);
  Alcotest.(check (list (option string))) "runtime labels"
    [ Some "real"; Some "simulated" ] (List.map (str "runtime") exps);
  Alcotest.(check (list (option int))) "ops counters" [ Some 0; Some 12_000 ]
    (List.map (fun e -> Option.bind (J.member "os" e) (int "ops")) exps);
  Alcotest.(check (list (option int))) "mmap counters" [ Some 0; Some 17 ]
    (List.map (fun e -> Option.bind (J.member "os" e) (int "mmap_calls")) exps);
  Alcotest.(check (list int)) "lines" [ 3; 3 ]
    (List.map
       (fun e ->
         List.length
           (Option.value ~default:[]
              (Option.bind (J.member "lines" e) J.to_list)))
       exps)

let unknown_rejected () =
  Alcotest.(check bool) "unknown id" true
    (match E.run "nonsense" ~mode:E.Quick ~seed:1 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let kill_experiment_runs () =
  let o = E.run "kill" ~mode:E.Quick ~seed:1 in
  Alcotest.(check string) "id" "kill" o.E.id;
  Alcotest.(check bool) "has expectation" true
    (String.length o.E.expectation > 0);
  Alcotest.(check bool) "has result lines" true (List.length o.E.lines > 2);
  (* The experiment's substance: the lock-free rows survive, the
     lock-based libc row does not. *)
  let body = String.concat "\n" o.E.lines in
  let contains sub =
    let n = String.length sub and m = String.length body in
    let rec go i = i + n <= m && (String.sub body i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "new survives" true (contains "survivors completed");
  Alcotest.(check bool) "libc stuck" true
    (contains "LIVELOCK" || contains "DEADLOCK")

let ablation_hyper_runs () =
  let o = E.run "ablation-hyper" ~mode:E.Quick ~seed:1 in
  Alcotest.(check bool) "renders" true (List.length o.E.lines >= 4)

(* The Fig. 8 runtime choice: real domains only when the host has a CPU
   for each thread of the sweep (the quick and full sweeps both reach
   16 threads). *)
let figure_runtime_choice () =
  let check what expected cpus threads =
    Alcotest.(check bool) what true
      (E.figure_runtime ~cpus ~threads = expected)
  in
  let quick = [ 1; 2; 4; 8; 16 ] in
  check "2 CPUs, sweep to 16: simulated" `Simulated 2 quick;
  check "15 CPUs, sweep to 16: simulated" `Simulated 15 quick;
  check "16 CPUs, sweep to 16: real" `Real 16 quick;
  check "64 CPUs, sweep to 16: real" `Real 64 quick;
  check "1 CPU, one-thread sweep: real" `Real 1 [ 1 ];
  check "2 CPUs, sweep to 2: real" `Real 2 [ 2; 1 ]

let cases =
  [
    case "table shape" table_shape;
    case "formatting" formatting;
    case "series shape" series_shape;
    case "catalogue complete" catalogue_complete;
    case "bench JSON round trip" json_round_trip;
    case "unknown id rejected" unknown_rejected;
    case "Fig. 8 runtime choice" figure_runtime_choice;
    slow_case "kill experiment end-to-end" kill_experiment_runs;
    slow_case "hyper ablation end-to-end" ablation_hyper_runs;
  ]
