(* CLI over the observability layer (lib/obs): record a traced workload
   run on the deterministic simulator, report per-site counters, export
   chrome://tracing JSON.

     dune exec bin/trace.exe -- list
     dune exec bin/trace.exe -- record threadtest --threads 16 \
         --heaps 1 -o /tmp/threadtest.trace.json
     dune exec bin/trace.exe -- report threadtest --threads 16 --heaps 1
     dune exec bin/trace.exe -- report -i /tmp/threadtest.trace.json
     dune exec bin/trace.exe -- export --chrome \
         -i /tmp/threadtest.trace.json -o /tmp/threadtest.chrome.json

   Exit codes: 0 = ok; 1 = usage error / unreadable input.
*)

open Cmdliner
module H = Mm_harness.Traced
module TF = Mm_obs.Trace_file

let workload_arg =
  Arg.(
    value
    & pos 0 string "threadtest"
    & info [] ~docv:"WORKLOAD"
        ~doc:"Workload to run (see $(b,list)); quick-mode parameters.")

let threads_arg =
  Arg.(
    value & opt int 16
    & info [ "threads" ] ~docv:"N" ~doc:"Thread count.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Simulator seed.")

let cpus_arg =
  Arg.(
    value & opt int 16
    & info [ "cpus" ] ~docv:"P" ~doc:"Simulated processors.")

let heaps_arg =
  Arg.(
    value & opt int 0
    & info [ "heaps" ] ~docv:"H"
        ~doc:"Processor heaps (default: one per simulated CPU; the \
              EXPERIMENTS.md contention census uses 1).")

let capacity_arg =
  Arg.(
    value & opt int 65536
    & info [ "capacity" ] ~docv:"E"
        ~doc:"Per-thread event-ring capacity; overflow drops (and \
              counts) events.")

let allocator_arg =
  Arg.(
    value & opt string "new"
    & info [ "allocator" ] ~docv:"A"
        ~doc:"Allocator under trace (new, new-reuse, new-ob, new-cached, bw, \
              hoard, ptmalloc, libc). new-reuse is the $(b,new) \
              allocator over the reuse-in-place descriptor pool \
              (DESIGN.md S17).")

let page_manager_arg =
  Arg.(
    value & flag
    & info [ "page-manager" ]
        ~doc:"Route the $(b,new) allocator's large blocks and superblock \
              carving through the span reservoir + lock-free buddy \
              (DESIGN.md S15; off = the paper-verbatim \
              one-mmap-per-request path).")

let input_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "i"; "input" ] ~docv:"FILE"
        ~doc:"Read a recorded trace instead of running a workload.")

let capture ~workload ~threads ~seed ~cpus ~heaps ~capacity ~allocator
    ~page_manager =
  match H.find_workload workload with
  | None ->
      Error (Printf.sprintf "unknown workload %s (see `trace list')" workload)
  | Some wl ->
      let nheaps = if heaps = 0 then None else Some heaps in
      Ok
        (H.capture ~cpus ?nheaps ~capacity ~allocator ~page_manager
           ~name:workload ~threads ~seed wl)

let obtain input workload threads seed cpus heaps capacity allocator
    page_manager =
  match input with
  | Some path -> TF.load path
  | None ->
      Result.map
        (fun c -> c.H.trace)
        (capture ~workload ~threads ~seed ~cpus ~heaps ~capacity ~allocator
           ~page_manager)

let usage_err e =
  prerr_endline e;
  1

let list_cmd =
  let doc = "List the traceable workloads." in
  let run () =
    List.iter (fun (name, _) -> print_endline name) H.workloads;
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let record_cmd =
  let doc = "Run a workload under the tracer and save the trace file." in
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  let run workload threads seed cpus heaps capacity allocator
      page_manager out =
    match
      capture ~workload ~threads ~seed ~cpus ~heaps ~capacity ~allocator
        ~page_manager
    with
    | Error e -> usage_err e
    | Ok c ->
        TF.save out c.H.trace;
        let m = c.H.trace.TF.meta in
        Printf.printf
          "recorded %s x%d (%s, seed %d): %d events, %d dropped -> %s\n"
          m.TF.workload m.TF.threads m.TF.allocator m.TF.seed
          (List.length c.H.trace.TF.events)
          c.H.trace.TF.dropped out;
        0
  in
  Cmd.v (Cmd.info "record" ~doc)
    Term.(
      const run $ workload_arg $ threads_arg $ seed_arg $ cpus_arg
      $ heaps_arg $ capacity_arg $ allocator_arg
      $ page_manager_arg $ out)

let report_cmd =
  let doc =
    "Aggregate a trace (from $(b,-i) or a fresh run) into per-site \
     counters."
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"text or json.")
  in
  let max_mmap =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-mmap-per-1k" ] ~docv:"X"
          ~doc:"CI gate: exit 2 when the run's simulated mmap calls per \
                1k allocator ops exceed $(docv) (guards the \
                superblock-recycling paths against regression).")
  in
  let max_large_mmap =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-large-mmap-per-1k" ] ~docv:"X"
          ~doc:"CI gate: exit 2 when the run's large-path mmap calls \
                (site store.mmap.large) per 1k allocator ops exceed \
                $(docv) (guards the page-manager large-block routing \
                against regression).")
  in
  let max_hp_scan =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-hp-scan" ] ~docv:"N"
          ~doc:"CI gate: exit 2 when the run records more than $(docv) \
                hazard-pointer scans (absolute count; the reuse-in-place \
                descriptor pool, DESIGN.md S17, is gated at 0).")
  in
  let max_failed_cas =
    Arg.(
      value & opt_all string []
      & info [ "max-failed-cas-per-1k" ] ~docv:"SITES:X"
          ~doc:"CI gate (repeatable): exit 2 when the summed failed-CAS \
                count of the named contention-census sites, joined with \
                $(b,+) (e.g. anchor.pop+anchor.free:5.0), exceeds X per \
                1k allocator ops. The owner-biased free-list mode \
                (DESIGN.md S19) is gated on the anchor sites it \
                collapses.")
  in
  let run input workload threads seed cpus heaps capacity allocator
      page_manager format max_mmap max_large_mmap max_hp_scan max_failed_cas =
    match
      obtain input workload threads seed cpus heaps capacity allocator
        page_manager
    with
    | Error e -> usage_err e
    | Ok trace -> (
        (match format with
        | `Text -> List.iter print_endline (H.report_lines trace)
        | `Json ->
            print_endline (Mm_obs.Json.to_string (H.report_json trace)));
        let m = trace.TF.meta in
        let aops = m.TF.mallocs + m.TF.frees in
        let rate n =
          if aops = 0 then Float.infinity
          else 1000.0 *. float_of_int n /. float_of_int aops
        in
        let gate what limit n =
          let r = rate n in
          if r > limit then begin
            Printf.eprintf
              "%s gate FAILED: %.2f per 1k ops (%d / %d ops) > limit %.2f\n"
              what r n aops limit;
            2
          end
          else begin
            Printf.printf "%s gate ok: %.2f per 1k ops <= %.2f\n" what r
              limit;
            0
          end
        in
        let count_gate what limit n =
          if n > limit then begin
            Printf.eprintf "%s gate FAILED: %d > limit %d\n" what n limit;
            2
          end
          else begin
            Printf.printf "%s gate ok: %d <= %d\n" what n limit;
            0
          end
        in
        let failed_cas_gate spec =
          match String.rindex_opt spec ':' with
          | None ->
              usage_err
                (spec ^ ": expected SITE[+SITE..]:BOUND (see `trace report \
                         --help')")
          | Some i -> (
              let sites =
                String.split_on_char '+' (String.sub spec 0 i)
              in
              let bound =
                float_of_string_opt
                  (String.sub spec (i + 1) (String.length spec - i - 1))
              in
              let known = List.map fst H.core_sites in
              match
                ( bound,
                  List.find_opt (fun s -> not (List.mem s known)) sites )
              with
              | None, _ -> usage_err (spec ^ ": bound is not a number")
              | _, Some bad ->
                  usage_err
                    (bad ^ ": not a contention-census site (see `trace \
                            report' output)")
              | Some b, None ->
                  gate
                    (String.concat "+" sites ^ " failed-CAS")
                    b
                    (H.trace_failed_cas trace ~sites))
        in
        let codes =
          List.filter_map Fun.id
            [
              Option.map
                (fun l -> gate "mmap" l (H.trace_mmaps trace))
                max_mmap;
              Option.map
                (fun l -> gate "large-mmap" l (H.trace_large_mmaps trace))
                max_large_mmap;
              Option.map
                (fun l -> count_gate "hp-scan" l (H.trace_hp_scans trace))
                max_hp_scan;
            ]
          @ List.map failed_cas_gate max_failed_cas
        in
        List.fold_left max 0 codes)
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const run $ input_arg $ workload_arg $ threads_arg $ seed_arg
      $ cpus_arg $ heaps_arg $ capacity_arg $ allocator_arg
      $ page_manager_arg $ format $ max_mmap $ max_large_mmap $ max_hp_scan
      $ max_failed_cas)

let export_cmd =
  let doc =
    "Export a trace (from $(b,-i) or a fresh run) as \
     chrome://tracing-compatible JSON."
  in
  let chrome =
    Arg.(
      value & flag
      & info [ "chrome" ]
          ~doc:"Chrome Trace Event Format (the default and only format).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Output file (default: stdout).")
  in
  let run input workload threads seed cpus heaps capacity allocator
      page_manager _chrome out =
    match
      obtain input workload threads seed cpus heaps capacity allocator
        page_manager
    with
    | Error e -> usage_err e
    | Ok trace ->
        let s =
          Mm_obs.Chrome.to_string
            ~process_name:
              (Printf.sprintf "mmalloc %s x%d" trace.TF.meta.TF.workload
                 trace.TF.meta.TF.threads)
            ~dropped:trace.TF.dropped trace.TF.events
        in
        (match out with
        | None -> print_endline s
        | Some path ->
            let oc = open_out path in
            output_string oc s;
            output_char oc '\n';
            close_out oc;
            Printf.printf "wrote %s (%d events)\n" path
              (List.length trace.TF.events));
        0
  in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(
      const run $ input_arg $ workload_arg $ threads_arg $ seed_arg
      $ cpus_arg $ heaps_arg $ capacity_arg $ allocator_arg
      $ page_manager_arg $ chrome $ out)

let () =
  let doc = "Lock-free allocator observability: record / report / export." in
  let info = Cmd.info "trace" ~doc ~version:"%%VERSION%%" in
  exit
    (Cmd.eval'
       (Cmd.group info [ list_cmd; record_cmd; report_cmd; export_cmd ]))
