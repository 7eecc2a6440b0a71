(* CLI over the experiment catalogue: list experiments, run one, several
   or all, in quick or full mode, with a chosen simulation seed.

     dune exec bin/experiments.exe -- list
     dune exec bin/experiments.exe -- run table1 fig8a
     dune exec bin/experiments.exe -- run --full --seed 7        (all)
     dune exec bin/experiments.exe -- run --json BENCH.json      (all, + JSON)
*)

open Cmdliner
module E = Mm_harness.Experiments

let list_cmd =
  let doc = "List the available experiments (one per paper table/figure)." in
  let run () =
    List.iter print_endline E.ids;
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Run experiments by id (default: all)." in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID"
           ~doc:"Experiment ids (see $(b,list)); empty runs everything.")
  in
  let full =
    Arg.(value & flag & info [ "full" ]
           ~doc:"Use the full (paper-scale) parameter sets; much slower.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Simulation seed (schedules are deterministic per seed).")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH"
           ~doc:"Also write every outcome (table lines and OS-census \
                 counters) as machine-readable JSON to $(docv).")
  in
  let run ids full seed json =
    let mode = if full then E.Full else E.Quick in
    let ids = match ids with [] -> E.ids | ids -> ids in
    match
      List.map
        (fun id ->
          let o = E.run id ~mode ~seed in
          Format.printf "%a%!" E.print_outcome o;
          o)
        ids
    with
    | outcomes ->
        Option.iter
          (fun path ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc
                  (Mm_obs.Json.to_string (E.to_json ~mode ~seed outcomes));
                output_char oc '\n');
            Format.printf "results written to %s@." path)
          json;
        0
    | exception Invalid_argument msg ->
        Format.eprintf "error: %s@." msg;
        1
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ ids $ full $ seed $ json)

let () =
  let doc =
    "Reproduce the evaluation of 'Scalable Lock-Free Dynamic Memory \
     Allocation' (Michael, PLDI 2004)."
  in
  let info = Cmd.info "experiments" ~doc in
  exit (Cmd.eval' (Cmd.group info [ list_cmd; run_cmd ]))
