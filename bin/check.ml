(* CLI over the checking subsystem (lib/check): systematic schedule
   exploration, counterexample replay and the lock-freedom monitor.

     dune exec bin/check.exe -- list
     dune exec bin/check.exe -- explore --target lf_alloc_notag \
         --threads 2 --bound 2 --budget 100000
     dune exec bin/check.exe -- explore --target lf_alloc --pct \
         --runs 10000
     dune exec bin/check.exe -- replay --target lf_alloc_notag \
         --schedule "7:1,12:0"
     dune exec bin/check.exe -- monitor --target lf_alloc
     dune exec bin/check.exe -- quick

   Exit codes: 0 = ran and expectations met; 1 = usage error; 2 =
   violation found (explore/replay) or monitor/quick failure.
*)

open Cmdliner
module T = Mm_check.Target
module S = Mm_check.Schedule
module E = Mm_check.Explore
module M = Mm_check.Monitor

(* Run [k] on the named target; an unknown name is a usage error. *)
let with_target name k =
  match T.find name with
  | Some t -> k t
  | None ->
      Printf.eprintf "unknown target %s (see `check list')\n" name;
      1

(* The labels a target lists that its exploration never stopped at. *)
let missed target (r : E.report) =
  List.filter (fun l -> not (List.mem l r.E.reached)) target.T.labels

let print_report target threads (r : E.report) =
  Printf.printf "target %s, %d threads: %d execution%s, %d decision points%s\n"
    target.T.name threads r.E.executions
    (if r.E.executions = 1 then "" else "s")
    r.E.decision_points
    (if r.E.complete then ", complete" else "");
  Printf.printf "reached:   %s\n" (String.concat " " r.E.reached);
  (match missed target r with
  | [] -> ()
  | ls -> Printf.printf "missed:    %s\n" (String.concat " " ls));
  match r.E.finding with
  | None ->
      if r.E.complete then print_endline "no violations"
      else print_endline "no violations (budget exhausted before the space)"
  | Some f ->
      Printf.printf "VIOLATION: %s\n" f.E.error;
      Printf.printf "schedule:  %s\n" (S.to_string f.E.schedule);
      Printf.printf "minimized: %s\n" (S.to_string f.E.minimized);
      Printf.printf
        "replay:    check replay --target %s --threads %d --schedule \"%s\"\n"
        target.T.name threads
        (S.to_string f.E.minimized)

(* Target / thread-count options shared by the subcommands. *)
let target_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "target" ] ~docv:"NAME" ~doc:"System under test (see $(b,list)).")

let threads_arg =
  Arg.(
    value & opt int 2 & info [ "threads" ] ~docv:"N" ~doc:"Thread count.")

let list_cmd =
  let doc = "List the checkable targets." in
  let run () =
    List.iter
      (fun t ->
        Printf.printf "%-21s %2d labels  %s\n" t.T.name
          (List.length t.T.labels) t.T.doc)
      T.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let explore_cmd =
  let doc =
    "Explore schedules: bounded-exhaustive by default, randomized with \
     $(b,--pct)."
  in
  let bound =
    Arg.(
      value & opt int 2
      & info [ "bound" ] ~docv:"B"
          ~doc:"Exhaustive: maximum preemptive deviations per schedule.")
  in
  let budget =
    Arg.(
      value & opt int 100_000
      & info [ "budget" ] ~docv:"K"
          ~doc:"Exhaustive: maximum executions before truncating.")
  in
  let pct =
    Arg.(
      value & flag
      & info [ "pct" ] ~doc:"Sample random-priority schedules instead.")
  in
  let runs =
    Arg.(
      value & opt int 10_000
      & info [ "runs" ] ~docv:"K" ~doc:"PCT: number of sampled schedules.")
  in
  let depth =
    Arg.(
      value & opt int 3
      & info [ "depth" ] ~docv:"D" ~doc:"PCT: targeted bug depth.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"PCT: seed.")
  in
  let run target threads bound budget pct runs depth seed =
    with_target target @@ fun t ->
    let r =
      if pct then E.pct t ~threads ~depth ~runs ~seed
      else E.exhaustive t ~threads ~bound ~budget
    in
    print_report t threads r;
    if r.E.finding = None then 0 else 2
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const run $ target_arg $ threads_arg $ bound $ budget $ pct $ runs
      $ depth $ seed)

let replay_cmd =
  let doc = "Re-execute a recorded schedule and report its outcome." in
  let schedule =
    Arg.(
      required
      & opt (some string) None
      & info [ "schedule" ] ~docv:"SCHED"
          ~doc:"Deviation list, e.g. \"7:1,12:0\"; \"\" is the default \
                schedule.")
  in
  let run target threads schedule =
    with_target target @@ fun t ->
    match S.of_string schedule with
    | exception Invalid_argument e ->
        prerr_endline e;
        1
    | sched -> (
        let tr = E.replay t ~threads sched in
        match tr.E.outcome with
        | Ok () ->
            Printf.printf "ok (%d decision points)\n" (Array.length tr.E.points);
            0
        | Error e ->
            Printf.printf "VIOLATION: %s\n" e;
            2)
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(const run $ target_arg $ threads_arg $ schedule)

let monitor_cmd =
  let doc =
    "Kill or stall a thread at every label of the target; the others \
     must still complete (lock-freedom)."
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("kill", [ M.Kill ]); ("stall", [ M.Stall ]);
                    ("both", [ M.Kill; M.Stall ]) ])
          [ M.Kill; M.Stall ]
      & info [ "mode" ] ~docv:"MODE" ~doc:"kill, stall or both.")
  in
  let rounds =
    Arg.(
      value & opt int 3
      & info [ "rounds" ] ~docv:"R"
          ~doc:"Schedules per (label, mode): the default one plus R-1 \
                random ones. A label none of them reaches is probed on \
                the first schedule of a bound-3 exhaustive search that \
                reaches it.")
  in
  let run target threads modes rounds =
    with_target target @@ fun t ->
    let r = M.run t ~threads ~modes ~rounds in
    let fired = List.filter (fun e -> e.M.fired) r.M.entries in
    List.iter
      (fun (e : M.entry) ->
        match e.M.result with
        | Ok () -> ()
        | Error msg ->
            Printf.printf "FAIL %s %s %s: %s\n" e.M.label
              (M.mode_name e.M.mode) (M.source_name e.M.source) msg)
      fired;
    List.iter
      (fun l ->
        if not (List.exists (fun e -> e.M.label = l) fired) then
          Printf.printf
            "note: label %s not reached in these rounds nor by the \
             bound-3 search\n"
            l)
      t.T.labels;
    Printf.printf "%d probes, %d fired, %s\n" (List.length r.M.entries)
      (List.length fired)
      (if r.M.ok then "all clean" else "FAILURES");
    if r.M.ok then 0 else 2
  in
  Cmd.v (Cmd.info "monitor" ~doc)
    Term.(const run $ target_arg $ threads_arg $ mode $ rounds)

let quick_cmd =
  let doc =
    "CI gate: the planted bug must be found, minimized and replayable; \
     every other target must survive the same exploration and the \
     kill/stall monitor, and reach every label it lists."
  in
  let run () =
    let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; raise Exit) fmt in
    let covered t r =
      match missed t r with
      | [] -> ()
      | ls -> fail "%s: listed labels unreached: %s" t.T.name (String.concat " " ls)
    in
    try
      (* 1. The planted ABA bug: bounded-exhaustive exploration must
         find it, and the minimized schedule must still reproduce it.
         (The bug needs 3 preemptions: the victim parked at its pop CAS,
         plus two switches arranging the anchor back to its snapshot.) *)
      let notag = T.lf_alloc_notag and threads = 2 in
      let r = E.exhaustive notag ~threads ~bound:3 ~budget:20_000 in
      covered notag r;
      (match r.E.finding with
      | None -> fail "planted bug not found in %d executions" r.E.executions
      | Some f ->
          let tr = E.replay notag ~threads f.E.minimized in
          (match tr.E.outcome with
          | Ok () ->
              fail "minimized schedule %s does not replay"
                (S.to_string f.E.minimized)
          | Error _ -> ());
          Printf.printf
            "planted bug: found in %d executions, minimized to \"%s\" (%s)\n"
            r.E.executions
            (S.to_string f.E.minimized)
            f.E.error);
      (* 2. Every other target under the same exhaustive budget and the
         kill/stall monitor at every label (lf_alloc also under 10k PCT
         samples). No double-served block, page extent, descriptor or
         id: batched refill/flush (cached), push/claim/freeze across
         ownership handoffs (owner_biased), MallocFromPartial against
         frees to PARTIAL and EMPTY (partial), concurrent split/coalesce
         (buddy), reused slots with monotone tags (desc_pool_reuse). A
         thread killed in any window must only leak what it held. Each
         exploration must reach every label its target lists. *)
      let step (name, bound, pct) =
        let t = Option.get (T.find name) in
        let clean what (r : E.report) =
          match r.E.finding with
          | Some f ->
              fail "%s %s violation: %s (%s)" name what f.E.error
                (S.to_string f.E.minimized)
          | None -> r.E.executions
        in
        let r = E.exhaustive t ~threads ~bound ~budget:20_000 in
        let executions = clean "exhaustive" r in
        covered t r;
        let pct_note =
          if not pct then ""
          else
            Printf.sprintf "; pct %d executions"
              (clean "PCT" (E.pct t ~threads ~depth:3 ~runs:10_000 ~seed:1))
        in
        let m = M.run t ~threads ~modes:[ M.Kill; M.Stall ] ~rounds:2 in
        if not m.M.ok then begin
          List.iter
            (fun (e : M.entry) ->
              match e.M.result with
              | Error msg when e.M.fired ->
                  Printf.eprintf "monitor %s %s %s: %s\n" e.M.label
                    (M.mode_name e.M.mode) (M.source_name e.M.source) msg
              | _ -> ())
            m.M.entries;
          fail "%s lock-freedom monitor failed" name
        end;
        Printf.printf "%s: clean (%d executions%s%s; %d monitor probes)\n"
          name executions
          (if r.E.complete then ", complete" else "")
          pct_note (List.length m.M.entries)
      in
      List.iter step
        [ ("lf_alloc", 3, true); ("lf_alloc_cached", 3, false);
          ("lf_alloc_owner_biased", 3, false); ("lf_alloc_partial", 2, false);
          ("buddy", 3, false); ("ms_queue", 3, false); ("desc_pool", 3, false);
          ("desc_pool_reuse", 3, false); ("treiber_stack", 3, false);
          ("tagged_id_stack", 3, false) ];
      0
    with Exit -> 2
  in
  Cmd.v (Cmd.info "quick" ~doc) Term.(const run $ const ())

let () =
  let doc =
    "Systematic concurrency checking of the lock-free allocator and its \
     building blocks (schedule exploration, linearizability oracles, \
     lock-freedom monitor)."
  in
  let info = Cmd.info "check" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ list_cmd; explore_cmd; replay_cmd; monitor_cmd; quick_cmd ]))
