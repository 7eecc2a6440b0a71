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

let find_target name =
  match T.find name with
  | Some t -> Ok t
  | None ->
      Error
        (Printf.sprintf "unknown target %s (see `check list')" name)

let resolve_threads target = function 0 -> target.T.default_threads | n -> n

let print_report target threads (r : E.report) =
  Printf.printf "target %s, %d threads: %d execution%s, %d decision points%s\n"
    target.T.name threads r.E.executions
    (if r.E.executions = 1 then "" else "s")
    r.E.decision_points
    (if r.E.complete then ", complete" else "");
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
    value & opt int 0
    & info [ "threads" ] ~docv:"N"
        ~doc:"Thread count (default: the target's own default).")

let list_cmd =
  let doc = "List the checkable targets." in
  let run () =
    List.iter
      (fun t ->
        Printf.printf "%-16s %d threads, %2d labels  %s\n" t.T.name
          t.T.default_threads
          (List.length t.T.labels)
          t.T.doc)
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
    match find_target target with
    | Error e ->
        prerr_endline e;
        1
    | Ok t ->
        let threads = resolve_threads t threads in
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
    match find_target target with
    | Error e ->
        prerr_endline e;
        1
    | Ok t -> (
        match S.of_string schedule with
        | exception Invalid_argument e ->
            prerr_endline e;
            1
        | sched -> (
            let threads = resolve_threads t threads in
            let tr = E.replay t ~threads sched in
            match tr.E.outcome with
            | Ok () ->
                Printf.printf "ok (%d decision points)\n"
                  (Array.length tr.E.points);
                0
            | Error e ->
                Printf.printf "VIOLATION: %s\n" e;
                2))
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
                random ones.")
  in
  let run target threads modes rounds =
    match find_target target with
    | Error e ->
        prerr_endline e;
        1
    | Ok t ->
        let threads = resolve_threads t threads in
        let r = M.run t ~threads ~modes ~rounds in
        let fired, silent =
          List.partition (fun e -> e.M.fired) r.M.entries
        in
        List.iter
          (fun (e : M.entry) ->
            match e.M.result with
            | Ok () -> ()
            | Error msg ->
                Printf.printf "FAIL %s %s round %d: %s\n" e.M.label
                  (M.mode_name e.M.mode) e.M.round msg)
          fired;
        let unreached =
          List.sort_uniq compare (List.map (fun e -> e.M.label) silent)
        in
        List.iter
          (fun l ->
            if not (List.exists (fun e -> e.M.label = l) fired) then
              Printf.printf "note: label %s not reached by this workload\n" l)
          unreached;
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
     the real allocator must survive the same exploration and the \
     kill/stall monitor."
  in
  let run () =
    let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; raise Exit) fmt in
    try
      (* 1. The planted ABA bug: bounded-exhaustive exploration must
         find it, and the minimized schedule must still reproduce it.
         (The bug needs 3 preemptions: the victim parked at its pop CAS,
         plus two switches arranging the anchor back to its snapshot.) *)
      let notag = Option.get (T.find "lf_alloc_notag") in
      let threads = notag.T.default_threads in
      let r = E.exhaustive notag ~threads ~bound:3 ~budget:20_000 in
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
      (* 2. The real allocator under the same exhaustive budget... *)
      let real = Option.get (T.find "lf_alloc") in
      let r = E.exhaustive real ~threads ~bound:3 ~budget:20_000 in
      (match r.E.finding with
      | Some f -> fail "lf_alloc violation: %s (%s)" f.E.error
                    (S.to_string f.E.minimized)
      | None ->
          Printf.printf "lf_alloc exhaustive: clean (%d executions%s)\n"
            r.E.executions
            (if r.E.complete then ", complete" else ""));
      (* 3. ...and under 10k PCT samples. *)
      let r = E.pct real ~threads ~depth:3 ~runs:10_000 ~seed:1 in
      (match r.E.finding with
      | Some f -> fail "lf_alloc PCT violation: %s (%s)" f.E.error
                    (S.to_string f.E.minimized)
      | None ->
          Printf.printf "lf_alloc pct: clean (%d executions)\n"
            r.E.executions);
      (* 4. Kill/stall monitor over every allocator label. *)
      let m = M.run real ~threads ~modes:[ M.Kill; M.Stall ] ~rounds:2 in
      if not m.M.ok then begin
        List.iter
          (fun (e : M.entry) ->
            match e.M.result with
            | Error msg when e.M.fired ->
                Printf.eprintf "monitor %s %s round %d: %s\n" e.M.label
                  (M.mode_name e.M.mode) e.M.round msg
            | _ -> ())
          m.M.entries;
        fail "lock-freedom monitor failed"
      end;
      Printf.printf "monitor: %d probes clean\n" (List.length m.M.entries);
      (* 5. The block-cache frontend under the same exhaustive budget
         and kill/stall monitor: batched refill/flush must preserve
         address exclusivity, and a thread killed mid-refill/flush must
         only leak its cached blocks, never double-allocate them. *)
      let cached = Option.get (T.find "lf_alloc_cached") in
      let r = E.exhaustive cached ~threads ~bound:3 ~budget:20_000 in
      (match r.E.finding with
      | Some f ->
          fail "lf_alloc_cached violation: %s (%s)" f.E.error
            (S.to_string f.E.minimized)
      | None ->
          Printf.printf "lf_alloc_cached exhaustive: clean (%d executions%s)\n"
            r.E.executions
            (if r.E.complete then ", complete" else ""));
      let m = M.run cached ~threads ~modes:[ M.Kill; M.Stall ] ~rounds:2 in
      if not m.M.ok then begin
        List.iter
          (fun (e : M.entry) ->
            match e.M.result with
            | Error msg when e.M.fired ->
                Printf.eprintf "monitor %s %s round %d: %s\n" e.M.label
                  (M.mode_name e.M.mode) e.M.round msg
            | _ -> ())
          m.M.entries;
        fail "cached-frontend lock-freedom monitor failed"
      end;
      Printf.printf "cached monitor: %d probes clean\n"
        (List.length m.M.entries);
      (* 6. The owner-biased free-list mode under the same exhaustive
         budget and kill/stall monitor: the push, claim and freeze
         windows (pub.push, pub.claim, ob.freeze, free.cas) must
         preserve address exclusivity across ownership handoffs and
         frees racing an acquirer, and a thread killed mid-push/claim
         must only leak its chain, never double-serve a block. *)
      let ob = Option.get (T.find "lf_alloc_owner_biased") in
      let r = E.exhaustive ob ~threads ~bound:3 ~budget:20_000 in
      (match r.E.finding with
      | Some f ->
          fail "lf_alloc_owner_biased violation: %s (%s)" f.E.error
            (S.to_string f.E.minimized)
      | None ->
          Printf.printf
            "lf_alloc_owner_biased exhaustive: clean (%d executions%s)\n"
            r.E.executions
            (if r.E.complete then ", complete" else ""));
      let m = M.run ob ~threads ~modes:[ M.Kill; M.Stall ] ~rounds:2 in
      if not m.M.ok then begin
        List.iter
          (fun (e : M.entry) ->
            match e.M.result with
            | Error msg when e.M.fired ->
                Printf.eprintf "monitor %s %s round %d: %s\n" e.M.label
                  (M.mode_name e.M.mode) e.M.round msg
            | _ -> ())
          m.M.entries;
        fail "owner-biased lock-freedom monitor failed"
      end;
      Printf.printf "owner-biased monitor: %d probes clean\n"
        (List.length m.M.entries);
      (* 7. The page manager's buddy backend under the same exhaustive
         budget and kill/stall monitor: concurrent split/coalesce must
         never hand out overlapping page extents, and a thread killed
         inside any buddy.*/span.reserve window must only strand its
         own extent, never corrupt the tree for the survivors. *)
      let buddy = Option.get (T.find "buddy") in
      let r = E.exhaustive buddy ~threads ~bound:3 ~budget:20_000 in
      (match r.E.finding with
      | Some f ->
          fail "buddy violation: %s (%s)" f.E.error
            (S.to_string f.E.minimized)
      | None ->
          Printf.printf "buddy exhaustive: clean (%d executions%s)\n"
            r.E.executions
            (if r.E.complete then ", complete" else ""));
      let m = M.run buddy ~threads ~modes:[ M.Kill; M.Stall ] ~rounds:2 in
      if not m.M.ok then begin
        List.iter
          (fun (e : M.entry) ->
            match e.M.result with
            | Error msg when e.M.fired ->
                Printf.eprintf "monitor %s %s round %d: %s\n" e.M.label
                  (M.mode_name e.M.mode) e.M.round msg
            | _ -> ())
          m.M.entries;
        fail "buddy lock-freedom monitor failed"
      end;
      Printf.printf "buddy monitor: %d probes clean\n"
        (List.length m.M.entries);
      (* 8. The reuse-in-place descriptor pool (DESIGN.md §17) under the
         same exhaustive budget and kill/stall monitor: the spill/steal
         hand-off (desc.spill, desc.steal) must keep reused slots
         exclusively owned with monotonically increasing tags, and a
         thread killed mid-hand-off must only leak its own chain. *)
      let reuse = Option.get (T.find "desc_pool_reuse") in
      let r = E.exhaustive reuse ~threads ~bound:3 ~budget:20_000 in
      (match r.E.finding with
      | Some f ->
          fail "desc_pool_reuse violation: %s (%s)" f.E.error
            (S.to_string f.E.minimized)
      | None ->
          Printf.printf "desc_pool_reuse exhaustive: clean (%d executions%s)\n"
            r.E.executions
            (if r.E.complete then ", complete" else ""));
      let m = M.run reuse ~threads ~modes:[ M.Kill; M.Stall ] ~rounds:2 in
      if not m.M.ok then begin
        List.iter
          (fun (e : M.entry) ->
            match e.M.result with
            | Error msg when e.M.fired ->
                Printf.eprintf "monitor %s %s round %d: %s\n" e.M.label
                  (M.mode_name e.M.mode) e.M.round msg
            | _ -> ())
          m.M.entries;
        fail "reuse-pool lock-freedom monitor failed"
      end;
      Printf.printf "desc_pool_reuse monitor: %d probes clean\n"
        (List.length m.M.entries);
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
