open Mm_runtime

type mode = Kill | Stall
type source = Round of int | Witness of Schedule.t

type entry = {
  label : string;
  mode : mode;
  source : source;
  fired : bool;
  result : (unit, string) result;
}

type report = { entries : entry list; ok : bool }

let mode_name = function Kill -> "kill" | Stall -> "stall"

let source_name = function
  | Round r -> Printf.sprintf "round %d" r
  | Witness s -> Printf.sprintf "schedule \"%s\"" (Schedule.to_string s)

let run_with target ~threads ~on_label ~notify_done ~quiescent_checks
    strategy =
  (Explore.run_strategy target ~threads ~on_label ~notify_done
     ~quiescent_checks strategy)
    .Explore.outcome

(* Round 0 uses the default schedule; later rounds a seeded uniformly
   random one, a fresh generator per run. A witness replays its
   schedule. *)
let strategy = function
  | Witness s -> Explore.follow s
  | Round round ->
      let rng = Prng.create ((round * 6361) + 1) in
      fun (sp : Sim.sched_point) _idx ->
        if round = 0 then Explore.default_choice sp
        else
          List.nth sp.Sim.sp_runnable
            (Prng.int rng (List.length sp.Sim.sp_runnable))

(* One run: the first thread to reach [label] is killed, or stalled
   until every other thread has completed its whole workload (the
   paper's availability claim: no thread's progress may depend on
   another's — a stalled run that deadlocks, or a kill run whose
   survivors never finish, falsifies it). Varying the round's schedule
   leaves the victim's partial state behind under varied
   interleavings. *)
let probe (target : Target.t) ~threads ~label ~mode ~source =
  let fired = ref false in
  let victim = ref (-1) in
  let finished = Array.make threads false in
  let others_done () =
    let ok = ref true in
    Array.iteri
      (fun i f -> if i <> !victim && not f then ok := false)
      finished;
    !ok
  in
  let on_label ~tid l =
    if l = label && not !fired then begin
      fired := true;
      victim := tid;
      match mode with
      | Kill -> Sim.Kill
      | Stall -> Sim.Block_until others_done
    end
    else Sim.Continue
  in
  let notify_done tid = finished.(tid) <- true in
  let result =
    run_with target ~threads ~on_label ~notify_done
      ~quiescent_checks:(mode <> Kill) (strategy source)
  in
  { label; mode; source; fired = !fired; result }

(* The labels round [round] reaches: one run of the round's schedule
   with no fault injected. A probe's [on_label] answers [Continue] until
   the first thread reaches its label, so up to that point the probe
   runs exactly this schedule: it fires iff the census saw the label.
   The census keeps the quiescent checks, so it sees a superset of what
   any probe would reach before its fault. *)
let census (target : Target.t) ~threads ~round =
  let seen = Hashtbl.create 64 in
  let on_label ~tid:_ l =
    Hashtbl.replace seen l ();
    Sim.Continue
  in
  ignore
    (run_with target ~threads ~on_label ~notify_done:ignore
       ~quiescent_checks:true (strategy (Round round))
      : (unit, string) result);
  Hashtbl.mem seen

(* A label no round reaches is probed on the first schedule of a
   bounded-exhaustive search that reaches it, at the bound and budget of
   [check quick]'s explorations; the search stops once every such label
   has one. Up to the fault the probe runs that schedule, so it fires. *)
let witness_bound = 3
let witness_budget = 20_000

let run (target : Target.t) ~threads ~modes ~rounds =
  let reached = Array.init rounds (fun round -> census target ~threads ~round) in
  let missed =
    List.filter
      (fun l -> not (Array.exists (fun r -> r l) reached))
      target.Target.labels
  in
  let witness =
    Explore.witnesses target ~threads ~bound:witness_bound
      ~budget:witness_budget missed
  in
  let entries = ref [] in
  List.iter
    (fun label ->
      List.iter
        (fun mode ->
          for round = 0 to rounds - 1 do
            let source = Round round in
            let e =
              if reached.(round) label then
                probe target ~threads ~label ~mode ~source
              else { label; mode; source; fired = false; result = Ok () }
            in
            entries := e :: !entries
          done;
          Option.iter
            (fun s ->
              entries :=
                probe target ~threads ~label ~mode ~source:(Witness s)
                :: !entries)
            (List.assoc_opt label witness))
        modes)
    target.Target.labels;
  let entries = List.rev !entries in
  let ok =
    List.for_all (fun e -> (not e.fired) || Result.is_ok e.result) entries
  in
  { entries; ok }
