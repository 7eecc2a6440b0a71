open Mm_runtime

type mode = Kill | Stall

type entry = {
  label : string;
  mode : mode;
  round : int;
  fired : bool;
  result : (unit, string) result;
}

type report = { entries : entry list; ok : bool }

let mode_name = function Kill -> "kill" | Stall -> "stall"

let run_with target ~threads ~on_label ~notify_done ~quiescent_checks
    strategy =
  (Explore.run_strategy target ~threads ~on_label ~notify_done
     ~quiescent_checks strategy)
    .Explore.outcome

(* Round 0 uses the default schedule; later rounds a seeded uniformly
   random one, a fresh generator per run. *)
let strategy ~round =
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
let probe (target : Target.t) ~threads ~label ~mode ~round =
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
      ~quiescent_checks:(mode <> Kill) (strategy ~round)
  in
  { label; mode; round; fired = !fired; result }

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
       ~quiescent_checks:true (strategy ~round)
      : (unit, string) result);
  Hashtbl.mem seen

let run (target : Target.t) ~threads ~modes ~rounds =
  let reached = Array.init rounds (fun round -> census target ~threads ~round) in
  let entries = ref [] in
  List.iter
    (fun label ->
      List.iter
        (fun mode ->
          for round = 0 to rounds - 1 do
            let e =
              if reached.(round) label then
                probe target ~threads ~label ~mode ~round
              else { label; mode; round; fired = false; result = Ok () }
            in
            entries := e :: !entries
          done)
        modes)
    target.Target.labels;
  let entries = List.rev !entries in
  let ok =
    List.for_all (fun e -> (not e.fired) || Result.is_ok e.result) entries
  in
  { entries; ok }
