open Mm_runtime

type point = {
  pt_runnable : int list;
  pt_current : int;
  pt_default : int;
  pt_chosen : int;
  pt_label : string option;
}

type trace = { points : point array; outcome : (unit, string) result }

type finding = {
  schedule : Schedule.t;
  minimized : Schedule.t;
  error : string;
}

type report = {
  executions : int;
  decision_points : int;
  complete : bool;
  finding : finding option;
  reached : string list;
}

(* The default policy the deviation representation is relative to: keep
   running the current thread; when it cannot continue, the smallest
   runnable tid. It never preempts, so a schedule's preemption count is
   exactly its number of preemptive deviations. *)
let default_choice (sp : Sim.sched_point) =
  if List.mem sp.Sim.sp_current sp.Sim.sp_runnable then sp.Sim.sp_current
  else List.hd sp.Sim.sp_runnable

let run_strategy (target : Target.t) ~threads ?on_label ?notify_done
    ?quiescent_checks strategy =
  let points = ref [] in
  let idx = ref 0 in
  let sched sp =
    let d = default_choice sp in
    let c = strategy sp !idx in
    let chosen = if List.mem c sp.Sim.sp_runnable then c else d in
    points :=
      {
        pt_runnable = sp.Sim.sp_runnable;
        pt_current = sp.Sim.sp_current;
        pt_default = d;
        pt_chosen = chosen;
        pt_label = sp.Sim.sp_label;
      }
      :: !points;
    incr idx;
    chosen
  in
  let outcome =
    Target.run target ~threads ?on_label ?notify_done ?quiescent_checks ~sched
      ()
  in
  { points = Array.of_list (List.rev !points); outcome }

let follow schedule (sp : Sim.sched_point) idx =
  match Schedule.find schedule idx with
  | Some tid when List.mem tid sp.Sim.sp_runnable -> tid
  | _ -> default_choice sp

let replay target ~threads schedule =
  run_strategy target ~threads (follow schedule)

let schedule_of_trace tr =
  let s = ref Schedule.empty in
  Array.iteri
    (fun i p ->
      if p.pt_chosen <> p.pt_default then
        s := Schedule.add !s ~at:i ~tid:p.pt_chosen)
    tr.points;
  !s

(* The labels a run stopped at, gathered across an exploration's runs. *)
let reach seen tr =
  Array.iter
    (fun p -> Option.iter (fun l -> Hashtbl.replace seen l ()) p.pt_label)
    tr.points

let sorted seen = List.sort compare (List.of_seq (Hashtbl.to_seq_keys seen))

(* Greedy ddmin: repeatedly drop any single deviation whose removal
   preserves the failure, until none can be dropped. Counterexamples here
   have a handful of deviations, so the quadratic number of replays is
   cheap and the result is 1-minimal. *)
let shrink target ~threads s0 =
  let fails s = Result.is_error (replay target ~threads s).outcome in
  if not (fails s0) then s0
  else
    let rec fixpoint s =
      let n = Schedule.length s in
      let rec try_drop i =
        if i >= n then s
        else
          let cand = Schedule.remove_nth s i in
          if fails cand then fixpoint cand else try_drop (i + 1)
      in
      try_drop 0
    in
    fixpoint s0

let found target ~threads schedule error =
  Some { schedule; minimized = shrink target ~threads schedule; error }

(* A deviation choosing [tid] at point [p] is preemptive iff the current
   thread could have continued and was not chosen. Deviations at forks
   the default policy must resolve anyway (current finished, blocked or
   killed) are free: they pick a different branch, they do not preempt. *)
let preemptive p ~tid =
  List.mem p.pt_current p.pt_runnable && tid <> p.pt_current

(* Iterative-deepening-free bounded exhaustive search, enumerated BFS so
   simpler schedules run first. Children of a schedule branch only at
   decision points strictly after its last deviation: every deviation set
   is generated exactly once, from the schedule holding its prefix.
   [visit s tr] sees each run and answers whether to stop; a failing run
   is not expanded. Returns the executions, the default run's length and
   whether the budget cut the search short. *)
let bfs target ~threads ~bound ~budget ~visit =
  let q = Queue.create () in
  Queue.push (Schedule.empty, 0) q;
  let executions = ref 0 in
  let truncated = ref false in
  let dpoints = ref 0 in
  (try
     while not (Queue.is_empty q) do
       let s, preempts = Queue.pop q in
       if !executions >= budget then begin
         truncated := true;
         raise Exit
       end;
       incr executions;
       let tr = replay target ~threads s in
       if !executions = 1 then dpoints := Array.length tr.points;
       if visit s tr then raise Exit;
       if Result.is_ok tr.outcome then
         for i = Schedule.last_at s + 1 to Array.length tr.points - 1 do
           let p = tr.points.(i) in
           List.iter
             (fun tid ->
               if tid <> p.pt_chosen then
                 let pre = preempts + if preemptive p ~tid then 1 else 0 in
                 if pre <= bound then begin
                   (* Cap the frontier too, so a huge schedule space
                      cannot exhaust memory before the budget trips. *)
                   if Queue.length q + !executions < budget then
                     Queue.push (Schedule.add s ~at:i ~tid, pre) q
                   else truncated := true
                 end)
             p.pt_runnable
         done
     done
   with Exit -> ());
  (!executions, !dpoints, !truncated)

let exhaustive target ~threads ~bound ~budget =
  let finding = ref None in
  let seen = Hashtbl.create 32 in
  let executions, decision_points, truncated =
    bfs target ~threads ~bound ~budget ~visit:(fun s tr ->
        reach seen tr;
        match tr.outcome with
        | Error e ->
            finding := found target ~threads s e;
            true
        | Ok () -> false)
  in
  {
    executions;
    decision_points;
    complete = !finding = None && not truncated;
    finding = !finding;
    reached = sorted seen;
  }

let witnesses target ~threads ~bound ~budget labels =
  let first = Hashtbl.create 8 in
  let missing () = List.exists (fun l -> not (Hashtbl.mem first l)) labels in
  if labels <> [] then
    ignore
      (bfs target ~threads ~bound ~budget ~visit:(fun s tr ->
           Array.iter
             (fun p ->
               match p.pt_label with
               | Some l when List.mem l labels && not (Hashtbl.mem first l) ->
                   Hashtbl.add first l s
               | _ -> ())
             tr.points;
           not (missing ())));
  List.filter_map
    (fun l -> Option.map (fun s -> (l, s)) (Hashtbl.find_opt first l))
    labels

(* PCT (Burckhardt et al., ASPLOS 2010): random thread priorities plus
   [depth - 1] random priority-demotion points; always run the
   highest-priority runnable thread. Detects any bug of preemption depth
   <= depth with probability >= 1/(n * k^(depth-1)) per run. Each run's
   choices are re-expressed as deviations from the default policy, so
   PCT counterexamples replay and shrink exactly like exhaustive ones. *)
let pct target ~threads ~depth ~runs ~seed =
  if depth < 1 then invalid_arg "Explore.pct: depth must be >= 1";
  let base = replay target ~threads Schedule.empty in
  let k = max 1 (Array.length base.points) in
  let seen = Hashtbl.create 32 in
  reach seen base;
  match base.outcome with
  | Error e ->
      {
        executions = 1;
        decision_points = k;
        complete = false;
        finding = found target ~threads Schedule.empty e;
        reached = sorted seen;
      }
  | Ok () ->
      let executions = ref 1 in
      let finding = ref None in
      (try
         for r = 1 to runs do
           let rng = Prng.create (seed + (r * 7919)) in
           let prio = Array.init threads (fun i -> i) in
           Prng.shuffle rng prio;
           let changes =
             Array.init (depth - 1) (fun _ -> Prng.int rng (2 * k))
           in
           let floor = ref (-1) in
           let best_of runnable =
             match runnable with
             | [] -> assert false
             | tid :: rest ->
                 List.fold_left
                   (fun b t -> if prio.(t) > prio.(b) then t else b)
                   tid rest
           in
           let strategy (sp : Sim.sched_point) idx =
             if Array.exists (( = ) idx) changes then begin
               prio.(best_of sp.Sim.sp_runnable) <- !floor;
               decr floor
             end;
             best_of sp.Sim.sp_runnable
           in
           let tr = run_strategy target ~threads strategy in
           reach seen tr;
           incr executions;
           match tr.outcome with
           | Error e ->
               finding :=
                 found target ~threads (schedule_of_trace tr) e;
               raise Exit
           | Ok () -> ()
         done
       with Exit -> ());
      {
        executions = !executions;
        decision_points = k;
        complete = !finding = None;
        finding = !finding;
        reached = sorted seen;
      }
