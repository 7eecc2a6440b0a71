(* The checking subsystem checked: the schedule codec round-trips,
   controlled runs replay deterministically, the explorer finds the
   planted tag-less-anchor ABA bug (exhaustively and with PCT), its
   minimized counterexample still reproduces, and the structures that
   are supposed to be correct come out of the same exploration clean. *)

module S = Mm_check.Schedule
module T = Mm_check.Target
module E = Mm_check.Explore
module M = Mm_check.Monitor
module O = Mm_check.Oracle
module As = Mm_core_sim.Lf_alloc
module Descr = Mm_core_sim.Descriptor
module Anchor = Mm_core.Anchor
module Sc = Mm_mem.Size_class
open Mm_runtime
open Util

let target name =
  match T.find name with
  | Some t -> t
  | None -> Alcotest.failf "unknown check target %s" name

let schedule_roundtrip () =
  let cases = [ ""; "7:2"; "3:1,6:0,18:1"; "0:0,1:1,2:2" ] in
  List.iter
    (fun s ->
      Alcotest.(check string) ("roundtrip " ^ s) s
        (S.to_string (S.of_string s)))
    cases;
  List.iter
    (fun bad ->
      match S.of_string bad with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted malformed schedule %S" bad)
    [ "x"; "1:2,1:3"; "5:1,3:0"; "1"; "-1:0" ]

let schedule_ops () =
  let s = S.add (S.add S.empty ~at:3 ~tid:1) ~at:7 ~tid:0 in
  Alcotest.(check int) "length" 2 (S.length s);
  Alcotest.(check int) "last_at" 7 (S.last_at s);
  Alcotest.(check (option int)) "find hit" (Some 1) (S.find s 3);
  Alcotest.(check (option int)) "find miss" None (S.find s 5);
  Alcotest.(check string) "remove" "7:0"
    (S.to_string (S.remove_nth s 0));
  match S.add s ~at:7 ~tid:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted non-increasing index"

let oracle_alloc () =
  let o = O.create_alloc () in
  O.malloc_returned o 0x10;
  (* Double allocation with no free in flight must trip. *)
  (match O.malloc_returned o 0x10 with
  | exception O.Violation _ -> ()
  | _ -> Alcotest.fail "double allocation accepted");
  (* An in-flight free legalizes one re-issue, and only one. *)
  let p = O.free_invoked o 0x10 in
  O.malloc_returned o 0x10;
  (match O.malloc_returned o 0x10 with
  | exception O.Violation _ -> ()
  | _ -> Alcotest.fail "second re-issue accepted");
  O.free_returned o p;
  (* The consumed free must NOT deallocate: address is live again. *)
  Alcotest.(check int) "live" 1 (O.live_count o);
  (* Free of a never-allocated address must trip. *)
  match O.free_invoked o 0x99 with
  | exception O.Violation _ -> ()
  | _ -> Alcotest.fail "free of non-live address accepted"

let oracle_fifo () =
  let o = O.create_fifo () in
  O.enqueued o ~tid:0 1;
  O.enqueued o ~tid:0 2;
  O.dequeued o ~producer:0 1;
  O.dequeued o ~producer:0 2;
  O.fifo_check o;
  let o = O.create_fifo () in
  O.enqueued o ~tid:0 1;
  O.enqueued o ~tid:0 2;
  O.dequeued o ~producer:0 2;
  O.dequeued o ~producer:0 1;
  match O.fifo_check o with
  | exception O.Violation _ -> ()
  | _ -> Alcotest.fail "out-of-order dequeue accepted"

let deterministic_replay () =
  let t = target "lf_alloc" in
  let tr1 = E.replay t ~threads:2 S.empty in
  let tr2 = E.replay t ~threads:2 S.empty in
  Alcotest.(check bool) "outcome ok" true (Result.is_ok tr1.E.outcome);
  Alcotest.(check int) "same length" (Array.length tr1.E.points)
    (Array.length tr2.E.points);
  Array.iteri
    (fun i (p : E.point) ->
      let q = tr2.E.points.(i) in
      if p.E.pt_chosen <> q.E.pt_chosen
         || p.E.pt_runnable <> q.E.pt_runnable
      then Alcotest.failf "runs diverge at decision point %d" i)
    tr1.E.points

let planted_bug_exhaustive () =
  let t = target "lf_alloc_notag" in
  let r = E.exhaustive t ~threads:2 ~bound:3 ~budget:5_000 in
  match r.E.finding with
  | None ->
      Alcotest.failf "planted ABA bug not found in %d executions"
        r.E.executions
  | Some f ->
      (* The minimized schedule still fails, replayably, and is minimal:
         dropping any single deviation makes the failure vanish. *)
      let m = f.E.minimized in
      Alcotest.(check bool) "minimized replays" true
        (Result.is_error (E.replay t ~threads:2 m).E.outcome);
      Alcotest.(check bool) "nonempty" true (S.length m > 0);
      for i = 0 to S.length m - 1 do
        let weaker = S.remove_nth m i in
        if Result.is_error (E.replay t ~threads:2 weaker).E.outcome then
          Alcotest.failf "minimized schedule %s is not 1-minimal"
            (S.to_string m)
      done

let planted_bug_pct () =
  let t = target "lf_alloc_notag" in
  let r = E.pct t ~threads:2 ~depth:4 ~runs:6_000 ~seed:3 in
  match r.E.finding with
  | None ->
      Alcotest.failf "PCT missed the planted bug in %d runs" r.E.executions
  | Some f ->
      Alcotest.(check bool) "pct counterexample replays" true
        (Result.is_error (E.replay t ~threads:2 f.E.minimized).E.outcome)

let real_allocator_clean () =
  let t = target "lf_alloc" in
  let r = E.exhaustive t ~threads:2 ~bound:2 ~budget:5_000 in
  Alcotest.(check bool) "complete" true r.E.complete;
  match r.E.finding with
  | None -> ()
  | Some f ->
      Alcotest.failf "violation in the real allocator: %s (%s)" f.E.error
        (S.to_string f.E.schedule)

let building_blocks_clean () =
  List.iter
    (fun name ->
      let t = target name in
      let r = E.exhaustive t ~threads:2 ~bound:2 ~budget:5_000 in
      Alcotest.(check bool) (name ^ " complete") true r.E.complete;
      match r.E.finding with
      | None -> ()
      | Some f -> Alcotest.failf "%s: %s" name f.E.error)
    [ "ms_queue"; "desc_pool"; "treiber_stack"; "tagged_id_stack" ]

(* Every registered label is reached by some target's exploration (so
   the kill/stall monitor can probe it), each target reaches every label
   it lists, and no registry entry is duplicated. mm-sa checks the
   registries statically (check label-registry); this is the runtime
   side of the same contract. *)
let never_reached =
  (* The MS queue has no label between its link CAS and its tail swing,
     so the controlled explorer can never preempt there and never sees
     a lagging tail. *)
  Mm_lockfree.Lf_labels.[ msq_enq_swing; msq_deq_help ]

let registries_reached () =
  let registered =
    Mm_core.Labels.all @ Mm_lockfree.Lf_labels.all @ Mm_pages.Pg_labels.all
  in
  let sorted = List.sort_uniq compare registered in
  Alcotest.(check int) "no duplicate registry entries"
    (List.length registered) (List.length sorted);
  let reached =
    List.concat_map
      (fun t ->
        let r = E.exhaustive t ~threads:2 ~bound:2 ~budget:6_000 in
        List.iter
          (fun l ->
            if not (List.mem l r.E.reached) then
              Alcotest.failf "%s lists %s but never reaches it" t.T.name l)
          t.T.labels;
        r.E.reached)
      T.all
  in
  Alcotest.(check (list string)) "explorations reach the registries"
    (List.filter (fun l -> not (List.mem l never_reached)) sorted)
    (List.sort_uniq compare reached)

(* Fig. 4 lets an EMPTY descriptor linger in a heap's Partial slot. On
   this schedule of lf_alloc_partial, thread 1's free moves a superblock
   FULL->PARTIAL and is preempted before heap_put_partial; thread 0
   frees the superblock's other blocks, and its red.slot_cas misses the
   slot, so the descriptor is not retired; thread 1 then puts the EMPTY
   descriptor in the slot. The first MallocFromPartial on that heap
   takes it, finds it EMPTY and retires it (Fig. 4 lines 5-6). *)
let empty_descriptor_in_partial_slot () =
  let heap = ref None and labels = ref [] in
  let instance s =
    let a = As.create s T.alloc_cfg in
    heap := Some (s, a);
    As.instance (Rt.simulated s) a
  in
  let target =
    {
      T.lf_alloc_partial with
      T.subject = T.allocator instance ~size:504 T.partial;
    }
  in
  let schedule = S.of_string "30:1,65:0" in
  let on_label ~tid:_ l =
    labels := l :: !labels;
    Sim.Continue
  in
  let tr =
    E.run_strategy target ~threads:2 ~on_label (fun sp idx ->
        Option.value (S.find schedule idx) ~default:(E.default_choice sp))
  in
  Alcotest.(check (result unit string)) "quiescent checks pass" (Ok ())
    tr.E.outcome;
  let s, a = Option.get !heap in
  let sc = Option.get (Sc.class_of_request (As.size_classes a) 504) in
  let d =
    match As.heap_partial_desc a ~sc ~heap:0 with
    | Some d -> d
    | None -> Alcotest.fail "no descriptor lingers in the Partial slot"
  in
  Alcotest.(check string) "the lingering descriptor is EMPTY" "EMPTY"
    (Anchor.state_to_string
       (Anchor.state (Sim_rt.Atomic.get d.Descr.anchor)));
  let refs_d = function
    | Some (x : Descr.t) -> x.Descr.id = d.Descr.id
    | None -> false
  in
  (* The heap's active superblock, all eight blocks free, serves the
     next eight mallocs; the ninth goes to MallocFromPartial. *)
  let mallocs = ref 0 in
  ignore
    (Sim.run s
       [|
         (fun _ ->
           while
             refs_d (As.heap_partial_desc a ~sc ~heap:0) && !mallocs < 16
           do
             labels := [];
             ignore (As.malloc a 504);
             incr mallocs
           done);
       |]);
  Alcotest.(check int) "mallocs until the slot is taken" 9 !mallocs;
  List.iter
    (fun l ->
      Alcotest.(check bool) ("the last malloc passed " ^ l) true
        (List.mem l !labels))
    Mm_core.Labels.[ hgp_slot_cas; mp_got_partial; desc_retire ];
  Alcotest.(check bool) "no longer in the slot" false
    (refs_d (As.heap_partial_desc a ~sc ~heap:0));
  Alcotest.(check bool) "not in the partial list" false
    (List.exists
       (fun x -> refs_d (Some x))
       (Mm_core_sim.Partial_list.to_list (As.partial_list a ~sc)));
  As.check_invariants a

let monitor_lock_freedom () =
  let t = target "lf_alloc" in
  let r = M.run t ~threads:2 ~modes:[ M.Kill; M.Stall ] ~rounds:2 in
  let fired = List.filter (fun e -> e.M.fired) r.M.entries in
  Alcotest.(check bool) "some labels reached" true (List.length fired > 0);
  List.iter
    (fun (e : M.entry) ->
      match e.M.result with
      | Ok () -> ()
      | Error msg ->
          Alcotest.failf "%s under %s (%s): %s" e.M.label
            (M.mode_name e.M.mode) (M.source_name e.M.source) msg)
    fired

(* A label the census rounds miss is probed on a witness schedule from
   the explorer, so every label a target lists gets a fired probe. *)
let monitor_covers_labels () =
  List.iter
    (fun name ->
      let t = target name in
      let r = M.run t ~threads:2 ~modes:[ M.Kill ] ~rounds:2 in
      Alcotest.(check bool) (name ^ " clean") true r.M.ok;
      List.iter
        (fun l ->
          if not (List.exists (fun e -> e.M.fired && e.M.label = l) r.M.entries)
          then Alcotest.failf "%s: no probe fired at %s" name l)
        t.T.labels)
    [ "lf_alloc"; "lf_alloc_owner_biased" ]

let cases =
  [
    case "schedule string roundtrip" schedule_roundtrip;
    case "schedule operations" schedule_ops;
    case "alloc oracle rules" oracle_alloc;
    case "fifo oracle rules" oracle_fifo;
    case "controlled runs replay deterministically" deterministic_replay;
    case "explorer finds the planted ABA bug" planted_bug_exhaustive;
    case "PCT finds the planted ABA bug" planted_bug_pct;
    case "real allocator survives exploration" real_allocator_clean;
    case "queue, pool and stacks survive exploration"
      building_blocks_clean;
    case "label registries match check targets" registries_reached;
    case "an EMPTY descriptor in a Partial slot is retired by the next malloc"
      empty_descriptor_in_partial_slot;
    case "kill/stall monitor: survivors complete" monitor_lock_freedom;
    case "monitor probes every listed label" monitor_covers_labels;
  ]
