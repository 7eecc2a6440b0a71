(* The runtime selector and the backend it hands out: every case runs
   on the module [Rt.backend] returns, so the selection itself is under
   test alongside each backend's semantics. *)

open Mm_runtime
open Util

(* [f] gets the backend selected for [rt]; the harness first checks
   that it is the one [rt] names. *)
let on rt f =
  let (Rt.Backend ((module R), _) as b) = Rt.backend rt in
  Alcotest.(check string) "backend name" (Rt.name rt) R.name;
  Alcotest.(check bool) "backend is_sim" (Rt.is_sim rt) R.is_sim;
  Alcotest.(check bool) "backend controllable" (Rt.controllable rt)
    R.controllable;
  f b

let both name f =
  [
    case (name ^ " (real)") (fun () -> on Rt.real f);
    case (name ^ " (sim)") (fun () ->
        let s = sim () in
        (* Exercise the function inside a run so sim steps are legal. *)
        ignore (Sim.run s [| (fun _ -> on (Rt.simulated s) f) |]));
  ]

let atomic_semantics (Rt.Backend ((module R), rt)) =
  let a = R.Atomic.make rt 10 in
  Alcotest.(check int) "get" 10 (R.Atomic.get a);
  R.Atomic.set a 42;
  Alcotest.(check int) "set" 42 (R.Atomic.get a);
  Alcotest.(check bool) "cas success" true (R.Atomic.compare_and_set a 42 43);
  Alcotest.(check bool) "cas failure" false (R.Atomic.compare_and_set a 42 44);
  Alcotest.(check int) "cas result" 43 (R.Atomic.get a);
  Alcotest.(check int) "faa returns old" 43 (R.Atomic.fetch_and_add a 7);
  Alcotest.(check int) "faa applied" 50 (R.Atomic.get a);
  R.Atomic.incr a;
  Alcotest.(check int) "incr" 51 (R.Atomic.get a)

let atomic_boxed (Rt.Backend ((module R), rt)) =
  (* CAS on boxed values uses physical identity. *)
  let x = ref 1 and y = ref 2 in
  let a = R.Atomic.make rt x in
  Alcotest.(check bool) "physical cas ok" true (R.Atomic.compare_and_set a x y);
  Alcotest.(check bool) "stale cas fails" false
    (R.Atomic.compare_and_set a x y)

let word_access (Rt.Backend ((module R), rt)) =
  let b = Bytes.make 64 '\000' in
  R.write_word rt b 8 ~line:1 123456;
  Alcotest.(check int) "word roundtrip" 123456 (R.read_word rt b 8 ~line:1);
  R.write_word rt b 8 ~line:1 (-1);
  Alcotest.(check bool) "negative words truncate to 64-bit" true
    (R.read_word rt b 8 ~line:1 <> 0)

let control_noops (Rt.Backend ((module R), rt)) =
  R.fence rt;
  R.cpu_relax rt;
  R.work rt 100;
  R.yield rt;
  R.syscall rt;
  R.touch rt ~line:5 ~write:true;
  R.touch_batch rt ~line:5 ~write:false ~count:10;
  R.label rt "anything"

let fresh_lines () =
  let a = Rt.fresh_line () and b = Rt.fresh_line () in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check bool) "negative (never a memory line)" true (a < 0 && b < 0)

let real_parallel_ids () =
  let (Rt.Backend ((module R), rt)) = Rt.backend Rt.real in
  let n = 8 in
  let ids = Array.make n (-1) in
  ignore
    (R.parallel_run rt
       (Array.init n (fun i -> fun arg ->
            ids.(i) <- R.self rt;
            assert (arg = i))));
  Array.iteri (fun i v -> Alcotest.(check int) "dense id" i v) ids

(* [Real_rt.self] reads the domain's DLS array inline (DESIGN.md §18);
   it must agree with [Domain.DLS.get], its slow path, wherever it runs,
   and the ids of domains alive together must be distinct. *)
let fast_and_slow_self () = (Real_rt.self (), Domain.DLS.get Rt_base.dls_self)

let fast_self_matches_slow_path () =
  Alcotest.(check bool) "the DLS layout probe passed" true
    (Rt_base.dls_index < max_int);
  let agree what (fast, slow) =
    Alcotest.(check int) (what ^ ": inlined self = DLS.get") slow fast;
    fast
  in
  let main_id = agree "main domain" (fast_and_slow_self ()) in
  (* Plain domains, each holding its id until all have read theirs. *)
  let n = 3 in
  let arrived = Atomic.make 0 in
  let plain () =
    let first = fast_and_slow_self () in
    Atomic.incr arrived;
    while Atomic.get arrived < n do
      Domain.cpu_relax ()
    done;
    (first, fast_and_slow_self ())
  in
  let ids =
    List.init n (fun _ -> Domain.spawn plain)
    |> List.map Domain.join
    |> List.map (fun (first, again) ->
           let id = agree "plain domain" first in
           Alcotest.(check int) "plain domain: same id again" id
             (agree "plain domain, again" again);
           id)
  in
  Alcotest.(check int) "distinct among live domains" (n + 1)
    (List.length (List.sort_uniq compare (main_id :: ids)));
  Alcotest.(check bool) "below max_threads" true
    (List.for_all (fun id -> id >= 0 && id < Rt.max_threads) ids);
  let k = 4 in
  let seen = Array.make k (0, 0) in
  ignore
    (Real_rt.parallel_run ()
       (Array.init k (fun i _ -> seen.(i) <- fast_and_slow_self ())));
  Array.iteri
    (fun i p -> Alcotest.(check int) "run worker: dense id" i (agree "run worker" p))
    seen;
  Alcotest.(check int) "main domain keeps its id" main_id
    (agree "main domain, after" (fast_and_slow_self ()))

(* A domain claims the lowest free id and gives it back at exit; with
   every id held the claim raises instead of sharing one. Filled here
   without starting a domain per id. *)
let registry_claims () =
  let main_id = Real_rt.self () in
  let child () = Real_rt.self () in
  let a = Domain.join (Domain.spawn child) in
  let b = Domain.join (Domain.spawn child) in
  Alcotest.(check int) "an exited domain's id is free again" a b;
  Alcotest.(check bool) "not the main domain's" true (a <> main_id);
  let taken =
    List.filter Rt_base.try_claim (List.init Rt.max_threads Fun.id)
  in
  let full =
    match Rt_base.claim_lowest () with
    | _ -> false
    | exception Failure _ -> true
  in
  List.iter (fun id -> Atomic.set Rt_base.claims.(id) false) taken;
  Alcotest.(check bool) "claim past max_threads raises" true full;
  Alcotest.(check int) "claimable again" a (Domain.join (Domain.spawn child))

let real_parallel_exn () =
  Alcotest.check_raises "exception propagates" Exit (fun () ->
      ignore
        (Rt.parallel_run Rt.real [| (fun _ -> ()); (fun _ -> raise Exit) |]))

let parallel_too_many () =
  Alcotest.(check bool) "max_threads guard" true
    (match
       Rt.parallel_run Rt.real
         (Array.make (Rt.max_threads + 1) (fun _ -> ()))
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let atomics_usable_outside_sim () =
  (* Setup/teardown code runs outside Sim.run; atomics must not perform
     effects there. *)
  let (Rt.Backend ((module R), rt)) = Rt.backend (Rt.simulated (sim ())) in
  let a = R.Atomic.make rt 5 in
  R.Atomic.set a 6;
  Alcotest.(check int) "outside-run access" 6 (R.Atomic.get a);
  R.fence rt;
  R.work rt 10;
  Alcotest.(check int) "self outside run" 0 (R.self rt)

let now_monotone_real () =
  let (Rt.Backend ((module R), rt)) = Rt.backend Rt.real in
  let t0 = R.now rt in
  R.work rt 100_000;
  Alcotest.(check bool) "wall clock advances" true (R.now rt >= t0)

let now_virtual_sim () =
  let s = sim () in
  let (Rt.Backend ((module R), rt)) = Rt.backend (Rt.simulated s) in
  let observed = ref 0.0 in
  ignore
    (Sim.run s
       [|
         (fun _ ->
           R.work rt 1_000_000;
           observed := R.now rt);
       |]);
  Alcotest.(check bool) "virtual seconds from cycles" true
    (!observed >= 1_000_000.0 /. Cost.default.Cost.cycles_per_sec)

let real_label_hook () =
  let (Rt.Backend ((module R), rt)) = Rt.backend Rt.real in
  let hits = ref [] in
  Rt.real_label_hook := (fun l -> hits := l :: !hits);
  R.label rt "x";
  R.label rt "y";
  Rt.real_label_hook := (fun _ -> ());
  Alcotest.(check (list string)) "hook called" [ "y"; "x" ] !hits

let run_result_elapsed () =
  let r = Rt.parallel_run Rt.real [| (fun _ -> Real_rt.work () 1000) |] in
  Alcotest.(check bool) "elapsed non-negative" true (r.Rt.elapsed >= 0.0);
  Alcotest.(check bool) "no sim result on real" true (r.Rt.sim_result = None)

let cases =
  both "atomic semantics" atomic_semantics
  @ both "atomic boxed identity" atomic_boxed
  @ both "word access" word_access
  @ both "control operations" control_noops
  @ [
      case "fresh lines" fresh_lines;
      case "real parallel dense ids" real_parallel_ids;
      case "inlined self = DLS.get on every kind of domain"
        fast_self_matches_slow_path;
      case "id registry: lowest free, released at exit, full raises"
        registry_claims;
      case "real parallel exception" real_parallel_exn;
      case "too many threads rejected" parallel_too_many;
      case "sim atomics usable outside run" atomics_usable_outside_sim;
      case "real clock" now_monotone_real;
      case "sim virtual clock" now_virtual_sim;
      case "real label hook" real_label_hook;
      case "run result fields" run_result_elapsed;
    ]
