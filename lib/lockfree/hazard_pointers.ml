type 'a t = {
  rt : Rt.t;
  k : int;
  scan_threshold : int;
  reuse : 'a -> unit;
  hp : 'a option Rt.atomic array;  (* Rt.max_threads * k slots *)
  retired : 'a list array;  (* private per-thread retirement lists *)
  retired_len : int array;
}

let create ?(k = 1) ?scan_threshold rt ~reuse =
  if k < 1 then invalid_arg "Hazard_pointers.create: k must be >= 1";
  let scan_threshold =
    match scan_threshold with
    | Some s -> s
    | None -> 2 * Rt.max_threads * k
  in
  {
    rt;
    k;
    scan_threshold;
    reuse;
    hp = Array.init (Rt.max_threads * k) (fun _ -> Rt.Atomic.make rt None);
    retired = Array.make Rt.max_threads [];
    retired_len = Array.make Rt.max_threads 0;
  }

let slot_index t ~slot =
  if slot < 0 || slot >= t.k then invalid_arg "Hazard_pointers: bad slot";
  (Rt.self t.rt * t.k) + slot

let protect t ~slot v = Rt.Atomic.set t.hp.(slot_index t ~slot) (Some v)

let clear t ~slot = Rt.Atomic.set t.hp.(slot_index t ~slot) None

(* Collect the set of currently protected nodes. Physical identity is the
   right notion: hazard pointers protect nodes, not values. *)
let protected_snapshot t =
  let acc = ref [] in
  Array.iter
    (fun a ->
      match Rt.Atomic.get a with Some v -> acc := v :: !acc | None -> ())
    t.hp;
  !acc

let scan t =
  Rt.obs_event t.rt Rt.Obs.Hp_scan "hp.scan";
  let me = Rt.self t.rt in
  let plist = protected_snapshot t in
  (* Detach each node from the retirement list BEFORE handing it to
     [reuse]: the reuse path performs shared-memory CASes, so under
     simulation the thread can be killed inside it. With the node already
     detached, a kill leaks that node (the bounded leak the paper's
     availability argument allows) instead of leaving it queued for a
     second, corrupting reuse by a later scan. *)
  let keep = ref [] and kept = ref 0 in
  let rec drain () =
    match t.retired.(me) with
    | [] -> ()
    | node :: rest ->
        t.retired.(me) <- rest;
        t.retired_len.(me) <- t.retired_len.(me) - 1;
        if List.memq node plist then begin
          keep := node :: !keep;
          incr kept
        end
        else t.reuse node;
        drain ()
  in
  drain ();
  t.retired.(me) <- !keep @ t.retired.(me);
  t.retired_len.(me) <- t.retired_len.(me) + !kept

let retire t v =
  let me = Rt.self t.rt in
  t.retired.(me) <- v :: t.retired.(me);
  t.retired_len.(me) <- t.retired_len.(me) + 1;
  if t.retired_len.(me) >= t.scan_threshold then scan t

let flush t =
  (* Quiescent-only: steal every thread's retirement list and scan it as
     if it were ours. *)
  let plist = protected_snapshot t in
  for tid = 0 to Rt.max_threads - 1 do
    let keep = ref [] and kept = ref 0 in
    List.iter
      (fun node ->
        if List.memq node plist then begin
          keep := node :: !keep;
          incr kept
        end
        else t.reuse node)
      t.retired.(tid);
    t.retired.(tid) <- !keep;
    t.retired_len.(tid) <- !kept
  done

let retired_count t = Array.fold_left ( + ) 0 t.retired_len

let protected_count t = List.length (protected_snapshot t)
