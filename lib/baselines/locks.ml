let holder_label = "lock.held"

(* Extra per-operation cost modelling the kernel-assisted slow path of a
   pthread-style mutex (futex bookkeeping, ownership records). *)
let pthread_acquire_overhead = 150
let pthread_release_overhead = 100

(* Spinners yield after this many failed attempts so a preempted holder
   can be rescheduled. *)
let yield_every = 32

(* MCS queue node: one per (thread, lock); each thread spins on its own
   node's flag, so waiters generate no traffic on shared lines. *)
type mcs_node = {
  locked : int Rt.atomic;
  next : mcs_node option Rt.atomic;
}

type kind_impl =
  | Tas of { flag : int Rt.atomic }
  | Ticket of { next : int Rt.atomic; serving : int Rt.atomic }
  | Mcs of { tail : mcs_node option Rt.atomic; nodes : mcs_node array }
  | Pthread of { flag : int Rt.atomic }

type t = {
  rt : Rt.t;
  impl : kind_impl;
  acq : int array;  (* striped per-thread counters *)
  contended : int array;
}

let create rt kind =
  let impl =
    match kind with
    | Mm_mem.Alloc_config.Tas_backoff -> Tas { flag = Rt.Atomic.make rt 0 }
    | Mm_mem.Alloc_config.Ticket ->
        Ticket
          { next = Rt.Atomic.make rt 0; serving = Rt.Atomic.make rt 0 }
    | Mm_mem.Alloc_config.Mcs ->
        Mcs
          {
            tail = Rt.Atomic.make rt None;
            nodes =
              Array.init Rt.max_threads (fun _ ->
                  {
                    locked = Rt.Atomic.make rt 0;
                    next = Rt.Atomic.make rt None;
                  });
          }
    | Mm_mem.Alloc_config.Pthread_like ->
        Pthread { flag = Rt.Atomic.make rt 0 }
  in
  {
    rt;
    impl;
    acq = Array.make Rt.max_threads 0;
    contended = Array.make Rt.max_threads 0;
  }

(* Fault-injection point: a thread paused or killed here is a lock
   holder — the scenario lock-freedom is immune to and locks are not. *)

let note t ~contended =
  let me = Rt.self t.rt in
  t.acq.(me) <- t.acq.(me) + 1;
  if contended then t.contended.(me) <- t.contended.(me) + 1;
  Rt.label t.rt holder_label

let tas_acquire t flag =
  let rec go spins attempts contended =
    if Rt.Atomic.get flag = 0 && Rt.Atomic.compare_and_set flag 0 1 then
      note t ~contended
    else begin
      let spins = Backoff.spin t.rt spins in
      if attempts mod yield_every = yield_every - 1 then Rt.yield t.rt;
      go spins (attempts + 1) true
    end
  in
  go Backoff.initial 0 false;
  Rt.fence t.rt (* entry instruction fence *)

let tas_release t flag =
  Rt.fence t.rt (* exit memory fence *);
  Rt.Atomic.set flag 0

(* Atomic exchange built from CAS. *)
let rec swap_tail tail desired =
  let old = Rt.Atomic.get tail in
  if Rt.Atomic.compare_and_set tail old desired then old
  else swap_tail tail desired

let mcs_acquire t tail nodes =
  let my = nodes.(Rt.self t.rt) in
  Rt.Atomic.set my.locked 1;
  Rt.Atomic.set my.next None;
  match swap_tail tail (Some my) with
  | None ->
      note t ~contended:false;
      Rt.fence t.rt
  | Some pred ->
      Rt.Atomic.set pred.next (Some my);
      let rec wait spins attempts =
        if Rt.Atomic.get my.locked = 1 then begin
          let spins = Backoff.spin t.rt spins in
          if attempts mod yield_every = yield_every - 1 then Rt.yield t.rt;
          wait spins (attempts + 1)
        end
      in
      wait Backoff.initial 0;
      note t ~contended:true;
      Rt.fence t.rt

let mcs_release t tail nodes =
  let my = nodes.(Rt.self t.rt) in
  Rt.fence t.rt;
  let rec go attempts =
    match Rt.Atomic.get my.next with
    | Some succ -> Rt.Atomic.set succ.locked 0
    | None -> (
        (* CAS against the physically-stored option box: a freshly built
           [Some my] would never compare equal. *)
        match Rt.Atomic.get tail with
        | Some n as cur when n == my ->
            if not (Rt.Atomic.compare_and_set tail cur None) then begin
              Rt.cpu_relax t.rt;
              go (attempts + 1)
            end
        | _ ->
            (* A successor won the tail but has not linked yet. *)
            Rt.cpu_relax t.rt;
            if attempts mod yield_every = yield_every - 1 then Rt.yield t.rt;
            go (attempts + 1))
  in
  go 0

let acquire t =
  match t.impl with
  | Tas { flag } -> tas_acquire t flag
  | Mcs { tail; nodes } -> mcs_acquire t tail nodes
  | Pthread { flag } ->
      Rt.work t.rt pthread_acquire_overhead;
      tas_acquire t flag
  | Ticket { next; serving } ->
      let mine = Rt.Atomic.fetch_and_add next 1 in
      let rec wait spins attempts contended =
        if Rt.Atomic.get serving = mine then note t ~contended
        else begin
          let spins = Backoff.spin t.rt spins in
          if attempts mod yield_every = yield_every - 1 then Rt.yield t.rt;
          wait spins (attempts + 1) true
        end
      in
      wait Backoff.initial 0 false;
      Rt.fence t.rt

let try_acquire t =
  let won =
    match t.impl with
    | Mcs { tail; nodes } ->
        let my = nodes.(Rt.self t.rt) in
        Rt.Atomic.set my.locked 1;
        Rt.Atomic.set my.next None;
        Rt.Atomic.compare_and_set tail None (Some my)
    | Tas { flag } | Pthread { flag } ->
        (match t.impl with
        | Pthread _ -> Rt.work t.rt pthread_acquire_overhead
        | _ -> ());
        Rt.Atomic.get flag = 0 && Rt.Atomic.compare_and_set flag 0 1
    | Ticket { next; serving } ->
        let s = Rt.Atomic.get serving in
        let n = Rt.Atomic.get next in
        s = n && Rt.Atomic.compare_and_set next n (n + 1)
  in
  if won then begin
    note t ~contended:false;
    Rt.fence t.rt
  end;
  won

let release t =
  match t.impl with
  | Tas { flag } -> tas_release t flag
  | Mcs { tail; nodes } -> mcs_release t tail nodes
  | Pthread { flag } ->
      Rt.work t.rt pthread_release_overhead;
      tas_release t flag
  | Ticket { serving; _ } ->
      Rt.fence t.rt;
      Rt.Atomic.set serving (Rt.Atomic.get serving + 1)

let with_lock t f =
  acquire t;
  let r = f () in
  release t;
  r

let acquisitions t = Array.fold_left ( + ) 0 t.acq
let contended_acquisitions t = Array.fold_left ( + ) 0 t.contended
