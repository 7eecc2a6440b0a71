type action = Continue | Block_until of (unit -> bool) | Kill

type sched_point = {
  sp_runnable : int list;
  sp_current : int;
  sp_label : string option;
}

type counters = {
  atomics : int;
  plain : int;
  fences : int;
  transfers : int;
  invalidations : int;
  syscalls : int;
  ctx_switches : int;
  yields : int;
  killed : int;
}

type result = {
  makespan_cycles : int;
  cpu_cycles : int array;
  counters : counters;
}

exception Progress_timeout of string
exception Deadlock of string

type op =
  | Atomic_op of { line : int; write : bool }
  | Mem_op of { line : int; write : bool }
  | Mem_batch_op of { line : int; write : bool; count : int }
  | Fence_op
  | Work_op of int
  | Yield_op
  | Syscall_op
  | Label_op of string

type _ Effect.t += Step : op -> unit Effect.t

(* A line is either shared read-only by a set of CPUs or exclusively
   modified by one. The model only needs to know who pays on the next
   access, not the full MESI state machine. *)
type line_state = Shared of int list | Modified of int

type cont =
  | Not_started of (unit -> unit)
  | Paused of (unit, unit) Effect.Deep.continuation
  | No_cont

type status = Ready | Blocked of (unit -> bool) | Done | Killed_status

type thread = {
  tid : int;
  cpu : int;
  mutable status : status;
  mutable cont : cont;
  mutable failure : exn option;
}

type mutable_counters = {
  mutable c_atomics : int;
  mutable c_plain : int;
  mutable c_fences : int;
  mutable c_transfers : int;
  mutable c_invalidations : int;
  mutable c_syscalls : int;
  mutable c_ctx : int;
  mutable c_yields : int;
  mutable c_killed : int;
}

type t = {
  n_cpus : int;
  cost : Cost.t;
  seed : int;
  max_cycles : int;
  on_label : tid:int -> string -> action;
  sched : (sched_point -> int) option;
  (* Controlled-mode decision bookkeeping: [ctrl_decide] is set when the
     current thread passes a decision point (label/yield) and the external
     strategy must be consulted before the next step; [ctrl_label] carries
     the label name that caused it. *)
  mutable ctrl_decide : bool;
  mutable ctrl_label : string option;
  (* per-run state *)
  mutable clock : int array;
  mutable slice_start : int array;
  cache : (int, line_state) Hashtbl.t;
  cnt : mutable_counters;
  mutable threads : thread array;
  mutable running : thread option array;  (* per cpu *)
  mutable queues : thread Queue.t array;  (* per cpu *)
  mutable rng : Prng.t;
  mutable active : bool;
}

let create ?(cpus = 16) ?(costs = Cost.default) ?(seed = 1)
    ?(max_cycles = 1_000_000_000) ?(on_label = fun ~tid:_ _ -> Continue)
    ?sched () =
  if cpus < 1 then invalid_arg "Sim.create: cpus must be >= 1";
  {
    n_cpus = cpus;
    cost = costs;
    seed;
    max_cycles;
    on_label;
    sched;
    ctrl_decide = false;
    ctrl_label = None;
    clock = Array.make cpus 0;
    slice_start = Array.make cpus 0;
    cache = Hashtbl.create 4096;
    cnt =
      {
        c_atomics = 0;
        c_plain = 0;
        c_fences = 0;
        c_transfers = 0;
        c_invalidations = 0;
        c_syscalls = 0;
        c_ctx = 0;
        c_yields = 0;
        c_killed = 0;
      };
    threads = [||];
    running = Array.make cpus None;
    queues = Array.init cpus (fun _ -> Queue.create ());
    rng = Prng.create seed;
    active = false;
  }

let cpus t = t.n_cpus
let costs t = t.cost

(* ------------------------------------------------------------------ *)
(* Current-thread tracking. The simulator is single-threaded (it *is*
   the substitute for parallel hardware), so a single global suffices. *)

let cur : (t * thread) option ref = ref None

let in_sim () = !cur <> None

let current () =
  match !cur with
  | Some (st, _) -> st
  | None -> failwith "Sim.current: not inside a simulation"

let current_thread () =
  match !cur with
  | Some (_, th) -> th
  | None -> failwith "Sim: not inside a simulation"

let self_tid () = (current_thread ()).tid
let now_cycles () =
  let st = current () in
  st.clock.((current_thread ()).cpu)

(* ------------------------------------------------------------------ *)
(* Cache-line cost model. *)

let list_mem_int (c : int) l = List.exists (fun x -> x = c) l

let cache_access st ~cpu ~line ~write =
  let state = Hashtbl.find_opt st.cache line in
  if write then
    match state with
    | None ->
        Hashtbl.replace st.cache line (Modified cpu);
        0
    | Some (Modified m) when m = cpu -> 0
    | Some (Modified _) ->
        st.cnt.c_transfers <- st.cnt.c_transfers + 1;
        Hashtbl.replace st.cache line (Modified cpu);
        st.cost.line_transfer
    | Some (Shared l) ->
        Hashtbl.replace st.cache line (Modified cpu);
        if l = [ cpu ] then 0
        else begin
          st.cnt.c_invalidations <- st.cnt.c_invalidations + 1;
          st.cost.line_invalidate
        end
  else
    match state with
    | None ->
        Hashtbl.replace st.cache line (Shared [ cpu ]);
        0
    | Some (Modified m) when m = cpu -> 0
    | Some (Modified m) ->
        st.cnt.c_transfers <- st.cnt.c_transfers + 1;
        Hashtbl.replace st.cache line (Shared [ cpu; m ]);
        st.cost.line_transfer
    | Some (Shared l) ->
        if not (list_mem_int cpu l) then
          Hashtbl.replace st.cache line (Shared (cpu :: l));
        0

(* ------------------------------------------------------------------ *)
(* Scheduling. *)

let charge st cpu cycles =
  let jitter = Prng.int st.rng 3 in
  st.clock.(cpu) <- st.clock.(cpu) + cycles + jitter

let requeue_after_step st th =
  (* Called when [th] performed a chargeable step and remains runnable. *)
  let c = th.cpu in
  let quantum_expired =
    st.clock.(c) - st.slice_start.(c) >= st.cost.quantum
  in
  if quantum_expired && not (Queue.is_empty st.queues.(c)) then begin
    st.cnt.c_ctx <- st.cnt.c_ctx + 1;
    st.clock.(c) <- st.clock.(c) + st.cost.ctx_switch;
    Queue.push th st.queues.(c);
    st.running.(c) <- None
  end
  (* otherwise [th] stays as the running thread of its cpu *)

let apply_op st th op =
  let c = th.cpu in
  let controlled = st.sched <> None in
  (* In controlled mode the external strategy owns all interleaving: no
     quantum preemption, and no per-CPU queue juggling. *)
  let after_step () = if not controlled then requeue_after_step st th in
  (match op with
  | Atomic_op { line; write } ->
      st.cnt.c_atomics <- st.cnt.c_atomics + 1;
      let extra = cache_access st ~cpu:c ~line ~write in
      charge st c (st.cost.atomic_op + extra);
      after_step ()
  | Mem_op { line; write } ->
      st.cnt.c_plain <- st.cnt.c_plain + 1;
      let extra = cache_access st ~cpu:c ~line ~write in
      charge st c (st.cost.plain_access + extra);
      after_step ()
  | Mem_batch_op { line; write; count } ->
      (* [count] same-line accesses as one event: one coherence action,
         then cache hits. *)
      st.cnt.c_plain <- st.cnt.c_plain + count;
      let extra = cache_access st ~cpu:c ~line ~write in
      charge st c ((st.cost.plain_access * count) + extra);
      after_step ()
  | Fence_op ->
      st.cnt.c_fences <- st.cnt.c_fences + 1;
      charge st c st.cost.fence;
      after_step ()
  | Work_op n ->
      charge st c n;
      after_step ()
  | Yield_op ->
      st.cnt.c_yields <- st.cnt.c_yields + 1;
      charge st c st.cost.yield;
      if controlled then st.ctrl_decide <- true
        (* A voluntary yield always gives the CPU away if anyone waits. *)
      else if Queue.is_empty st.queues.(c) then ()
      else begin
        Queue.push th st.queues.(c);
        st.running.(c) <- None
      end
  | Syscall_op ->
      st.cnt.c_syscalls <- st.cnt.c_syscalls + 1;
      charge st c st.cost.syscall;
      after_step ()
  | Label_op name -> (
      if controlled then begin
        st.ctrl_decide <- true;
        st.ctrl_label <- Some name
      end;
      match st.on_label ~tid:th.tid name with
      | Continue -> after_step ()
      | Block_until p ->
          th.status <- Blocked p;
          st.running.(c) <- None
      | Kill ->
          th.status <- Killed_status;
          th.cont <- No_cont;
          st.cnt.c_killed <- st.cnt.c_killed + 1;
          st.running.(c) <- None))

let make_handler st th : (unit, unit) Effect.Deep.handler =
  {
    retc =
      (fun () ->
        th.status <- Done;
        st.running.(th.cpu) <- None);
    exnc =
      (fun e ->
        th.status <- Done;
        th.failure <- Some e;
        st.running.(th.cpu) <- None);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Step op ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                th.cont <- Paused k;
                apply_op st th op)
        | _ -> None);
  }

let resume st th =
  cur := Some (st, th);
  (match th.cont with
  | Not_started f ->
      th.cont <- No_cont;
      Effect.Deep.match_with f () (make_handler st th)
  | Paused k ->
      th.cont <- No_cont;
      Effect.Deep.continue k ()
  | No_cont -> assert false);
  cur := None

(* Move any blocked thread whose predicate has become true back to its
   CPU's ready queue. Returns how many were unblocked. *)
let unblock_ready st =
  let n = ref 0 in
  Array.iter
    (fun th ->
      match th.status with
      | Blocked p when p () ->
          th.status <- Ready;
          incr n;
          Queue.push th st.queues.(th.cpu)
      | _ -> ())
    st.threads;
  !n

let pick_cpu st =
  (* Choose the non-idle CPU with the smallest virtual clock. *)
  let best = ref (-1) in
  for c = 0 to st.n_cpus - 1 do
    let busy =
      st.running.(c) <> None || not (Queue.is_empty st.queues.(c))
    in
    if busy && (!best = -1 || st.clock.(c) < st.clock.(!best)) then best := c
  done;
  !best

let snapshot_counters st =
  {
    atomics = st.cnt.c_atomics;
    plain = st.cnt.c_plain;
    fences = st.cnt.c_fences;
    transfers = st.cnt.c_transfers;
    invalidations = st.cnt.c_invalidations;
    syscalls = st.cnt.c_syscalls;
    ctx_switches = st.cnt.c_ctx;
    yields = st.cnt.c_yields;
    killed = st.cnt.c_killed;
  }

let reset_run_state st nthreads =
  st.clock <- Array.make st.n_cpus 0;
  st.slice_start <- Array.make st.n_cpus 0;
  Hashtbl.reset st.cache;
  st.cnt.c_atomics <- 0;
  st.cnt.c_plain <- 0;
  st.cnt.c_fences <- 0;
  st.cnt.c_transfers <- 0;
  st.cnt.c_invalidations <- 0;
  st.cnt.c_syscalls <- 0;
  st.cnt.c_ctx <- 0;
  st.cnt.c_yields <- 0;
  st.cnt.c_killed <- 0;
  st.running <- Array.make st.n_cpus None;
  st.queues <- Array.init st.n_cpus (fun _ -> Queue.create ());
  st.rng <- Prng.create st.seed;
  st.ctrl_decide <- false;
  st.ctrl_label <- None;
  ignore nthreads

let run st bodies =
  if st.active then failwith "Sim.run: nested runs are not supported";
  if in_sim () then failwith "Sim.run: cannot run a simulation inside another";
  st.active <- true;
  let n = Array.length bodies in
  reset_run_state st n;
  st.threads <-
    Array.init n (fun i ->
        {
          tid = i;
          cpu = i mod st.n_cpus;
          status = Ready;
          cont = Not_started (fun () -> bodies.(i) i);
          failure = None;
        });
  if st.sched = None then
    Array.iter (fun th -> Queue.push th st.queues.(th.cpu)) st.threads;
  let finish () =
    st.active <- false;
    let makespan = Array.fold_left max 0 st.clock in
    Array.iter
      (fun th -> match th.failure with Some e -> raise e | None -> ())
      st.threads;
    {
      makespan_cycles = makespan;
      cpu_cycles = Array.copy st.clock;
      counters = snapshot_counters st;
    }
  in
  (* Controlled mode: the external strategy picks who runs at each
     decision point; queues, quanta and CPU clocks play no scheduling
     role (clocks still accumulate for the cycle budget). *)
  let run_controlled sched =
    let unblock () =
      Array.iter
        (fun th ->
          match th.status with
          | Blocked p when p () -> th.status <- Ready
          | _ -> ())
        st.threads
    in
    let runnable () =
      Array.fold_right
        (fun th acc -> if th.status = Ready then th.tid :: acc else acc)
        st.threads []
    in
    let rec loop current =
      unblock ();
      match runnable () with
      | [] ->
          if
            Array.exists
              (fun th ->
                match th.status with Blocked _ -> true | _ -> false)
              st.threads
          then begin
            st.active <- false;
            raise
              (Deadlock
                 "Sim.run: blocked threads remain and no thread is runnable")
          end
      | rs ->
          let maxclk = Array.fold_left max 0 st.clock in
          if maxclk > st.max_cycles then begin
            st.active <- false;
            raise
              (Progress_timeout
                 (Printf.sprintf
                    "Sim.run: cycle budget exceeded (clock=%d > max=%d)"
                    maxclk st.max_cycles))
          end;
          let need_decision =
            st.ctrl_decide || current < 0
            || st.threads.(current).status <> Ready
          in
          let tid =
            if not need_decision then current
            else begin
              st.ctrl_decide <- false;
              let lbl = st.ctrl_label in
              st.ctrl_label <- None;
              let choice =
                sched
                  { sp_runnable = rs; sp_current = current; sp_label = lbl }
              in
              if not (List.mem choice rs) then begin
                st.active <- false;
                failwith
                  (Printf.sprintf
                     "Sim.run: strategy chose non-runnable thread %d" choice)
              end;
              choice
            end
          in
          resume st st.threads.(tid);
          loop tid
    in
    loop (-1)
  in
  let rec loop () =
    ignore (unblock_ready st);
    (* Ensure every busy CPU has a running thread. *)
    for c = 0 to st.n_cpus - 1 do
      if st.running.(c) = None && not (Queue.is_empty st.queues.(c)) then begin
        let th = Queue.pop st.queues.(c) in
        st.slice_start.(c) <- st.clock.(c);
        st.running.(c) <- Some th
      end
    done;
    let c = pick_cpu st in
    if c = -1 then begin
      let blocked =
        Array.exists
          (fun th -> match th.status with Blocked _ -> true | _ -> false)
          st.threads
      in
      if blocked then begin
        st.active <- false;
        raise
          (Deadlock
             "Sim.run: blocked threads remain and no thread is runnable")
      end
    end
    else begin
      if st.clock.(c) > st.max_cycles then begin
        st.active <- false;
        raise
          (Progress_timeout
             (Printf.sprintf
                "Sim.run: cycle budget exceeded (clock=%d > max=%d)"
                st.clock.(c) st.max_cycles))
      end;
      (match st.running.(c) with
      | Some th -> resume st th
      | None -> assert false);
      loop ()
    end
  in
  (try match st.sched with Some s -> run_controlled s | None -> loop ()
   with e ->
     st.active <- false;
     cur := None;
     raise e);
  finish ()

(* ------------------------------------------------------------------ *)
(* Step entry points used by Rt. *)

let step_atomic ~line ~write = Effect.perform (Step (Atomic_op { line; write }))
let step_mem ~line ~write = Effect.perform (Step (Mem_op { line; write }))

let step_mem_batch ~line ~write ~count =
  if count > 0 then Effect.perform (Step (Mem_batch_op { line; write; count }))
let step_fence () = Effect.perform (Step Fence_op)
let step_work n = if n > 0 then Effect.perform (Step (Work_op n))
let step_yield () = Effect.perform (Step Yield_op)
let step_syscall () = Effect.perform (Step Syscall_op)
let step_label name = Effect.perform (Step (Label_op name))
