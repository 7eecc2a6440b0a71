(* The simulated backend of {!Runtime_intf.S}.

   Bit-identical to the historical value-dispatch semantics: the same
   [Sim.step_*] calls in the same order, the same [fresh_line]
   consumption, the same physical-equality CAS — so every schedule the
   explorer found before the specialization refactor is reproduced
   exactly, and census counters match event for event. *)

type t = Sim.t
type 'a atomic = { mutable v : 'a; line : int }

let name = "sim"
let is_sim = true
let controllable = true
let max_threads = Rt_base.max_threads
let fresh_line = Rt_base.fresh_line

module Obs = Rt_base.Obs

module Atomic = struct
  let make _s ?line v =
    let line = match line with Some l -> l | None -> Rt_base.fresh_line () in
    { v; line }

  let make_contended s v = make s v

  let get r =
    if Sim.in_sim () then Sim.step_atomic ~line:r.line ~write:false;
    r.v

  let set r v =
    if Sim.in_sim () then Sim.step_atomic ~line:r.line ~write:true;
    r.v <- v

  let compare_and_set r expected desired =
    (* Even a failing CAS acquires the line exclusively. *)
    if Sim.in_sim () then Sim.step_atomic ~line:r.line ~write:true;
    let ok = r.v == expected in
    if ok then r.v <- desired;
    if Obs.compiled then Rt_base.obs_cas ~in_sim:(Sim.in_sim ()) ok;
    ok

  let fetch_and_add (r : int atomic) n =
    if Sim.in_sim () then Sim.step_atomic ~line:r.line ~write:true;
    let old = r.v in
    r.v <- old + n;
    old

  let incr r = ignore (fetch_and_add r 1)
end

(* A flat table's slot costs what its atomic did: the same line, in the
   same [fresh_line] order, and one atomic step per access. *)
let slot_lines n = Array.init n (fun _ -> Rt_base.fresh_line ())

let touch_slot _s lines id ~write =
  if Sim.in_sim () then Sim.step_atomic ~line:lines.(id) ~write

let read_word _s bytes off ~line =
  if Sim.in_sim () then Sim.step_mem ~line ~write:false;
  Int64.to_int (Bytes.get_int64_le bytes off)

let write_word _s bytes off ~line v =
  if Sim.in_sim () then Sim.step_mem ~line ~write:true;
  Bytes.set_int64_le bytes off (Int64.of_int v)

let touch _s ~line ~write = if Sim.in_sim () then Sim.step_mem ~line ~write

let touch_batch _s ~line ~write ~count =
  if Sim.in_sim () then Sim.step_mem_batch ~line ~write ~count

let fence _s = if Sim.in_sim () then Sim.step_fence ()
let cpu_relax _s = if Sim.in_sim () then Sim.step_work 8
let work _s n = if Sim.in_sim () then Sim.step_work n
let yield _s = if Sim.in_sim () then Sim.step_yield ()
let syscall _s = if Sim.in_sim () then Sim.step_syscall ()

let label _s l =
  (if Obs.compiled && Rt_base.Obs.hook_installed () then
     Rt_base.Obs.last_label.(Rt_base.obs_tid ~in_sim:(Sim.in_sim ())) <- l);
  if Sim.in_sim () then Sim.step_label l

let obs_event _s kind name =
  if Obs.compiled then
    match !Rt_base.Obs.hook with
    | None -> ()
    | Some f ->
        let in_sim = Sim.in_sim () in
        f
          ~tid:(Rt_base.obs_tid ~in_sim)
          ~kind ~label:name
          ~cycle:(Rt_base.obs_cycle ~in_sim)

let self _s = if Sim.in_sim () then Sim.self_tid () else 0
let num_cpus s = Sim.cpus s

let now s =
  if Sim.in_sim () then
    float_of_int (Sim.now_cycles ()) /. (Sim.costs s).Cost.cycles_per_sec
  else 0.0

let parallel_run s bodies =
  let n = Array.length bodies in
  if n = 0 then { Rt_base.elapsed = 0.0; sim_result = None }
  else if n > max_threads then
    invalid_arg
      (Printf.sprintf "Rt.parallel_run: %d threads exceeds max_threads=%d" n
         max_threads)
  else begin
    let r = Sim.run s bodies in
    {
      Rt_base.elapsed =
        float_of_int r.Sim.makespan_cycles /. (Sim.costs s).Cost.cycles_per_sec;
      sim_result = Some r;
    }
  end
