(* State shared by every runtime backend.

   The observability hook, label attribution, synthetic cache-line
   counter and thread-identity key must be global: the two backends
   ({!Real_rt}, {!Sim_rt}) feed the same tracer (lib/obs), and a tracer
   installed through [Rt.Obs.set_hook] must see events no matter which
   backend emitted them. *)

let max_threads = 64

(* ------------------------------------------------------------------ *)
(* Synthetic cache lines for atomics: negative ids, so they can never
   collide with memory-derived lines (which are non-negative). *)

let line_counter = Stdlib.Atomic.make 0
let fresh_line () = -1 - Stdlib.Atomic.fetch_and_add line_counter 1

(* ------------------------------------------------------------------ *)
(* Thread identity (declared early: the observability hook below needs
   it to attribute events on the real runtime). *)

let dls_self : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

(* ------------------------------------------------------------------ *)
(* Observability hook (lib/obs).

   Recording runs on the HOST side only: it never calls Sim.step_* and
   never goes through an atomic wrapper, so a simulated run produces
   the same schedule, cycle counts and counters whether tracing is on
   or off. Timestamps are Sim.now_cycles under simulation and a global
   event ordinal on the real runtime. *)

module Obs = struct
  type kind = Cas_ok | Cas_fail | Transition | Hp_scan | Mmap

  (* Compile-time master switch: flip to [false] and every recording
     site folds to dead code, so the zero-tracing build carries no
     hot-path cost at all. With it [true] (the default) and no hook
     installed, each site costs one load and one branch. *)
  let compiled = true

  let no_label = "(none)"

  (* CAS attribution: the last label each thread passed. One writer per
     slot (the thread itself) and the only reader is that same thread's
     next CAS event, so plain stores suffice. *)
  let last_label = Array.make max_threads no_label

  let hook :
      (tid:int -> kind:kind -> label:string -> cycle:int -> unit) option ref =
    ref None

  let set_hook h =
    (match h with
    | Some _ -> Array.fill last_label 0 max_threads no_label
    | None -> ());
    hook := h

  let hook_installed () = match !hook with Some _ -> true | None -> false

  (* Event ordinals for the real runtime, which has no virtual clock. *)
  let real_clock = Stdlib.Atomic.make 0
end

let obs_tid ~in_sim =
  if in_sim then Sim.self_tid () else Domain.DLS.get dls_self

let obs_cycle ~in_sim =
  if in_sim then Sim.now_cycles ()
  else Stdlib.Atomic.fetch_and_add Obs.real_clock 1

let[@inline never] obs_cas ~in_sim ok =
  match !Obs.hook with
  | None -> ()
  | Some f ->
      let tid = obs_tid ~in_sim in
      f ~tid
        ~kind:(if ok then Obs.Cas_ok else Obs.Cas_fail)
        ~label:Obs.last_label.(tid) ~cycle:(obs_cycle ~in_sim)

(* ------------------------------------------------------------------ *)
(* Real-runtime label hook. [noop_label] is the physical default: the
   specialized real backend skips the hook call entirely while the ref
   still holds it, making labels one load + one compare when neither a
   tracer nor a fault injector is installed. *)

let noop_label : string -> unit = fun _ -> ()
let real_label_hook : (string -> unit) ref = ref noop_label

(* Per-domain opaque sink so real [work] loops are not optimized away.
   Domain-local (rather than one shared ref) so concurrent real threads
   never race on it. *)
let work_sink : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let real_work n =
  let sink = Domain.DLS.get work_sink in
  let acc = ref !sink in
  for i = 1 to n do
    acc := (!acc * 25214903917) + i
  done;
  sink := Sys.opaque_identity !acc

(* ------------------------------------------------------------------ *)
(* Running threads. *)

type run_result = { elapsed : float; sim_result : Sim.result option }
