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
(* Thread identity on the real runtime (declared early: the
   observability hook below needs it to attribute events). DESIGN.md
   §18.

   Each live domain that asks holds its own dense id below
   [max_threads], claimed from a registry of flags: a domain's first
   [self] claims the lowest free id by CAS and frees it again when the
   domain terminates. Past [max_threads] live domains the claim raises
   rather than sharing an id, since per-thread state indexed by the id
   is single-owner. *)

let claims = Array.init max_threads (fun _ -> Stdlib.Atomic.make false)

let try_claim id =
  (not (Stdlib.Atomic.get claims.(id)))
  && Stdlib.Atomic.compare_and_set claims.(id) false true

let claim_lowest () =
  let rec go id =
    if id = max_threads then
      failwith
        (Printf.sprintf "Rt.self: more than max_threads=%d live domains"
           max_threads)
    else if try_claim id then id
    else go (id + 1)
  in
  go 0

(* The calling domain keeps [id] until it terminates. *)
let hold id =
  Domain.at_exit (fun () -> Stdlib.Atomic.set claims.(id) false);
  id

let dls_self : int Domain.DLS.key =
  Domain.DLS.new_key (fun () -> hold (claim_lowest ()))

(* Worker [i] of a [parallel_run] called by the domain holding
   [parent]: it claims id [i], so a run's ids are dense, unless another
   live domain holds [i] (then the lowest free one). The caller waits
   in [Domain.join] for the whole run, so the worker of its own index
   runs under the caller's id, which stays claimed. *)
let adopt i ~parent =
  Domain.DLS.set dls_self
    (if i = parent then i
     else if try_claim i then hold i
     else hold (claim_lowest ()))

(* [self] without a call: the stdlib keeps a domain's DLS values in one
   array, reachable through the [%dls_get] primitive, and a key is the
   pair of its index in that array and its initialiser. An id is an
   immediate int there; an unset slot holds the stdlib's boxed
   placeholder, and a slot past the array's end is unset too. The
   cells are typed as a boxed record so a read compiles to a plain
   load (an element of unknown type compiles to the generic load with
   its float-array test); they are only ever tested with
   [Obj.is_int]. *)
type dls_cell = { opaque : unit }

external dls_cells : unit -> dls_cell array = "%dls_get"

let key_index key =
  let k = Obj.repr key in
  if Obj.is_block k && Obj.size k = 2 && Obj.is_int (Obj.field k 0) then
    (Obj.obj (Obj.field k 0) : int)
  else -1

(* The index [self] reads, checked once at start-up: a probe key set
   through [Domain.DLS] must read back at its index. If the layout
   disagrees, [dls_index] is [max_int], past every array, and [self]
   always takes the slow path. *)
let dls_index =
  let probe = Domain.DLS.new_key (fun () -> 0) in
  let stamp = 0x5e1f in
  Domain.DLS.set probe stamp;
  let p = key_index probe and s = key_index dls_self in
  let cells = dls_cells () in
  if
    s >= 0 && p >= 0 && p <> s
    && p < Array.length cells
    && Obj.repr (Array.unsafe_get cells p) == Obj.repr stamp
  then s
  else max_int

(* The first [self] of a domain: claims its id. *)
let[@inline never] self_slow () = Domain.DLS.get dls_self

let[@inline] self () =
  let cells = dls_cells () in
  if dls_index < Array.length cells then
    let v = Obj.repr (Array.unsafe_get cells dls_index) in
    if Obj.is_int v then (Obj.obj v : int) else self_slow ()
  else self_slow ()

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

let obs_tid ~in_sim = if in_sim then Sim.self_tid () else self ()

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
