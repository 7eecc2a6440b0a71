(* The dispatch-free real backend of {!Runtime_intf.S}.

   This is the only module in the repository (outside the simulator's
   own host bookkeeping in {!Rt_base}) allowed to touch [Stdlib.Atomic]
   and [Domain] directly (mm-sa's raw-primitive check): an ['a atomic] IS an
   ['a Stdlib.Atomic.t], word access is a bare [Bytes] load/store, and
   labels/fences/obs sites cost one load and one branch when no hook is
   installed. No [Sim.in_sim] check appears on any path. *)

type t = unit
type 'a atomic = 'a Stdlib.Atomic.t

let name = "real"
let is_sim = false
let controllable = false
let max_threads = Rt_base.max_threads
let fresh_line = Rt_base.fresh_line

module Obs = Rt_base.Obs

module Atomic = struct
  let make () ?line v =
    ignore line;
    Stdlib.Atomic.make v

  (* OCaml 5.2's [Atomic.make_contended], written out for 5.1: a block
     whose field 0 is the atomic and whose other fields pad it, so two
     such blocks never put their field 0 on one 64-byte line and a
     neighbour's hot word cannot share the line either. The [Atomic]
     primitives only ever touch field 0, so the padded block is an
     ['a Stdlib.Atomic.t] in every respect but its size. *)
  let contended_words = 16

  let make_contended () v =
    (* [Obj.new_block] fills every field with [()]. *)
    let b = Obj.new_block 0 contended_words in
    Obj.set_field b 0 (Obj.repr v);
    (Obj.obj b : _ Stdlib.Atomic.t)

  let get = Stdlib.Atomic.get
  let set = Stdlib.Atomic.set

  (* [@inline]: without flambda the compiler inlines only bodies of
     size 10 or less, and every per-operation helper of the real copy
     is above that (DESIGN.md §18). The hook test stays here, so with no
     hook installed a CAS is the primitive plus one load and one branch;
     [obs_cas] itself is out of line. *)
  let[@inline] compare_and_set a expected desired =
    let ok = Stdlib.Atomic.compare_and_set a expected desired in
    if Obs.compiled then begin
      match !Obs.hook with
      | None -> ()
      | Some _ -> Rt_base.obs_cas ~in_sim:false ok
    end;
    ok

  let fetch_and_add = Stdlib.Atomic.fetch_and_add
  let incr a = ignore (Stdlib.Atomic.fetch_and_add a 1)
end

(* A flat table's slot is a plain array cell here: nothing to charge. *)
let slot_lines _ = [||]
let[@inline] touch_slot () _ _ ~write:_ = ()

(* [@inline], like [compare_and_set]: the store's word accessors call
   these, and inlined they are the bare load or store. *)
let[@inline] read_word () bytes off ~line:_ =
  Int64.to_int (Bytes.get_int64_le bytes off)

let[@inline] write_word () bytes off ~line:_ v =
  Bytes.set_int64_le bytes off (Int64.of_int v)

let touch () ~line:_ ~write:_ = ()
let touch_batch () ~line:_ ~write:_ ~count:_ = ()
let fence_dummy = Stdlib.Atomic.make 0
let fence () = ignore (Stdlib.Atomic.get fence_dummy)
let cpu_relax () = Domain.cpu_relax ()
let work () n = Rt_base.real_work n

let yield () =
  (* A genuine scheduler yield: on an oversubscribed host, spinning
     with PAUSE alone can leave the thread we wait on unscheduled for a
     whole quantum. *)
  try Unix.sleepf 1e-6 with Unix.Unix_error _ -> Domain.cpu_relax ()

let syscall () = ()

(* Labels and obs sites are inlined into every CAS window of the hot
   path: the inlined part is the hook tests (a load and a branch each),
   and the bodies that run only with a tracer or fault injector
   installed stay out of line, so the inlined code makes no indirect
   call. *)
let[@inline never] label_hooked l =
  (if Obs.compiled then
     match !Rt_base.Obs.hook with
     | None -> ()
     | Some _ ->
         Rt_base.Obs.last_label.(Rt_base.self ()) <- l);
  let h = !Rt_base.real_label_hook in
  if h != Rt_base.noop_label then h l

let[@inline] label () l =
  let traced =
    Obs.compiled
    && match !Rt_base.Obs.hook with None -> false | Some _ -> true
  in
  if traced || !Rt_base.real_label_hook != Rt_base.noop_label then
    label_hooked l

let[@inline never] obs_event_hooked f kind name =
  f
    ~tid:(Rt_base.obs_tid ~in_sim:false)
    ~kind ~label:name
    ~cycle:(Rt_base.obs_cycle ~in_sim:false)

let[@inline] obs_event () kind name =
  if Obs.compiled then
    match !Rt_base.Obs.hook with
    | None -> ()
    | Some f -> obs_event_hooked f kind name

(* [@inline]: the DLS read is two loads, a compare and a tag test; only
   a domain's first call leaves the line (DESIGN.md §18). *)
let[@inline] self () = Rt_base.self ()
let num_cpus () = Domain.recommended_domain_count ()
let now () = Unix.gettimeofday ()

let parallel_run () bodies =
  let n = Array.length bodies in
  if n = 0 then { Rt_base.elapsed = 0.0; sim_result = None }
  else if n > max_threads then
    invalid_arg
      (Printf.sprintf "Rt.parallel_run: %d threads exceeds max_threads=%d" n
         max_threads)
  else begin
    let parent = self () in
    let t0 = Unix.gettimeofday () in
    let domains =
      Array.init n (fun i ->
          Domain.spawn (fun () ->
              Rt_base.adopt i ~parent;
              bodies.(i) i))
    in
    let failure = ref None in
    Array.iter
      (fun d ->
        match Domain.join d with
        | () -> ()
        | exception e -> if !failure = None then failure := Some e)
      domains;
    (match !failure with Some e -> raise e | None -> ());
    { Rt_base.elapsed = Unix.gettimeofday () -. t0; sim_result = None }
  end
