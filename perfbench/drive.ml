(* One timed segment: a fresh heap, [Inputs.domains] worker domains
   spawned and prefilled (the set-up), a closed loop timed from a start
   barrier, then teardown and verification. Every domain issues its next
   call only when the previous one has returned. *)

module Rt = Mm_runtime.Real_rt
module I = Mm_mem.Alloc_intf

(* Monotonic nanoseconds, unboxed and allocation-free, so spans around
   calls do not disturb the minor-heap counters. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

(* The calling domain's CPU time in nanoseconds (cpu_clock.c). *)
external thread_cpu_ns : unit -> (int64[@unboxed])
  = "perfbench_thread_cpu_ns_byte" "perfbench_thread_cpu_ns"
[@@noalloc]

let cpu_ns () = Int64.to_int (thread_cpu_ns ())

(* Log-linear latency histogram: exact below 64 ns, then 64 sub-buckets
   per power of two (under 1.6% relative error). *)
module Hist = struct
  let sub = 64
  let size = sub * 36

  let create () = Array.make size 0

  let rec log2 v acc = if v <= 1 then acc else log2 (v lsr 1) (acc + 1)

  let index v =
    if v < sub then max v 0
    else
      let e = log2 v 0 in
      min (size - 1) (sub + ((e - 6) * sub) + ((v lsr (e - 6)) - sub))

  (* Midpoint of bucket [i]. *)
  let value i =
    if i < sub then float i
    else
      let e = ((i - sub) / sub) + 6 and s = (i - sub) mod sub in
      float ((sub + s) lsl (e - 6)) +. (float (1 lsl (e - 6)) /. 2.)

  let record h v =
    let i = index v in
    h.(i) <- h.(i) + 1

  let add ~into h = Array.iteri (fun i c -> into.(i) <- into.(i) + c) h
  let count h = Array.fold_left ( + ) 0 h

  let percentile h p =
    let total = count h in
    if total = 0 then nan
    else
      let rank = max 1 (int_of_float (Float.ceil (p *. float total))) in
      let rec go i acc =
        let acc = acc + h.(i) in
        if acc >= rank || i = size - 1 then value i else go (i + 1) acc
      in
      go 0 0
end

(* Failed CASes at the two block-cache batch sites, counted by an obs
   hook: the allocator's own census folds them into the active.reserve
   and anchor.free rows. The hook costs every label and CAS, so it is
   installed only for traced segments of the one configuration with
   those sites. *)
let bc_reserve_fails = Array.make Mm_runtime.Rt.max_threads 0
let bc_flush_fails = Array.make Mm_runtime.Rt.max_threads 0

let hook ~tid ~kind ~label ~cycle:_ =
  match (kind : Mm_runtime.Rt.Obs.kind) with
  | Cas_fail ->
      if String.equal label Mm_core.Labels.bc_reserve_cas then
        bc_reserve_fails.(tid) <- bc_reserve_fails.(tid) + 1
      else if String.equal label Mm_core.Labels.bc_flush_cas then
        bc_flush_fails.(tid) <- bc_flush_fails.(tid) + 1
  | _ -> ()

let sum = Array.fold_left ( + ) 0

(* Layer counters by name: the allocator's failed CASes per census site
   ([Lf_alloc.retry_counts]), superblock and OS traffic, the two bc.*
   sites, minor collections and block-cache stats (0 without a cache). Read by the last
   domain to reach a barrier while the other spins, so the difference of
   two snapshots covers exactly the timed loop. *)
type counters = (string * int) list

let snapshot heap inst : counters =
  let os = inst.I.os_stats () in
  Heaps.Lf.retry_counts (Heaps.backend heap)
  @ [
      ("sb_allocs", os.Mm_mem.Store.sb_allocs);
      ("sb_reuses", os.sb_reuses);
      ("mmap", os.mmap_calls);
      ("munmap", os.munmap_calls);
      ("bc.reserve_cas", sum bc_reserve_fails);
      ("bc.flush_cas", sum bc_flush_fails);
      ("minor_collections", (Gc.quick_stat ()).Gc.minor_collections);
    ]
  @
  let c =
    Option.value (Heaps.cache_stats heap)
      ~default:
        Heaps.Bc.
          {
            hits = 0;
            misses = 0;
            refills = 0;
            refilled_blocks = 0;
            flushes = 0;
            flushed_blocks = 0;
            remote_frees = 0;
          }
  in
  [
    ("hits", c.hits);
    ("misses", c.misses);
    ("refills", c.refills);
    ("flushes", c.flushes);
    ("remote_frees", c.remote_frees);
  ]

let diff (a : counters) (b : counters) : counters =
  List.map2 (fun (k, x) (_, y) -> (k, x - y)) a b

type result = {
  setup_s : float;  (** heap creation + domain spawn + prefill *)
  elapsed_s : float;  (** start barrier to the last domain's loop exit *)
  cpu_s : float;  (** CPU time of the timed loop, summed over domains *)
  speed : float;  (** [probe_speed] after the loop, mean over domains *)
  timed_ops : int;  (** malloc + free calls inside the timed loop *)
  attempted : int;  (** every malloc + free call, set-up and teardown too *)
  failed : int;
      (** raised calls, stamp mismatches and op-count mismatches *)
  errors : string list;  (** invariant violations and benchmark faults *)
  minor_words : float;  (** timed loop, summed over domains *)
  live_peak : int;
      (** requested bytes outstanding: each domain's high-water mark of
          the bytes it malloc'd minus the bytes it freed, summed *)
  malloc_hist : int array;  (** traced: per-call malloc spans, ns *)
  free_hist : int array;
  space : Mm_mem.Space.snapshot;
  delta : counters option;  (** traced: counters over the timed loop *)
}

let ops_per_s r = float r.timed_ops /. r.elapsed_s

(* Share of the timed loop the domains spent on a CPU. *)
let on_cpu r = r.cpu_s /. (float Inputs.domains *. r.elapsed_s)

(* Per-domain state. Each domain allocates its own, so the counters it
   writes on every call never share a cache line with its peer's. *)
type dom = {
  p : Inputs.per_domain;
  batch : int array;
  addrs : int array;
  seqs : int array;
  lens : int array;
  mutable pos : int;
  mutable seq : int;
  mutable mallocs : int;
  mutable frees : int;
  mutable failed : int;
  mutable live : int;
  mutable live_peak : int;
  mutable unsent : int;
  mutable timed_ops : int;
  mutable t_end : int;
  mutable cpu : int;
  mutable speed : float;
  mutable minor_words : float;
  mutable error : string option;
  malloc_hist : int array;
  free_hist : int array;
}

let make_dom (p : Inputs.per_domain) =
  {
    p;
    batch = Array.make (Array.length p.sizes) 0;
    addrs = Array.make (Array.length p.sizes) 0;
    seqs = Array.make (Array.length p.sizes) 0;
    lens = Array.make (Array.length p.sizes) 0;
    pos = 0;
    seq = 0;
    mallocs = 0;
    frees = 0;
    failed = 0;
    live = 0;
    live_peak = 0;
    unsent = -1;
    timed_ops = 0;
    t_end = 0;
    cpu = 0;
    speed = 0.;
    minor_words = 0.;
    error = None;
    malloc_hist = Hist.create ();
    free_hist = Hist.create ();
  }

(* One malloc through the instance, stamping the block with the
   domain's key and call number; 0 if the call raised. *)
let malloc_op inst traced d n =
  let stamp = d.p.key lxor d.seq in
  d.seq <- d.seq + 1;
  d.mallocs <- d.mallocs + 1;
  d.live <- d.live + n;
  if d.live > d.live_peak then d.live_peak <- d.live;
  match
    if traced then begin
      let t0 = now_ns () in
      let a = inst.I.malloc n in
      Hist.record d.malloc_hist (now_ns () - t0);
      a
    end
    else inst.I.malloc n
  with
  | a ->
      inst.I.write_word a stamp;
      a
  | exception _ ->
      d.failed <- d.failed + 1;
      0

(* Check the block's stamp, then free it through the instance; [n] is
   its request size. *)
let free_op inst traced d a ~n stamp =
  if a <> 0 then begin
    if inst.I.read_word a <> stamp then d.failed <- d.failed + 1;
    d.frees <- d.frees + 1;
    d.live <- d.live - n;
    match
      if traced then begin
        let t0 = now_ns () in
        inst.I.free a;
        Hist.record d.free_hist (now_ns () - t0)
      end
      else inst.I.free a
    with
    | () -> ()
    | exception _ -> d.failed <- d.failed + 1
  end

(* Threadtest: malloc a whole batch, then free it in order. *)
let threadtest_round inst traced d =
  let base = d.seq in
  for i = 0 to Array.length d.batch - 1 do
    d.batch.(i) <- malloc_op inst traced d d.p.sizes.(i)
  done;
  for i = 0 to Array.length d.batch - 1 do
    free_op inst traced d d.batch.(i) ~n:d.p.sizes.(i) (d.p.key lxor (base + i))
  done

(* Larson: replace a scripted slot with a block of a scripted size. *)
let larson_fill inst d =
  for s = 0 to Array.length d.addrs - 1 do
    d.seqs.(s) <- d.seq;
    d.lens.(s) <- d.p.sizes.(s);
    d.addrs.(s) <- malloc_op inst false d d.p.sizes.(s)
  done

let larson_steps inst traced d k =
  let mask = Array.length d.p.slots - 1 in
  for _ = 1 to k do
    let j = d.pos land mask in
    d.pos <- d.pos + 1;
    let s = d.p.slots.(j) in
    free_op inst traced d d.addrs.(s) ~n:d.lens.(s) (d.p.key lxor d.seqs.(s));
    d.seqs.(s) <- d.seq;
    d.lens.(s) <- d.p.step_sizes.(j);
    d.addrs.(s) <- malloc_op inst traced d d.p.step_sizes.(j)
  done

let larson_drain inst d =
  for s = 0 to Array.length d.addrs - 1 do
    free_op inst false d d.addrs.(s) ~n:d.lens.(s) (d.p.key lxor d.seqs.(s));
    d.addrs.(s) <- 0
  done

(* Remote-free: each domain mallocs a batch into one of its two buffers
   and hands it to its peer through a one-slot mailbox, then frees the
   batch the peer handed it. [busy.(d).(b)] holds while d's buffer b is
   with the peer. Every wait gives up once [stop] is set, which the first
   domain past the deadline does; teardown frees whatever is left. *)
type mail = {
  mbox : int Atomic.t array;  (** peer buffer waiting for domain d, or -1 *)
  busy : bool Atomic.t array array;
  bufs : int array array array;
  base : int array array;  (** call number of [bufs.(d).(b).(0)] *)
  stop : bool Atomic.t;
}

let make_mail n =
  let per f = Array.init Inputs.domains (fun _ -> Array.init 2 (fun _ -> f ())) in
  {
    mbox = Array.init Inputs.domains (fun _ -> Atomic.make (-1));
    busy = per (fun () -> Atomic.make false);
    bufs = per (fun () -> Array.make n 0);
    base = Array.init Inputs.domains (fun _ -> Array.make 2 0);
    stop = Atomic.make false;
  }

(* Spin until [ready ()], or give up (false) once the run is stopping. *)
let wait m deadline ready =
  let rec go spins =
    if ready () then true
    else if Atomic.get m.stop then false
    else begin
      if spins land 1023 = 1023 && now_ns () >= deadline then
        Atomic.set m.stop true;
      Domain.cpu_relax ();
      go (spins + 1)
    end
  in
  go 0

(* Remote-free batches are all of one size. *)
let free_buffer inst traced d buf ~key ~base =
  for i = 0 to Array.length buf - 1 do
    free_op inst traced d buf.(i) ~n:Inputs.remote_size (key lxor (base + i))
  done

let remote_loop inst traced m d ~me ~peer_key ~deadline =
  let peer = 1 - me in
  let rec round r =
    if now_ns () >= deadline then Atomic.set m.stop true;
    let b = r land 1 in
    let mine = m.busy.(me).(b) in
    if
      (not (Atomic.get m.stop))
      && wait m deadline (fun () -> not (Atomic.get mine))
    then begin
      let buf = m.bufs.(me).(b) in
      m.base.(me).(b) <- d.seq;
      for i = 0 to Array.length buf - 1 do
        buf.(i) <- malloc_op inst traced d d.p.sizes.(i)
      done;
      Atomic.set mine true;
      d.unsent <- b;
      let out = m.mbox.(peer) and inbox = m.mbox.(me) in
      if wait m deadline (fun () -> Atomic.get out < 0) then begin
        Atomic.set out b;
        d.unsent <- -1;
        if wait m deadline (fun () -> Atomic.get inbox >= 0) then begin
          let b' = Atomic.get inbox in
          Atomic.set inbox (-1);
          free_buffer inst traced d m.bufs.(peer).(b') ~key:peer_key
            ~base:m.base.(peer).(b');
          Atomic.set m.busy.(peer).(b') false;
          round (r + 1)
        end
      end
    end
  in
  round 0

let remote_teardown inst m d ~me ~peer_key =
  let peer = 1 - me in
  if d.unsent >= 0 then
    free_buffer inst false d m.bufs.(me).(d.unsent) ~key:d.p.key
      ~base:m.base.(me).(d.unsent);
  let b' = Atomic.get m.mbox.(me) in
  if b' >= 0 then begin
    free_buffer inst false d m.bufs.(peer).(b') ~key:peer_key
      ~base:m.base.(peer).(b');
    Atomic.set m.mbox.(me) (-1)
  end

(* [released] holds the release time in ns (0 until then). The last
   domain to arrive runs [on_release] while the others spin. *)
type barrier = { arrived : int Atomic.t; released : int Atomic.t }

let barrier () = { arrived = Atomic.make 0; released = Atomic.make 0 }

let await bar ~on_release =
  if Atomic.fetch_and_add bar.arrived 1 = Inputs.domains - 1 then begin
    on_release ();
    let t = now_ns () in
    Atomic.set bar.released t;
    t
  end
  else begin
    while Atomic.get bar.released = 0 do
      Domain.cpu_relax ()
    done;
    Atomic.get bar.released
  end

(* The host's speed, as elements per ns that Array.sort (heap sort, in
   place, allocation-free) gets through on a fixed cache-resident array
   in 20 ms. A shared host's speed moves by a tenth or more from one
   second to the next and over minutes, as other tenants load the cores
   it shares; the probe moves with it, so every worker domain runs it
   right after every timed loop. *)
let reference =
  let rng = Random.State.make [| 5 |] in
  Array.init 2048 (fun _ -> Random.State.bits rng)

let probe_speed () =
  let ns = 20_000_000 in
  let a = Array.make (Array.length reference) 0 in
  let t0 = now_ns () in
  let n = ref 0 in
  while now_ns () - t0 < ns do
    Array.blit reference 0 a 0 (Array.length a);
    Array.sort Int.compare a;
    n := !n + Array.length a
  done;
  float !n /. float (now_ns () - t0)

let guard d f =
  try f () with e -> if d.error = None then d.error <- Some (Printexc.to_string e)

let run (inputs : Inputs.t) ~cfg ~seg_s ~traced =
  let doms = Array.make Inputs.domains None in
  let mail = make_mail Inputs.remote_batch in
  let start = barrier () and finish = barrier () in
  let seg_ns = int_of_float (seg_s *. 1e9) in
  let before = ref None and after = ref None in
  let hooked = traced && cfg = "new-cached" in
  if hooked then begin
    Array.fill bc_reserve_fails 0 (Array.length bc_reserve_fails) 0;
    Array.fill bc_flush_fails 0 (Array.length bc_flush_fails) 0;
    Mm_runtime.Rt.Obs.set_hook (Some hook)
  end;
  (* Collect the previous segment's heap now, not during this timing. *)
  Gc.full_major ();
  let t0 = now_ns () in
  let heap = Heaps.create cfg in
  let inst = Heaps.instance cfg heap in
  let body me _ =
    let d = make_dom inputs.per_domain.(me) in
    doms.(me) <- Some d;
    let peer_key = inputs.per_domain.(1 - me).key in
    guard d (fun () ->
        match inputs.workload with
        | Threadtest -> threadtest_round inst false d
        | Larson -> larson_fill inst d
        | Remote_free ->
            let buf = mail.bufs.(me).(0) in
            let base = d.seq in
            for i = 0 to Array.length buf - 1 do
              buf.(i) <- malloc_op inst false d d.p.sizes.(i)
            done;
            free_buffer inst false d buf ~key:d.p.key ~base);
    let on_release () = if traced then before := Some (snapshot heap inst) in
    let go = await start ~on_release in
    let deadline = go + seg_ns in
    let ops0 = d.mallocs + d.frees and w0 = Gc.minor_words () in
    let c0 = cpu_ns () in
    guard d (fun () ->
        match inputs.workload with
        | Threadtest ->
            while now_ns () < deadline do
              threadtest_round inst traced d
            done
        | Larson ->
            while now_ns () < deadline do
              larson_steps inst traced d 1024
            done
        | Remote_free -> remote_loop inst traced mail d ~me ~peer_key ~deadline);
    d.t_end <- now_ns ();
    d.cpu <- cpu_ns () - c0;
    d.minor_words <- Gc.minor_words () -. w0;
    d.timed_ops <- d.mallocs + d.frees - ops0;
    let on_release () = if traced then after := Some (snapshot heap inst) in
    ignore (await finish ~on_release);
    d.speed <- probe_speed ();
    guard d (fun () ->
        match inputs.workload with
        | Threadtest -> ()
        | Larson -> larson_drain inst d
        | Remote_free -> remote_teardown inst mail d ~me ~peer_key)
  in
  let errors = ref [] in
  (try ignore (Rt.parallel_run () (Array.init Inputs.domains body))
   with e -> errors := Printexc.to_string e :: !errors);
  if hooked then Mm_runtime.Rt.Obs.set_hook None;
  let go = Atomic.get start.released in
  let doms = Array.map Option.get doms in
  Array.iter (fun d -> Option.iter (fun e -> errors := e :: !errors) d.error) doms;
  (match inst.I.check () with
  | () -> ()
  | exception e -> errors := ("check: " ^ Printexc.to_string e) :: !errors);
  let mallocs = Array.fold_left (fun a d -> a + d.mallocs) 0 doms in
  let frees = Array.fold_left (fun a d -> a + d.frees) 0 doms in
  let m, f = Heaps.op_counts heap in
  let merge pick =
    let h = Hist.create () in
    Array.iter (fun d -> Hist.add ~into:h (pick d)) doms;
    h
  in
  {
    setup_s = float (go - t0) *. 1e-9;
    elapsed_s =
      float (Array.fold_left (fun a d -> max a d.t_end) go doms - go) *. 1e-9;
    cpu_s = float (Array.fold_left (fun a d -> a + d.cpu) 0 doms) *. 1e-9;
    speed =
      Array.fold_left (fun a d -> a +. d.speed) 0. doms /. float Inputs.domains;
    timed_ops = Array.fold_left (fun a d -> a + d.timed_ops) 0 doms;
    attempted = mallocs + frees;
    failed =
      Array.fold_left (fun a d -> a + d.failed) 0 doms
      + abs (m - mallocs) + abs (f - frees);
    errors = !errors;
    minor_words = Array.fold_left (fun a d -> a +. d.minor_words) 0. doms;
    live_peak = Array.fold_left (fun a d -> a + d.live_peak) 0 doms;
    malloc_hist = merge (fun d -> d.malloc_hist);
    free_hist = merge (fun d -> d.free_hist);
    space = inst.I.space ();
    delta =
      (match (!before, !after) with
      | Some b, Some a -> Some (diff a b)
      | _ -> None);
  }
