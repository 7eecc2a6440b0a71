open Mm_runtime
open Mm_mem.Alloc_intf

type event =
  | Malloc of { id : int; size : int; thread : int }
  | Free of { id : int; thread : int }

type t = { events : event array; threads : int; mallocs : int }

(* Size mixture: mostly small, some medium, a few large (beyond the
   size-class threshold). *)
let pick_size rng =
  let r = Prng.int rng 100 in
  if r < 80 then Prng.int_in rng 8 128
  else if r < 95 then Prng.int_in rng 128 2_040
  else Prng.int_in rng 2_041 16_384

let generate ?(seed = 1) ?(threads = 4) ?(ops = 2_000) ?(live_target = 200)
    ?(cross_thread_fraction = 0.3) () =
  if threads < 1 then invalid_arg "Trace.generate: threads";
  let rng = Prng.create seed in
  let events = ref [] in
  let live = ref [] in
  (* (id, allocating thread) *)
  let n_live = ref 0 in
  let next_id = ref 0 in
  let emit_malloc () =
    let id = !next_id in
    incr next_id;
    let thread = Prng.int rng threads in
    events := Malloc { id; size = pick_size rng; thread } :: !events;
    live := (id, thread) :: !live;
    incr n_live
  in
  let emit_free () =
    match !live with
    | [] -> ()
    | l ->
        let i = Prng.int rng (List.length l) in
        let id, owner = List.nth l i in
        live := List.filteri (fun j _ -> j <> i) l;
        decr n_live;
        let thread =
          if Prng.float rng 1.0 < cross_thread_fraction then
            Prng.int rng threads
          else owner
        in
        events := Free { id; thread } :: !events
  in
  for _ = 1 to ops do
    (* Drift toward the live target. *)
    let p_malloc =
      if !n_live >= 2 * live_target then 0.1
      else if !n_live <= live_target / 2 then 0.9
      else 0.5
    in
    if !n_live = 0 || Prng.float rng 1.0 < p_malloc then emit_malloc ()
    else emit_free ()
  done;
  (* Drain: free everything still live. *)
  while !live <> [] do
    emit_free ()
  done;
  { events = Array.of_list (List.rev !events); threads; mallocs = !next_id }

let to_string t =
  let buf = Buffer.create (Array.length t.events * 12) in
  Buffer.add_string buf
    (Printf.sprintf "trace %d %d %d\n" t.threads t.mallocs
       (Array.length t.events));
  Array.iter
    (fun e ->
      match e with
      | Malloc { id; size; thread } ->
          Buffer.add_string buf (Printf.sprintf "M %d %d %d\n" id size thread)
      | Free { id; thread } ->
          Buffer.add_string buf (Printf.sprintf "F %d %d\n" id thread))
    t.events;
  Buffer.contents buf

let of_string s =
  match String.split_on_char '\n' (String.trim s) with
  | [] -> failwith "Trace.of_string: empty"
  | header :: lines ->
      let threads, mallocs, n =
        match String.split_on_char ' ' header with
        | [ "trace"; a; b; c ] ->
            (int_of_string a, int_of_string b, int_of_string c)
        | _ -> failwith "Trace.of_string: bad header"
      in
      let events =
        List.map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ "M"; id; size; thread ] ->
                Malloc
                  {
                    id = int_of_string id;
                    size = int_of_string size;
                    thread = int_of_string thread;
                  }
            | [ "F"; id; thread ] ->
                Free { id = int_of_string id; thread = int_of_string thread }
            | _ -> failwith ("Trace.of_string: bad event: " ^ line))
          (List.filter (fun l -> l <> "") lines)
      in
      if List.length events <> n then
        failwith "Trace.of_string: event count mismatch";
      { events = Array.of_list events; threads; mallocs }

let max_live t =
  let live = ref 0 and peak = ref 0 in
  Array.iter
    (fun e ->
      (match e with
      | Malloc _ -> incr live
      | Free _ -> decr live);
      if !live > !peak then peak := !live)
    t.events;
  !peak

let total_bytes t =
  Array.fold_left
    (fun acc e -> match e with Malloc { size; _ } -> acc + size | Free _ -> acc)
    0 t.events

let run instance t =
  let (Rt.Backend ((module R), rt)) = Rt.backend instance.rt in
  (* Published payload addresses, indexed by block id; 0 = not yet
     allocated. Atomics give replay the needed publish/wait semantics. *)
  let table = Array.init t.mallocs (fun _ -> R.Atomic.make rt 0) in
  let per_thread = Array.make t.threads [] in
  Array.iter
    (fun e ->
      let th = match e with Malloc { thread; _ } | Free { thread; _ } -> thread in
      per_thread.(th) <- e :: per_thread.(th))
    t.events;
  let per_thread = Array.map List.rev per_thread in
  let body tid =
    List.iter
      (fun e ->
        match e with
        | Malloc { id; size; _ } ->
            R.Atomic.set table.(id) (instance.malloc size)
        | Free { id; _ } ->
            (* The allocating thread may not have got there yet. *)
            let rec wait () =
              let a = R.Atomic.get table.(id) in
              if a = 0 then begin
                R.yield rt;
                wait ()
              end
              else a
            in
            instance.free (wait ()))
      per_thread.(tid)
  in
  let run = R.parallel_run rt (Array.init t.threads (fun i _ -> body i)) in
  Metrics.make ~workload:"trace" ~instance ~threads:t.threads
    ~ops:(Array.length t.events) ~run ()
