(* A small forward may-analysis engine over Cfg.t. States form a finite
   join-semilattice supplied by the client; [edge] lets backedges demote
   facts (read freshness, label windows) differently from sequential
   flow, and [rebind] drops the facts about the names a strong backedge
   binds afresh ({!Cfg.rebound}). Returns the in-state of every
   reachable node ([None] for unreachable ones). *)

let fixpoint ?(rebind = fun _ s -> s) (cfg : Cfg.t) ~(init : 's)
    ~(equal : 's -> 's -> bool)
    ~(join : 's -> 's -> 's) ~(transfer : Cfg.node -> 's -> 's)
    ~(edge : Cfg.ekind -> 's -> 's) : 's option array =
  let n = Array.length cfg.nodes in
  let ins = Array.make n None in
  if n = 0 then ins
  else begin
    ins.(cfg.entry) <- Some init;
    let work = Queue.create () in
    let inq = Array.make n false in
    Queue.add cfg.entry work;
    inq.(cfg.entry) <- true;
    (* the lattices here are tiny; the bound is a pure safety net *)
    let fuel = ref ((n + 1) * 256) in
    while (not (Queue.is_empty work)) && !fuel > 0 do
      decr fuel;
      let i = Queue.pop work in
      inq.(i) <- false;
      match ins.(i) with
      | None -> ()
      | Some s ->
          let node = cfg.nodes.(i) in
          let out = transfer node s in
          List.iter
            (fun (kind, j) ->
              let contrib = edge kind out in
              let contrib =
                match kind with
                | Cfg.Back_strong -> (
                    match Cfg.rebound cfg ~src:i ~dst:j with
                    | [] -> contrib
                    | names -> rebind names contrib)
                | Cfg.Seq | Cfg.Back_weak -> contrib
              in
              let updated =
                match ins.(j) with
                | None -> Some contrib
                | Some old ->
                    let merged = join old contrib in
                    if equal old merged then None else Some merged
              in
              match updated with
              | None -> ()
              | Some s' ->
                  ins.(j) <- Some s';
                  if not inq.(j) then begin
                    Queue.add j work;
                    inq.(j) <- true
                  end)
            node.n_succ
    done;
    ins
  end

(* Out-states of the function's exit frontier (for exit-invariant
   checks such as "hazard slot released on every return path"). *)
let exit_outs (cfg : Cfg.t) ~(transfer : Cfg.node -> 's -> 's)
    (ins : 's option array) : (Cfg.node * 's) list =
  List.filter_map
    (fun i ->
      match ins.(i) with
      | Some s -> Some (cfg.nodes.(i), transfer cfg.nodes.(i) s)
      | None -> None)
    cfg.exits
