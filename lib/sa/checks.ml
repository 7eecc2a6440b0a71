(* The S1-S4 typestate analyses over per-function CFGs (DESIGN.md §16).

   Each analysis is a forward may-analysis: states are small finite
   lattices joined by union, so a fact like "unprotected on some path"
   survives a join and is reported. S1 and S2 are per-function; S3 and
   S4 add one interprocedural demand fixpoint, so a function whose CAS
   window label is a parameter (S4), or whose CAS publishes a block
   passed to it (S3), pushes the obligation to its call sites.

   Everything per unit is computed once into [unit_facts]; only the
   demand fixpoints and the registry check look across units. The
   label-deletion walk re-analyzes one modified unit and reuses the
   other units' facts. *)

module SM = Map.Make (String)
module SS = Set.Make (String)

let finding analysis ~file ~line ~col msg =
  Finding.v ~rule:(Analysis.name analysis) ~file ~line ~col msg

let node_finding analysis (fn : Cfg.fn) (n : Cfg.node) msg =
  finding analysis ~file:fn.Cfg.f_file ~line:n.Cfg.n_line ~col:n.Cfg.n_col msg

(* ================================================================== *)
(* S1 hp-protocol: protect -> re-validating read -> deref; slot
   released consistently across exits.

   Per-value masks over {unprot, prot, valid} for values that derive
   from an atomic read of a shared cell. A value the analysis cannot
   trace to a read (a parameter, say) is checked against [gate]
   instead, the same mask over "some protect, then some atomic read":
   its dereference must follow a protect and a re-validating read on
   every path. Backedges demote valid -> prot: the slot still holds the
   value, but the validation belongs to the previous iteration. *)

let unprot = 1
let prot = 2
let valid = 4

type s1 = {
  hp : (int * string option) SM.t;  (* value key -> mask, source cell *)
  held : SS.t;  (* possibly-occupied hazard slots (by value key) *)
  gate : int;  (* mask for values with no traced source *)
}

let s1_join a b =
  {
    hp =
      SM.union
        (fun _ (m1, c1) (m2, c2) ->
          Some (m1 lor m2, if c1 = None then c2 else c1))
        a.hp b.hp;
    held = SS.union a.held b.held;
    gate = a.gate lor b.gate;
  }

let s1_equal a b =
  SM.equal ( = ) a.hp b.hp && SS.equal a.held b.held && a.gate = b.gate

let s1_demote m = (if m land valid <> 0 then prot else 0) lor (m land (prot lor unprot))

let s1_transfer (node : Cfg.node) s =
  match node.Cfg.n_ev with
  | Cfg.Eprotect { v } ->
      let key = Cfg.value_key v in
      {
        hp = SM.add key (prot, Option.map fst (Cfg.read_source v)) s.hp;
        (* single-slot approximation: a new protect supersedes *)
        held = SS.singleton key;
        gate = prot;
      }
  | Cfg.Eclear ->
      {
        hp = SM.map (fun (_, c) -> (unprot, c)) s.hp;
        held = SS.empty;
        gate = unprot;
      }
  | Cfg.Eread { cell } ->
      {
        s with
        hp =
          SM.map
            (fun (m, c) ->
              if m land prot <> 0 && c = Some cell then (valid, c) else (m, c))
            s.hp;
        gate =
          (if s.gate land (prot lor valid) <> 0 then valid else 0)
          lor (s.gate land unprot);
      }
  | _ -> s

let s1_edge kind s =
  match kind with
  | Cfg.Seq -> s
  | Cfg.Back_strong | Cfg.Back_weak ->
      {
        s with
        hp = SM.map (fun (m, c) -> (s1_demote m, c)) s.hp;
        gate = s1_demote s.gate;
      }

let s1_check (fn : Cfg.fn) =
  let cfg = fn.Cfg.cfg in
  let init = { hp = SM.empty; held = SS.empty; gate = unprot } in
  let ins =
    Dataflow.fixpoint cfg ~init ~equal:s1_equal ~join:s1_join
      ~transfer:s1_transfer ~edge:s1_edge
  in
  let out = ref [] in
  Array.iteri
    (fun i node ->
      match (ins.(i), node.Cfg.n_ev) with
      | Some s, Cfg.Ederef { v; field } when Cfg.read_source v <> None -> (
          match SM.find_opt (Cfg.value_key v) s.hp with
          | None ->
              out :=
                node_finding Analysis.Hp_protocol fn node
                  (Printf.sprintf
                     "dereference of .%s on a descriptor read from a shared \
                      cell without hazard protection (protect, then \
                      re-validate with a fresh read, before dereferencing)"
                     field)
                :: !out
          | Some (m, _) ->
              if m land unprot <> 0 then
                out :=
                  node_finding Analysis.Hp_protocol fn node
                    (Printf.sprintf
                       "dereference of .%s may happen without hazard \
                        protection on some path" field)
                  :: !out
              else if m land prot <> 0 then
                out :=
                  node_finding Analysis.Hp_protocol fn node
                    (Printf.sprintf
                       "descriptor is hazard-protected but not re-validated \
                        by a fresh read of its source cell before .%s is \
                        dereferenced" field)
                  :: !out)
      | Some s, Cfg.Ederef { field; _ } ->
          if s.gate land unprot <> 0 then
            out :=
              node_finding Analysis.Hp_protocol fn node
                (Printf.sprintf
                   "dereference of .%s on a descriptor the analysis cannot \
                    trace to a shared read (a parameter, say) with no \
                    hazard protect and re-validating read before it on \
                    some path"
                   field)
              :: !out
          else if s.gate land prot <> 0 then
            out :=
              node_finding Analysis.Hp_protocol fn node
                (Printf.sprintf
                   "hazard protect before .%s is not followed by a \
                    re-validating read on some path"
                   field)
              :: !out
      | _ -> ())
    cfg.Cfg.nodes;
  (* release on every path: flag exits that may still hold a slot when
     another exit releases it *)
  let exits = Dataflow.exit_outs cfg ~transfer:s1_transfer ins in
  let holding = List.filter (fun (_, s) -> not (SS.is_empty s.held)) exits in
  let releasing = List.exists (fun (_, s) -> SS.is_empty s.held) exits in
  if releasing && holding <> [] then
    List.iter
      (fun (node, _) ->
        out :=
          node_finding Analysis.Hp_protocol fn node
            "hazard slot is released on some return paths but may still be \
             held on this one"
          :: !out)
      holding;
  !out

(* ================================================================== *)
(* S2 cas-loop-progress, two obligations:

   (a) No stale-expected loop: a result-bearing CAS retried through a
   strong backedge must take its expected value from a read inside the
   same retry cycle, or the loop can never succeed once the word has
   changed. Checked structurally: for every strong backedge, the cycle
   is the set of nodes on a forward path from the backedge target to
   its source; a used CAS in the cycle whose expected value derives
   from a read outside the cycle is stale. Inner data loops (for,
   inlined iterators, a chaining helper) are cycles that do not contain
   the CAS, so reads made before them stay fresh.

   (b) At most one result-bearing CAS per labelled window (two commits
   under one label would be two linearization points with one name).
   Helping CASes (ignore (CAS ...)) are exempt from both. *)

let l_unarmed = 1
let l_armed = 2
let l_consumed = 4

let reachable adj start n =
  let seen = Array.make n false in
  let q = Queue.create () in
  Queue.add start q;
  seen.(start) <- true;
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    List.iter
      (fun j ->
        if not seen.(j) then begin
          seen.(j) <- true;
          Queue.add j q
        end)
      adj.(i)
  done;
  seen

let s2_stale_check (fn : Cfg.fn) =
  let cfg = fn.Cfg.cfg in
  let n = Array.length cfg.Cfg.nodes in
  let fwd = Array.make n [] and rev = Array.make n [] in
  let backs = ref [] in
  Array.iter
    (fun (node : Cfg.node) ->
      List.iter
        (fun (k, j) ->
          match k with
          | Cfg.Seq ->
              fwd.(node.Cfg.n_id) <- j :: fwd.(node.Cfg.n_id);
              rev.(j) <- node.Cfg.n_id :: rev.(j)
          | Cfg.Back_strong -> backs := (node.Cfg.n_id, j) :: !backs
          | Cfg.Back_weak -> ())
        node.Cfg.n_succ)
    cfg.Cfg.nodes;
  let out = ref [] in
  List.iter
    (fun (src, head) ->
      let from_head = reachable fwd head n in
      let to_src = reachable rev src n in
      let in_cycle i = from_head.(i) && to_src.(i) in
      Array.iter
        (fun (node : Cfg.node) ->
          match node.Cfg.n_ev with
          | Cfg.Ecas { expected; used = true; cell; _ }
            when in_cycle node.Cfg.n_id -> (
              match Cfg.read_source expected with
              | Some (_, rid) when rid < n && not (in_cycle rid) ->
                  out :=
                    node_finding Analysis.Cas_loop_progress fn node
                      (Printf.sprintf
                         "CAS on %s retries with an expected value read \
                          outside the retry loop: re-read the contended \
                          word on every iteration" cell)
                    :: !out
              | _ -> ())
          | _ -> ())
        cfg.Cfg.nodes)
    !backs;
  !out

let s2_transfer (node : Cfg.node) s =
  match node.Cfg.n_ev with
  | Cfg.Elabel _ -> l_armed
  | Cfg.Ecas { used = true; _ } ->
      s land (l_unarmed lor l_consumed)
      lor (if s land l_armed <> 0 then l_consumed else 0)
  | _ -> s

let s2_edge kind s =
  match kind with
  | Cfg.Seq | Cfg.Back_weak -> s
  | Cfg.Back_strong -> l_unarmed

let s2_check (fn : Cfg.fn) =
  let cfg = fn.Cfg.cfg in
  let ins =
    Dataflow.fixpoint cfg ~init:l_unarmed ~equal:( = ) ~join:( lor )
      ~transfer:s2_transfer ~edge:s2_edge
  in
  let out = ref (s2_stale_check fn) in
  Array.iteri
    (fun i node ->
      match (ins.(i), node.Cfg.n_ev) with
      | Some s, Cfg.Ecas { used = true; _ } ->
          if s land l_consumed <> 0 then
            out :=
              node_finding Analysis.Cas_loop_progress fn node
                "second result-bearing CAS in the same labelled window: \
                 each label covers exactly one linearizing CAS"
              :: !out
      | _ -> ())
    cfg.Cfg.nodes;
  !out

(* ================================================================== *)
(* The demand fixpoint S3 and S4 share. A function summary carries the
   demands its own body raises (each with the node it originates at)
   and its call nodes with the analysis state there. Each round walks
   every call that resolves to an analyzed function and asks the
   analysis what each of the callee's demands means at that call: met,
   a finding at the call, or new demands on the caller, which travel
   on to its own callers in the next round. *)

type origin = { o_line : int; o_col : int; o_why : string }

type ('d, 's) summary = {
  s_fn : Cfg.fn;
  s_calls : (Cfg.node * 's) list;
  s_init : ('d * origin) list;  (* newest first *)
}

type 'd verdict = Met | Flag of string | Lift of 'd list * string

(* Adds [d] unless already demanded (the first origin wins); says
   whether it did. *)
let add_demand demands d origin =
  (not (List.mem_assoc d !demands))
  && begin
       demands := (d, origin) :: !demands;
       true
     end

let summarize_calls (cfg : Cfg.t) ins =
  let calls = ref [] in
  Array.iteri
    (fun i (node : Cfg.node) ->
      match (ins.(i), node.Cfg.n_ev) with
      | Some st, Cfg.Ecall _ -> calls := (node, st) :: !calls
      | _ -> ())
    cfg.Cfg.nodes;
  List.rev !calls

(* [aliases] maps each unit to its module aliases (Cfg.collect_aliases). *)
let resolve_callee ~known ~aliases caller_module path =
  match List.rev path with
  | [] -> None
  | name :: rev_mods -> (
      let mods = List.rev rev_mods in
      match mods with
      | [] -> Some (caller_module, name)
      | first :: rest -> (
          let expanded =
            match
              Option.bind (SM.find_opt caller_module aliases)
                (List.assoc_opt first)
            with
            | Some target -> target @ rest
            | None -> mods
          in
          (* the innermost segment naming an analyzed unit wins:
             Mm_lockfree.Tagged_id_stack -> Tagged_id_stack *)
          match
            List.fold_left
              (fun acc seg -> if SS.mem seg known then Some seg else acc)
              None expanded
          with
          | Some m -> Some (m, name)
          | None -> None))

(* Returns each summary's final demands, the findings flagged at call
   sites, and the set of functions some analyzed call reaches. *)
let demand_fixpoint analysis ~resolve (summaries : ('d, 's) summary array)
    ~(at_call :
       caller:Cfg.fn -> Cfg.node -> 's -> string * string -> 'd -> origin ->
       'd verdict) =
  let by_key = Hashtbl.create 64 in
  Array.iteri
    (fun i s -> Hashtbl.replace by_key (s.s_fn.Cfg.f_unit, s.s_fn.Cfg.f_name) i)
    summaries;
  (* each summary's calls, resolved once: (node, state, callee, index) *)
  let called = Hashtbl.create 64 in
  let calls =
    Array.map
      (fun s ->
        List.filter_map
          (fun ((node : Cfg.node), st) ->
            match node.Cfg.n_ev with
            | Cfg.Ecall { fn = path; _ } ->
                Option.bind (resolve s.s_fn.Cfg.f_unit path) (fun key ->
                    Hashtbl.replace called key ();
                    Option.map
                      (fun j -> (node, st, key, j))
                      (Hashtbl.find_opt by_key key))
            | _ -> None)
          s.s_calls)
      summaries
  in
  let demands = Array.map (fun s -> ref s.s_init) summaries in
  let findings = ref [] in
  let flagged = Hashtbl.create 16 in
  let flag fn (node : Cfg.node) msg =
    let key = (fn.Cfg.f_file, node.Cfg.n_line, msg) in
    if not (Hashtbl.mem flagged key) then begin
      Hashtbl.replace flagged key ();
      findings := node_finding analysis fn node msg :: !findings
    end
  in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 64 do
    changed := false;
    incr rounds;
    Array.iteri
      (fun i s ->
        List.iter
          (fun ((node : Cfg.node), st, key, j) ->
            List.iter
              (fun (d, o) ->
                match at_call ~caller:s.s_fn node st key d o with
                | Met -> ()
                | Flag msg -> flag s.s_fn node msg
                | Lift (ds, why) ->
                    let o =
                      { o_line = node.Cfg.n_line; o_col = node.Cfg.n_col; o_why = why }
                    in
                    List.iter
                      (fun d -> if add_demand demands.(i) d o then changed := true)
                      ds)
              !(demands.(j)))
          calls.(i))
      summaries
  done;
  (Array.map ( ! ) demands, !findings, called)

(* ================================================================== *)
(* S3 write-before-publish: plain stores whose roots feed the desired
   value of a publishing CAS must be ordered by Rt.fence first.

   The state is the set of roots written since the last fence, plus
   [s3_entry] while no fence has run since function entry. A CAS whose
   desired value depends on a parameter, reached with [s3_entry] set,
   demands that callers fence their stores into that argument; a
   caller passing a root it wrote is reported at the call, and one
   passing its own parameter lifts the demand to its callers. A strong
   backedge clears the roots its loop body binds afresh: a retry that
   takes a new descriptor out of a list does not publish the stores
   into the previous one. *)

let s3_entry = "<entry>"

type s3_demand = Dpub of Cfg.akey

let s3_transfer (node : Cfg.node) s =
  match node.Cfg.n_ev with
  | Cfg.Ewrite { roots } -> SS.union s (SS.of_list roots)
  | Cfg.Efence -> SS.empty
  | _ -> s

let s3_summarize (fn : Cfg.fn) =
  let cfg = fn.Cfg.cfg in
  let ins =
    Dataflow.fixpoint cfg ~init:(SS.singleton s3_entry) ~equal:SS.equal
      ~join:SS.union ~transfer:s3_transfer ~edge:(fun _ s -> s)
      ~rebind:(fun names s -> SS.diff s (SS.of_list names))
  in
  let out = ref [] and init = ref [] in
  Array.iteri
    (fun i node ->
      match (ins.(i), node.Cfg.n_ev) with
      | Some s, Cfg.Ecas { cell; desired_deps; _ } ->
          let dirty = List.filter (fun r -> SS.mem r s) desired_deps in
          if dirty <> [] then
            out :=
              node_finding Analysis.Write_before_publish fn node
                (Printf.sprintf
                   "plain stores into the block being published by the CAS \
                    on %s are not ordered by Rt.fence on every path to the \
                    publish" cell)
              :: !out;
          if SS.mem s3_entry s then
            List.iter
              (fun (k, u) ->
                if List.mem u desired_deps then
                  let o =
                    {
                      o_line = node.Cfg.n_line;
                      o_col = node.Cfg.n_col;
                      o_why = Printf.sprintf "CAS on %s" cell;
                    }
                  in
                  ignore (add_demand init (Dpub k) o))
              fn.Cfg.f_params
      | _ -> ())
    cfg.Cfg.nodes;
  ({ s_fn = fn; s_calls = summarize_calls cfg ins; s_init = !init }, !out)

let s3_at_call ~(caller : Cfg.fn) (node : Cfg.node) st (m, f) (Dpub k) o =
  match node.Cfg.n_ev with
  | Cfg.Ecall { args; _ } -> (
      match List.assoc_opt k args with
      | None -> Met
      | Some roots ->
          if List.exists (fun r -> SS.mem r st) roots then
            Flag
              (Printf.sprintf
                 "plain stores into the block passed to %s.%s are not \
                  ordered by Rt.fence on every path to the call; its %s \
                  publishes the block"
                 m f o.o_why)
          else if SS.mem s3_entry st then
            Lift
              ( List.filter_map
                  (fun r ->
                    List.find_map
                      (fun (k', u) -> if u = r then Some (Dpub k') else None)
                      caller.Cfg.f_params)
                  roots,
                Printf.sprintf "call to %s.%s (its %s)" m f o.o_why )
          else Met)
  | _ -> Met

(* ================================================================== *)
(* S4 label-dominance: every CAS is dominated by an Rt.label on every
   CFG path, re-established inside each retry loop. Intraprocedurally
   the armed state is a may-set over

     uentry     no label since function entry
     uback      no label since a retry backedge
     reg        dominated by a registry-constant label
     param:<p>  dominated by a label taken from parameter/field <p>
     other      dominated by a label the analysis cannot classify

   uback at a CAS is an immediate finding. uentry and param demands
   flow to call sites: the interprocedural fixpoint discharges them
   with a registry-labelled argument or a dominating registry label at
   the call site. *)

let t_uentry = "uentry"
let t_uback = "uback"
let t_reg = "reg"
let t_other = "other"
let t_param p = "param:" ^ p

let s4_transfer (node : Cfg.node) s =
  match node.Cfg.n_ev with
  | Cfg.Elabel { kind } ->
      SS.singleton
        (match kind with
        | Cfg.Kreg _ -> t_reg
        | Cfg.Kparam p -> t_param p
        | Cfg.Kother -> t_other)
  | _ -> s

let s4_edge kind s =
  match kind with
  | Cfg.Seq | Cfg.Back_weak -> s
  | Cfg.Back_strong -> SS.singleton t_uback

let param_tokens s =
  SS.fold
    (fun t acc ->
      if String.length t > 6 && String.sub t 0 6 = "param:" then
        String.sub t 6 (String.length t - 6) :: acc
      else acc)
    s []

type s4_demand = Dentry | Dparam of string

let s4_summarize (fn : Cfg.fn) =
  let cfg = fn.Cfg.cfg in
  let ins =
    Dataflow.fixpoint cfg ~init:(SS.singleton t_uentry) ~equal:SS.equal
      ~join:SS.union ~transfer:s4_transfer ~edge:s4_edge
  in
  let findings = ref [] and init = ref [] in
  let demand d o = ignore (add_demand init d o) in
  Array.iteri
    (fun i node ->
      match (ins.(i), node.Cfg.n_ev) with
      | Some armed, Cfg.Ecas { cell; _ } ->
          let origin why = { o_line = node.Cfg.n_line; o_col = node.Cfg.n_col; o_why = why } in
          if SS.mem t_uback armed then
            findings :=
              node_finding Analysis.Label_dominance fn node
                (Printf.sprintf
                   "CAS on %s is not dominated by an Rt.label inside its \
                    retry loop: the label must be re-established on every \
                    iteration" cell)
              :: !findings
          else begin
            if SS.mem t_uentry armed then
              demand Dentry (origin (Printf.sprintf "CAS on %s" cell));
            List.iter
              (fun p ->
                demand (Dparam p)
                  (origin (Printf.sprintf "CAS on %s labelled by %s" cell p)))
              (param_tokens armed)
          end
      | _ -> ())
    cfg.Cfg.nodes;
  ({ s_fn = fn; s_calls = summarize_calls cfg ins; s_init = !init }, !findings)

let is_kreg = function Cfg.Kreg _ -> true | _ -> false

let s4_at_call ~caller:_ (node : Cfg.node) armed (m, f) d o =
  let labeled =
    match node.Cfg.n_ev with Cfg.Ecall { labeled; _ } -> labeled | _ -> []
  in
  let discharged =
    match d with
    | Dparam p -> List.exists (fun (n, k) -> n = p && is_kreg k) labeled
    | Dentry -> false
  in
  if discharged then Met
  else
    let what =
      match d with
      | Dparam p -> Printf.sprintf "%s.%s (its %s is a label parameter)" m f p
      | Dentry ->
          Printf.sprintf "%s.%s (its %s relies on a label armed by the caller)"
            m f o.o_why
    in
    if SS.mem t_uback armed then
      Flag
        (Printf.sprintf
           "call to %s inside a retry loop without a dominating Rt.label" what)
    else
      Lift
        ( (if SS.mem t_uentry armed then [ Dentry ] else [])
          @ List.map (fun q -> Dparam q) (param_tokens armed),
          "call to " ^ what )

(* Entry demands that no analyzed caller can vouch for: if nothing in
   the analyzed units calls the function at all, the obligation escapes
   to the public API and is reported at its origins. Param demands at
   roots are fine: the parameter's default is a registry constant. *)
let s4_escaped summaries demands called =
  List.concat
    (List.mapi
       (fun i s ->
         let fn = s.s_fn in
         if Hashtbl.mem called (fn.Cfg.f_unit, fn.Cfg.f_name) then []
         else
           List.filter_map
             (fun (d, o) ->
               match d with
               | Dentry ->
                   Some
                     (finding Analysis.Label_dominance ~file:fn.Cfg.f_file
                        ~line:o.o_line ~col:o.o_col
                        (Printf.sprintf
                           "%s reaches an exported entry point %s.%s with no \
                            dominating Rt.label on some path"
                           o.o_why fn.Cfg.f_unit fn.Cfg.f_name))
               | Dparam _ -> None)
             demands.(i))
       (Array.to_list summaries))

(* ================================================================== *)

type unit_facts = {
  uf_module : string;
  uf_aliases : (string * string list) list;
  uf_local : Finding.t list;  (* everything decided within the unit *)
  uf_s3 : (s3_demand, SS.t) summary list;
  uf_s4 : (s4_demand, SS.t) summary list;
  uf_names : Names.facts;
}

let unit_facts (u : Tast.unit_t) =
  let names = Names.unit_facts u in
  (* the flow analyses cover the lock-free sections *)
  let fns =
    if Tast.in_lockfree_scope u.Tast.u_section then Cfg.functions_of_unit u
    else []
  in
  let s3 = List.map s3_summarize fns and s4 = List.map s4_summarize fns in
  {
    uf_module = u.Tast.u_module;
    uf_aliases = Cfg.collect_aliases u.Tast.u_str.str_items;
    uf_local =
      names.Names.findings
      @ List.concat_map (fun fn -> s1_check fn @ s2_check fn) fns
      @ List.concat_map snd s3 @ List.concat_map snd s4;
    uf_s3 = List.map fst s3;
    uf_s4 = List.map fst s4;
    uf_names = names;
  }

let findings ~analyses (facts : unit_facts list) =
  let want a = List.mem a analyses in
  let aliases =
    List.fold_left (fun acc f -> SM.add f.uf_module f.uf_aliases acc) SM.empty facts
  in
  let s3 = Array.of_list (List.concat_map (fun f -> f.uf_s3) facts) in
  let s4 = Array.of_list (List.concat_map (fun f -> f.uf_s4) facts) in
  let known =
    SS.of_list (Array.to_list (Array.map (fun s -> s.s_fn.Cfg.f_unit) s4))
  in
  let resolve = resolve_callee ~known ~aliases in
  let s3_calls =
    if want Analysis.Write_before_publish then
      let _, found, _ =
        demand_fixpoint Analysis.Write_before_publish ~resolve s3
          ~at_call:s3_at_call
      in
      found
    else []
  in
  let s4_calls =
    if want Analysis.Label_dominance then
      let demands, found, called =
        demand_fixpoint Analysis.Label_dominance ~resolve s4
          ~at_call:s4_at_call
      in
      found @ s4_escaped s4 demands called
    else []
  in
  let registry =
    if want Analysis.Label_registry then
      Names.registry_findings (List.map (fun f -> f.uf_names) facts)
    else []
  in
  let wanted (f : Finding.t) =
    List.exists (fun a -> Analysis.name a = f.Finding.rule) analyses
  in
  List.sort_uniq Finding.compare
    (List.filter wanted (List.concat_map (fun f -> f.uf_local) facts)
    @ s3_calls @ s4_calls @ registry)
