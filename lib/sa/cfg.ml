(* Per-function control-flow graphs over the typed AST.

   Nodes carry the events the analyses reason about (atomic reads, CAS,
   labels, hazard-pointer traffic, plain stores, fences, calls); edges
   carry control flow, with backedges distinguished so the typestate
   automata can demote per-iteration facts:

   - strong backedges (while/for bodies, recursive retry loops): a new
     iteration of a CAS retry loop — read freshness and label windows
     reset;
   - weak backedges (inlined iterator lambdas: List.iter etc.): a data
     loop, not a retry loop — windows reset but an enclosing label still
     dominates every iteration (desc_pool.tagged_refill's pushes all
     belong to the caller's one labelled refill).

   Let-bound values are resolved at construction time (OCaml bindings
   are immutable, and construction follows scope), giving the analyses
   alias-aware values: an ident may name an atomic cell, the result of
   a specific read of a cell, or a pattern-extracted payload of one. *)

type lkind =
  | Kreg of string  (* registry constant: "Labels.desc_alloc" *)
  | Kparam of string  (* function parameter or record field: "pop_label" *)
  | Kother

type value =
  | Vcell of string  (* names an atomic cell, e.g. "p.head" *)
  | Vread of string * int  (* result of read node [id] on a cell *)
  | Vpayload of value  (* extracted from / wrapped over [value] *)
  | Vlabel of string  (* let-bound registry label constant *)
  | Vopaque

type ev =
  | Enop
  | Eread of { cell : string }
  | Ecas of {
      cell : string;
      expected : value;
      desired_deps : string list;
      used : bool;  (* false for ignore (CAS ...): a helping CAS *)
    }
  | Elabel of { kind : lkind }
  | Eprotect of { v : value }
  | Eclear
  | Ederef of { v : value; field : string }
  | Ewrite of { roots : string list }
  | Efence
  | Ecall of { fn : string list; labeled : (string * lkind) list }

type ekind = Seq | Back_strong | Back_weak

type node = {
  n_id : int;
  mutable n_ev : ev;  (* ignore (CAS ...) downgrades the node in place *)
  n_line : int;
  n_col : int;
  mutable n_succ : (ekind * int) list;
}

type t = { nodes : node array; entry : int; exits : int list }

type fn = {
  f_unit : string;  (* unqualified module name, e.g. "Desc_pool" *)
  f_file : string;
  f_name : string;
  cfg : t;
}

(* ------------------------------------------------------------------ *)

let value_key v =
  let rec go = function
    | Vcell c -> "cell:" ^ c
    | Vread (c, n) -> Printf.sprintf "read:%s:%d" c n
    | Vpayload v -> "pay:" ^ go v
    | Vlabel l -> "lab:" ^ l
    | Vopaque -> "opaque"
  in
  go v

let rec read_source = function
  | Vread (c, n) -> Some (c, n)
  | Vpayload v -> read_source v
  | _ -> None

(* ------------------------------------------------------------------ *)

(* [Typedtree] also defines a type called [value] (the pattern
   category); alias ours before opening it. *)
type avalue = value

open Typedtree

type ctx = {
  mutable nodes : node list;  (* reversed *)
  mutable n : int;
  venv : (string, avalue) Hashtbl.t;  (* Ident.unique_name -> value *)
  denv : (string, string list) Hashtbl.t;  (* ident -> dep roots *)
  fenv : (string, local_fn) Hashtbl.t;  (* local functions (inlined) *)
  mutable params : (string * string) list;  (* unique name -> source name *)
  mutable active : (string * int) list;  (* rec inlines -> entry node *)
  mutable depth : int;
}

and local_fn = { lf_expr : expression; lf_uniq : string }

let fresh_node ctx ev (loc : Location.t) preds =
  let id = ctx.n in
  ctx.n <- id + 1;
  let node =
    {
      n_id = id;
      n_ev = ev;
      n_line = loc.loc_start.pos_lnum;
      n_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
      n_succ = [];
    }
  in
  ctx.nodes <- node :: ctx.nodes;
  List.iter (fun p -> p.n_succ <- (Seq, id) :: p.n_succ) preds;
  node

let connect kind (src : node) (dst : node) =
  src.n_succ <- (kind, dst.n_id) :: src.n_succ

(* ------------------------------------------------------------------ *)
(* Expression utilities. *)

let rec strip e =
  match e.exp_desc with
  | Texp_open (_, e') -> strip e'
  | _ -> e

let ident_path e =
  match (strip e).exp_desc with
  | Texp_ident (p, _, _) -> Some (Tast.flatten_path p)
  | _ -> None

(* Free identifiers of an expression (deep), as unique names. *)
let free_idents e =
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _) ->
              acc := Ident.unique_name id :: !acc
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !acc

let dep_roots ctx e =
  List.sort_uniq String.compare
    (List.concat_map
       (fun u -> match Hashtbl.find_opt ctx.denv u with
         | Some roots -> roots
         | None -> [ u ])
       (free_idents e))

let is_array_get fn =
  Tast.ends_with ~suffix:[ "Array"; "get" ] fn
  || Tast.ends_with ~suffix:[ "Array"; "unsafe_get" ] fn

(* A stable name for the atomic cell an expression denotes. *)
let rec cell_key ctx e =
  let e = strip e in
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> (
      let u = Ident.unique_name id in
      match Hashtbl.find_opt ctx.venv u with
      | Some (Vcell c) -> Some c
      | _ -> Some u)
  | Texp_ident (p, _, _) -> Some (String.concat "." (Tast.flatten_path p))
  | Texp_field (b, _, lbl) -> (
      match cell_key ctx b with
      | Some k -> Some (k ^ "." ^ lbl.Types.lbl_name)
      | None -> None)
  | Texp_apply (f, [ (_, Some a); (_, Some i) ]) -> (
      match ident_path f with
      | Some fn when is_array_get fn -> (
          match (cell_key ctx a, cell_key ctx i) with
          | Some ka, Some ki -> Some (ka ^ ".(" ^ ki ^ ")")
          | Some ka, None -> Some (ka ^ ".(?)")
          | _ -> None)
      | _ -> None)
  | _ -> None

(* Classify an expression used as an Rt.label argument (or a labelled
   argument at a call site). *)
let label_kind ctx e =
  let e = strip e in
  let e =
    (* optional args arrive wrapped: ~l:(Some x) *)
    match e.exp_desc with
    | Texp_construct (_, { Types.cstr_name = "Some"; _ }, [ x ]) -> x
    | _ -> e
  in
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> (
      let u = Ident.unique_name id in
      match Hashtbl.find_opt ctx.venv u with
      | Some (Vlabel r) -> Kreg r
      | _ -> (
          match List.assoc_opt u ctx.params with
          | Some src -> Kparam src
          | None -> Kother))
  | Texp_ident (p, _, _) -> (
      match Tast.registry_const (Tast.flatten_path p) with
      | Some r -> Kreg r
      | None -> Kother)
  | Texp_field (_, _, lbl) -> Kparam lbl.Types.lbl_name
  | _ -> Kother

(* Iterator-style higher-order functions whose function argument we
   inline as a (weak) loop at the call point. *)
let hof_iterators =
  [
    [ "List"; "iter" ]; [ "List"; "iteri" ]; [ "List"; "map" ];
    [ "List"; "fold_left" ]; [ "List"; "fold_right" ]; [ "List"; "filter" ];
    [ "Array"; "iter" ]; [ "Array"; "iteri" ]; [ "Array"; "init" ];
    [ "Array"; "map" ]; [ "Option"; "iter" ]; [ "Option"; "map" ];
  ]

let is_hof fn = List.exists (fun s -> Tast.ends_with ~suffix:s fn) hof_iterators

(* ------------------------------------------------------------------ *)
(* Pattern binding. *)

let rec bind_pat : type k. ctx -> avalue -> k general_pattern -> unit =
 fun ctx v pat ->
  match pat.pat_desc with
  | Tpat_var (id, _) ->
      Hashtbl.replace ctx.venv (Ident.unique_name id) v;
      Hashtbl.replace ctx.denv (Ident.unique_name id)
        (match v with
        | Vread (c, _) | Vcell c -> [ c ]
        | _ -> [ Ident.unique_name id ])
  | Tpat_alias (p, id, _) ->
      Hashtbl.replace ctx.venv (Ident.unique_name id) v;
      bind_pat ctx v p
  | Tpat_construct (_, _, ps, _) ->
      List.iter (bind_pat ctx (Vpayload v)) ps
  | Tpat_variant (_, po, _) -> Option.iter (bind_pat ctx (Vpayload v)) po
  | Tpat_tuple ps | Tpat_array ps ->
      List.iter (bind_pat ctx (Vpayload v)) ps
  | Tpat_record (fields, _) ->
      List.iter (fun (_, _, p) -> bind_pat ctx (Vpayload v) p) fields
  | Tpat_lazy p -> bind_pat ctx (Vpayload v) p
  | Tpat_or (a, b, _) ->
      bind_pat ctx v a;
      bind_pat ctx v b
  | Tpat_value arg -> bind_pat ctx v (arg :> value general_pattern)
  | Tpat_exception p -> bind_pat ctx Vopaque p
  | Tpat_any | Tpat_constant _ -> ()

let bind_params ctx pat =
  (* a top-level function parameter: opaque, but remembered by name so
     Rt.label arguments that are parameters classify as Kparam *)
  let ids = pat_bound_idents pat in
  List.iter
    (fun id ->
      Hashtbl.replace ctx.venv (Ident.unique_name id) Vopaque;
      ctx.params <- (Ident.unique_name id, Ident.name id) :: ctx.params)
    ids

(* ------------------------------------------------------------------ *)
(* The walk: returns the CFG frontier after the expression and the
   abstract value the expression evaluates to. *)

let rec walk ctx preds e : node list * avalue =
  let e = strip e in
  let loc = e.exp_loc in
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> (
      let u = Ident.unique_name id in
      match Hashtbl.find_opt ctx.venv u with
      | Some v -> (preds, v)
      | None -> (preds, Vopaque))
  | Texp_ident (p, _, _) -> (
      let path = Tast.flatten_path p in
      match Tast.registry_const path with
      | Some r -> (preds, Vlabel r)
      | None -> (preds, Vopaque))
  | Texp_constant _ | Texp_unreachable | Texp_extension_constructor _ ->
      (preds, Vopaque)
  | Texp_function _ ->
      (* a lambda in value position: analyzed only if later inlined *)
      (preds, Vopaque)
  | Texp_let (rf, vbs, body) ->
      let preds = walk_bindings ctx preds rf vbs in
      walk ctx preds body
  | Texp_sequence (a, b) ->
      let preds, _ = walk ctx preds a in
      walk ctx preds b
  | Texp_ifthenelse (c, t, eo) ->
      let cpreds, _ = walk ctx preds c in
      let tpreds, _ = walk ctx cpreds t in
      let epreds =
        match eo with
        | Some el -> fst (walk ctx cpreds el)
        | None -> cpreds
      in
      (tpreds @ epreds, Vopaque)
  | Texp_match (scrut, cases, _) ->
      let spreds, sv = walk ctx preds scrut in
      let exits =
        List.concat_map
          (fun case ->
            (match split_pattern case.c_lhs with
            | Some vp, _ -> bind_pat ctx sv vp
            | None, _ -> ());
            (match case.c_lhs.pat_desc with
            | Tpat_exception p -> bind_pat ctx Vopaque p
            | _ -> ());
            let gpreds =
              match case.c_guard with
              | Some g -> fst (walk ctx spreds g)
              | None -> spreds
            in
            fst (walk ctx gpreds case.c_rhs))
          cases
      in
      (exits, Vopaque)
  | Texp_try (body, handlers) ->
      let bpreds, bv = walk ctx preds body in
      let hexits =
        List.concat_map
          (fun case ->
            bind_pat ctx Vopaque case.c_lhs;
            fst (walk ctx (preds @ bpreds) case.c_rhs))
          handlers
      in
      (bpreds @ hexits, bv)
  | Texp_while (cond, body) ->
      let head = fresh_node ctx Enop loc preds in
      let cpreds, _ = walk ctx [ head ] cond in
      let bexits, _ = walk ctx cpreds body in
      List.iter (fun b -> connect Back_strong b head) bexits;
      (cpreds, Vopaque)
  | Texp_for (_, _, lo, hi, _, body) ->
      (* a counted loop is a data traversal, not a CAS retry cycle:
         weak, like an inlined iterator lambda (retry loops in this
         codebase are recursive calls or while loops) *)
      let preds, _ = walk ctx preds lo in
      let preds, _ = walk ctx preds hi in
      let head = fresh_node ctx Enop loc preds in
      let bexits, _ = walk ctx [ head ] body in
      List.iter (fun b -> connect Back_weak b head) bexits;
      ([ head ], Vopaque)
  | Texp_construct (_, _, args) ->
      let preds, vs = walk_list ctx preds args in
      let v =
        match vs with [ v ] when v <> Vopaque -> Vpayload v | _ -> Vopaque
      in
      (preds, v)
  | Texp_variant (_, eo) -> (
      match eo with Some e -> walk ctx preds e | None -> (preds, Vopaque))
  | Texp_tuple es | Texp_array es ->
      let preds, _ = walk_list ctx preds es in
      (preds, Vopaque)
  | Texp_record { fields; extended_expression; _ } ->
      let preds =
        match extended_expression with
        | Some e -> fst (walk ctx preds e)
        | None -> preds
      in
      let preds =
        Array.fold_left
          (fun preds (_, def) ->
            match def with
            | Overridden (_, e) -> fst (walk ctx preds e)
            | Kept _ -> preds)
          preds fields
      in
      (preds, Vopaque)
  | Texp_field (b, _, lbl) ->
      let preds, bv = walk ctx preds b in
      let name = lbl.Types.lbl_name in
      let preds =
        if name = "next_d" then
          [ fresh_node ctx (Ederef { v = bv; field = name }) loc preds ]
        else preds
      in
      let v =
        match cell_key ctx b with
        | Some k -> Vcell (k ^ "." ^ name)
        | None -> Vopaque
      in
      (preds, v)
  | Texp_setfield (b, _, _, v) ->
      let preds, _ = walk ctx preds b in
      let preds, _ = walk ctx preds v in
      let roots = dep_roots ctx b in
      ([ fresh_node ctx (Ewrite { roots }) loc preds ], Vopaque)
  | Texp_assert (e, _) | Texp_lazy e ->
      let preds, _ = walk ctx preds e in
      (preds, Vopaque)
  | Texp_apply (f, args) -> walk_apply ctx preds e f args
  | Texp_letmodule (_, _, _, _, body) -> walk ctx preds body
  | Texp_letexception (_, body) -> walk ctx preds body
  | Texp_letop { let_; ands; body; _ } ->
      let preds, _ = walk ctx preds let_.bop_exp in
      let preds =
        List.fold_left
          (fun preds bop -> fst (walk ctx preds bop.bop_exp))
          preds ands
      in
      let exits = fst (walk ctx preds body.c_rhs) in
      (exits, Vopaque)
  | _ -> (walk_children ctx preds e, Vopaque)

and walk_bindings ctx preds rf vbs =
  List.fold_left
    (fun preds vb ->
      match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
      | Tpat_var (id, _), Texp_function _ ->
          (* local function: registered for call-site inlining *)
          Hashtbl.replace ctx.fenv (Ident.unique_name id)
            { lf_expr = vb.vb_expr; lf_uniq = Ident.unique_name id };
          ignore rf;
          preds
      | _ ->
          let preds', v = walk ctx preds vb.vb_expr in
          bind_pat ctx v vb.vb_pat;
          List.iter
            (fun id ->
              Hashtbl.replace ctx.denv (Ident.unique_name id)
                (dep_roots ctx vb.vb_expr))
            (pat_bound_idents vb.vb_pat);
          (* keep direct value aliases precise *)
          (match vb.vb_pat.pat_desc with
          | Tpat_var (id, _) when v <> Vopaque ->
              Hashtbl.replace ctx.venv (Ident.unique_name id) v
          | _ -> ());
          preds')
    preds vbs

and walk_list ctx preds es =
  let preds, rvs =
    List.fold_left
      (fun (preds, vs) e ->
        let preds, v = walk ctx preds e in
        (preds, v :: vs))
      (preds, []) es
  in
  (preds, List.rev rvs)

(* Fallback for constructs with no dedicated case: visit the immediate
   sub-expressions in declaration order. *)
and walk_children ctx preds e =
  let children = ref [] in
  let shallow =
    {
      Tast_iterator.default_iterator with
      expr = (fun _ c -> children := c :: !children);
    }
  in
  Tast_iterator.default_iterator.expr shallow e;
  List.fold_left
    (fun preds c -> fst (walk ctx preds c))
    preds (List.rev !children)

(* Inline a lambda argument of an iterator HOF as a weak loop: the body
   may run any number of times, but an enclosing label still dominates
   every iteration. *)
and inline_weak_loop ctx preds lam =
  let head = fresh_node ctx Enop lam.exp_loc preds in
  let rec peel e =
    match (strip e).exp_desc with
    | Texp_function { cases; _ } ->
        List.concat_map
          (fun case ->
            bind_pat ctx Vopaque case.c_lhs;
            peel case.c_rhs)
          cases
    | _ -> [ e ]
  in
  let bodies = peel lam in
  let bexits =
    List.concat_map (fun body -> fst (walk ctx [ head ] body)) bodies
  in
  List.iter (fun b -> connect Back_weak b head) bexits;
  head :: bexits

(* Inline a local function at a call site, binding parameters to the
   argument values. Recursive self-calls become strong backedges. *)
and inline_local ctx preds lf argvals loc =
  match List.assoc_opt lf.lf_uniq ctx.active with
  | Some entry_id ->
      (* recursive call: a retry-loop backedge *)
      let call = fresh_node ctx Enop loc preds in
      let entry = List.find (fun n -> n.n_id = entry_id) ctx.nodes in
      connect Back_strong call entry;
      [ call ]
  | None ->
      if ctx.depth > 40 then (
        ignore (argvals);
        preds)
      else begin
        ctx.depth <- ctx.depth + 1;
        let entry = fresh_node ctx Enop loc preds in
        ctx.active <- (lf.lf_uniq, entry.n_id) :: ctx.active;
        let rec apply preds e argvals =
          match ((strip e).exp_desc, argvals) with
          | Texp_function { cases = [ c ]; _ }, v :: rest ->
              bind_pat ctx v c.c_lhs;
              apply preds c.c_rhs rest
          | Texp_function { cases; _ }, v :: _ ->
              (* multi-case parameter (function ...): branch per case *)
              List.concat_map
                (fun case ->
                  bind_pat ctx v case.c_lhs;
                  fst (walk ctx preds case.c_rhs))
                cases
          | Texp_let (rf, vbs, body), _ :: _ ->
              (* defaults of optional parameters, between layers *)
              apply (walk_bindings ctx preds rf vbs) body argvals
          | _, _ -> fst (walk ctx preds e)
        in
        let exits = apply [ entry ] lf.lf_expr argvals in
        ctx.active <- List.remove_assoc lf.lf_uniq ctx.active;
        ctx.depth <- ctx.depth - 1;
        exits
      end

and walk_apply ctx preds e f args =
  let loc = e.exp_loc in
  let fn = match ident_path f with Some p -> p | None -> [] in
  (* ignore (CAS ...) marks a helping CAS *)
  if Tast.ends_with ~suffix:[ "ignore" ] fn then begin
    let preds, _ = walk_args ctx preds args in
    (match ctx.nodes with
    | ({ n_ev = Ecas c; _ } as n) :: _ ->
        n.n_ev <- Ecas { c with used = false }
    | _ -> ());
    (preds, Vopaque)
  end
  else if Tast.is_atomic_get fn then begin
    match args with
    | [ (_, Some cell_e) ] ->
        let preds, _ = walk ctx preds cell_e in
        let cell =
          match cell_key ctx cell_e with
          | Some k -> k
          | None -> Printf.sprintf "anon:%d" ctx.n
        in
        let node = fresh_node ctx (Eread { cell }) loc preds in
        ([ node ], Vread (cell, node.n_id))
    | _ ->
        let preds, _ = walk_args ctx preds args in
        (preds, Vopaque)
  end
  else if Tast.is_cas fn then begin
    match args with
    | [ (_, Some cell_e); (_, Some exp_e); (_, Some des_e) ] ->
        let preds, _ = walk ctx preds cell_e in
        let preds, expected = walk ctx preds exp_e in
        let preds, _ = walk ctx preds des_e in
        let cell =
          match cell_key ctx cell_e with
          | Some k -> k
          | None -> Printf.sprintf "anon:%d" ctx.n
        in
        let desired_deps = dep_roots ctx des_e in
        let node =
          fresh_node ctx
            (Ecas { cell; expected; desired_deps; used = true })
            loc preds
        in
        ([ node ], Vopaque)
    | _ ->
        let preds, _ = walk_args ctx preds args in
        (preds, Vopaque)
  end
  else if Tast.is_label fn then begin
    let kind =
      match args with
      | [ _; (_, Some lab_e) ] -> label_kind ctx lab_e
      | _ -> Kother
    in
    let preds, _ = walk_args ctx preds args in
    ([ fresh_node ctx (Elabel { kind }) loc preds ], Vopaque)
  end
  else if Tast.is_fence fn then begin
    let preds, _ = walk_args ctx preds args in
    ([ fresh_node ctx Efence loc preds ], Vopaque)
  end
  else if Tast.is_hp_protect fn then begin
    let preds, vs = walk_args ctx preds args in
    (* the protected value is the last positional argument *)
    let v =
      match
        List.filter_map
          (fun ((l : Asttypes.arg_label), v) ->
            match l with Asttypes.Nolabel -> Some v | _ -> None)
          vs
      with
      | [] -> Vopaque
      | l -> List.nth l (List.length l - 1)
    in
    ([ fresh_node ctx (Eprotect { v }) loc preds ], Vopaque)
  end
  else if Tast.is_hp_clear fn then begin
    let preds, _ = walk_args ctx preds args in
    ([ fresh_node ctx Eclear loc preds ], Vopaque)
  end
  else if Tast.is_plain_write fn then begin
    let preds, _ = walk_args ctx preds args in
    let roots =
      List.concat_map
        (fun (l, a) ->
          match (l, a) with
          | Asttypes.Nolabel, Some a -> dep_roots ctx a
          | _ -> [])
        args
    in
    ( [ fresh_node ctx (Ewrite { roots = List.sort_uniq compare roots }) loc
          preds ],
      Vopaque )
  end
  else begin
    (* local function known for inlining? *)
    let local =
      match (strip f).exp_desc with
      | Texp_ident (Path.Pident id, _, _) ->
          Hashtbl.find_opt ctx.fenv (Ident.unique_name id)
      | _ -> None
    in
    match local with
    | Some lf when List.for_all (fun (_, a) -> a <> None) args ->
        let preds, vs = walk_args ctx preds args in
        let argvals = List.map snd vs in
        (inline_local ctx preds lf argvals loc, Vopaque)
    | _ ->
        let inline_lambdas = is_hof fn in
        let preds =
          if fn = [] then fst (walk ctx preds f) else preds
        in
        let preds, vs =
          List.fold_left
            (fun (preds, vs) ((l : Asttypes.arg_label), arg) ->
              match arg with
              | None -> (preds, vs)
              | Some a -> (
                  match (strip a).exp_desc with
                  | Texp_function _ when inline_lambdas ->
                      (inline_weak_loop ctx preds a, (l, Vopaque) :: vs)
                  | _ ->
                      let preds, v = walk ctx preds a in
                      (preds, (l, v) :: vs)))
            (preds, []) args
        in
        ignore vs;
        let labeled =
          List.filter_map
            (fun ((l : Asttypes.arg_label), arg) ->
              match (l, arg) with
              | (Asttypes.Labelled name | Asttypes.Optional name), Some a ->
                  Some (name, label_kind ctx a)
              | _ -> None)
            args
        in
        if fn = [] then (preds, Vopaque)
        else ([ fresh_node ctx (Ecall { fn; labeled }) loc preds ], Vopaque)
  end

and walk_args ctx preds args =
  List.fold_left
    (fun (preds, vs) (l, arg) ->
      match arg with
      | None -> (preds, vs)
      | Some a ->
          let preds, v = walk ctx preds a in
          (preds, vs @ [ (l, v) ]))
    (preds, []) args

(* ------------------------------------------------------------------ *)
(* Top-level functions of a unit. *)

let build_function ~unit_name ~file ~name ?self expr =
  let ctx =
    {
      nodes = [];
      n = 0;
      venv = Hashtbl.create 64;
      denv = Hashtbl.create 64;
      fenv = Hashtbl.create 8;
      params = [];
      active = [];
      depth = 0;
    }
  in
  let entry = fresh_node ctx Enop expr.exp_loc [] in
  (* A top-level [let rec] retries by calling itself: register it so
     self-calls become strong backedges to the function entry. *)
  (match self with
  | Some uniq ->
      Hashtbl.replace ctx.fenv uniq { lf_expr = expr; lf_uniq = uniq };
      ctx.active <- [ (uniq, entry.n_id) ]
  | None -> ());
  (* Peel curried parameters. Optional arguments with defaults compile
     to lets interleaved between the function layers
     (fun ?(x=e) y -> b  ==>  fun *opt* -> let x = ... in fun y -> b),
     so the peel walks through lets whose body is still a function. *)
  let rec eventually_function e =
    match (strip e).exp_desc with
    | Texp_function _ -> true
    | Texp_let (_, _, body) -> eventually_function body
    | _ -> false
  in
  let rec peel preds e =
    match (strip e).exp_desc with
    | Texp_function { cases = [ c ]; _ } when c.c_guard = None ->
        bind_params ctx c.c_lhs;
        peel preds c.c_rhs
    | Texp_function { cases; _ } ->
        List.concat_map
          (fun case ->
            bind_params ctx case.c_lhs;
            fst (walk ctx preds case.c_rhs))
          cases
    | Texp_let (rf, vbs, body) when eventually_function body ->
        let preds = walk_bindings ctx preds rf vbs in
        peel preds body
    | _ -> fst (walk ctx preds e)
  in
  let exits = peel [ entry ] expr in
  let arr = Array.make ctx.n entry in
  List.iter (fun n -> arr.(n.n_id) <- n) ctx.nodes;
  {
    f_unit = unit_name;
    f_file = file;
    f_name = name;
    cfg =
      {
        nodes = arr;
        entry = entry.n_id;
        exits = List.map (fun n -> n.n_id) exits;
      };
  }

let is_function e =
  match (strip e).exp_desc with Texp_function _ -> true | _ -> false

(* Module aliases declared in a unit: [module Tis = Mm_lockfree.X] or,
   inside a functor body, [module Tis = Param_window.Make (Rt)]. A
   [Make (Rt : RUNTIME)] wrapper is transparent: its body's aliases
   keep their bare names, because that is how the body's own functions
   spell them at call sites. *)
let rec collect_aliases items =
  List.concat_map
    (fun item ->
      match item.str_desc with
      | Tstr_module mb -> alias_of_binding mb
      | Tstr_recmodule mbs -> List.concat_map alias_of_binding mbs
      | _ -> [])
    items

and alias_of_binding mb =
  match (mb.mb_id, mb.mb_expr.mod_desc) with
  | Some id, Tmod_ident (p, _) -> [ (Ident.name id, Tast.flatten_path p) ]
  | Some id, Tmod_apply _ -> (
      (* A functor application aliases the applied head:
         [module Tis = Param_window.Make (Rt)] maps Tis to
         Param_window.Make. Summary resolution keeps the
         innermost segment naming an analyzed unit, so the trailing
         functor name is harmless. *)
      match applied_head mb.mb_expr with
      | Some p -> [ (Ident.name id, p) ]
      | None -> [])
  | Some id, Tmod_structure str ->
      List.map
        (fun (a, p) -> (Ident.name id ^ "." ^ a, p))
        (collect_aliases str.str_items)
  | Some _, Tmod_functor (_, body) -> collect_aliases (body_items body)
  | Some _, Tmod_constraint (m, _, _, _) ->
      alias_of_binding { mb with mb_expr = m }
  | _ -> []

and applied_head me =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some (Tast.flatten_path p)
  | Tmod_apply (f, _, _) -> applied_head f
  | Tmod_constraint (m, _, _, _) -> applied_head m
  | _ -> None

(* Structure items of a module expression, looking through functor
   abstraction and signature constraints. *)
and body_items me =
  match me.mod_desc with
  | Tmod_structure s -> s.str_items
  | Tmod_functor (_, body) -> body_items body
  | Tmod_constraint (m, _, _, _) -> body_items m
  | _ -> []

let functions_of_unit (u : Tast.unit_t) =
  let rec of_items prefix items =
    List.concat_map
      (fun item ->
        match item.str_desc with
        | Tstr_value (rf, vbs) ->
            List.filter_map
              (fun vb ->
                match vb.vb_pat.pat_desc with
                | Tpat_var (id, _) when is_function vb.vb_expr ->
                    let self =
                      match rf with
                      | Asttypes.Recursive -> Some (Ident.unique_name id)
                      | Asttypes.Nonrecursive -> None
                    in
                    Some
                      (build_function ~unit_name:u.Tast.u_module
                         ~file:u.Tast.u_path
                         ~name:(prefix ^ Ident.name id)
                         ?self vb.vb_expr)
                | _ -> None)
              vbs
        | Tstr_module { mb_id = Some id; mb_expr; _ } ->
            (* A plain nested module prefixes its functions' names. A
               functor wrapper ([Make (Rt : RUNTIME)]) is transparent
               instead, so a functor body's pop summarizes under the
               bare key (its unit, "pop") that interprocedural demand
               resolution looks up. *)
            let rec descend me =
              match me.mod_desc with
              | Tmod_structure s ->
                  of_items (prefix ^ Ident.name id ^ ".") s.str_items
              | Tmod_functor (_, body) -> of_items prefix (body_items body)
              | Tmod_constraint (m, _, _, _) -> descend m
              | _ -> []
            in
            descend mb_expr
        | _ -> [])
      items
  in
  of_items "" u.Tast.u_str.str_items

(* Line spans of top-level structure items (suppression scoping). *)
let item_spans (u : Tast.unit_t) =
  List.map
    (fun item ->
      ( item.str_loc.Location.loc_start.pos_lnum,
        item.str_loc.Location.loc_end.pos_lnum ))
    u.Tast.u_str.str_items
