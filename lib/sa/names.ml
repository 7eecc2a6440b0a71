(* The four checks on names (DESIGN.md §16): raw-primitive,
   blocking-in-lockfree, label-registry and sim-capability. They need no
   flow: each matches the paths a unit's typed tree references, as
   written. Values, types and modules carry their resolved [Path.t],
   constructors and fields their longident, and aliases are never
   expanded: [Rt.Atomic] resolves into Real_rt, which may use
   Stdlib.Atomic. *)

open Typedtree

type reference = { path : string list; line : int; col : int }

(* One top-level item's references, and the Texp_apply nodes of named
   functions among them (the reference is the applied function's). *)
type item = {
  refs : reference list;
  apps : (reference * (Asttypes.arg_label * expression option) list) list;
}

let at (loc : Location.t) path =
  {
    path;
    line = loc.loc_start.pos_lnum;
    col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
  }

let rec lid_path = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> lid_path l @ [ s ]
  | Longident.Lapply (l, _) -> lid_path l

let collect_item (si : structure_item) =
  let refs = ref [] and apps = ref [] in
  let add loc path = refs := at loc path :: !refs in
  let super = Tast_iterator.default_iterator in
  let it =
    {
      super with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (p, lid, _) -> add lid.loc (Tast.flatten_path p)
          | Texp_construct (lid, _, _) | Texp_field (_, lid, _) ->
              add lid.loc (lid_path lid.txt)
          | _ -> ());
          (match e.exp_desc with
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
              apps := (at e.exp_loc (Tast.flatten_path p), args) :: !apps
          | _ -> ());
          super.expr self e);
      typ =
        (fun self t ->
          (match t.ctyp_desc with
          | Ttyp_constr (p, lid, _) -> add lid.loc (Tast.flatten_path p)
          | _ -> ());
          super.typ self t);
      module_expr =
        (fun self m ->
          (match m.mod_desc with
          | Tmod_ident (p, lid) -> add lid.loc (Tast.flatten_path p)
          | _ -> ());
          super.module_expr self m);
    }
  in
  it.structure_item it si;
  { refs = List.rev !refs; apps = List.rev !apps }

let finding analysis file r msg =
  Finding.v ~rule:(Analysis.name analysis) ~file ~line:r.line ~col:r.col msg

let flag analysis file refs ~when_ msg =
  List.filter_map
    (fun r ->
      if when_ r.path then
        Some (finding analysis file r (msg (String.concat "." r.path)))
      else None)
    refs

(* raw-primitive: multicore primitives are confined to the real runtime
   backend. Everything else, baselines and the rest of lib/runtime
   included, goes through Rt so it runs under both backends. *)
let is_raw =
  let roots = [ "Atomic"; "Domain"; "Mutex"; "Condition"; "Thread" ] in
  function
  | "Stdlib" :: root :: _ | root :: _ -> List.mem root roots
  | [] -> false

(* blocking-in-lockfree: the lock-free sections never reach the
   blocking lock substrate (dune's dependency graph forbids it too;
   this holds at the source level). *)
let is_blocking = function
  | ("Locks" | "Mm_baselines") :: _ -> true
  | _ -> false

(* sim-capability: the simulator's control facilities belong to one
   backend, not to the Rt surface. Outside lib/runtime (which
   implements them) and lib/check (which exists to drive them), an
   item that touches any of them must consult [Rt.controllable]. *)
let is_sim_facility path =
  match List.rev path with
  | x :: "Sim" :: _ ->
      List.mem x
        [
          "current"; "Kill"; "Block_until"; "Continue"; "action";
          "sched_point"; "sp_runnable"; "sp_current"; "sp_label";
        ]
  | _ -> false

(* The typed tree fills each omitted optional argument of a full
   application with [None]; that is not a hook. *)
let is_hook ((l : Asttypes.arg_label), arg) =
  match (l, arg) with
  | ( (Labelled ("on_label" | "sched") | Optional ("on_label" | "sched")),
      Some e ) -> (
      match e.exp_desc with
      | Texp_construct (_, { Types.cstr_name = "None"; _ }, []) -> false
      | _ -> true)
  | _ -> false

let sim_capability file it =
  if
    List.exists
      (fun r -> Tast.ends_with ~suffix:[ "Rt"; "controllable" ] r.path)
      it.refs
  then []
  else
    let gate = "gate sim-only behaviour on Rt.controllable" in
    flag Analysis.Sim_capability file it.refs ~when_:is_sim_facility
      (fun p ->
        Printf.sprintf
          "simulator control facility %s outside lib/runtime and lib/check; %s"
          p gate)
    @ List.filter_map
        (fun (r, args) ->
          if
            Tast.ends_with ~suffix:[ "Sim"; "create" ] r.path
            && List.exists is_hook args
          then
            Some
              (finding Analysis.Sim_capability file r
                 ("Sim.create with a control hook (~on_label / ~sched) \
                   outside lib/runtime and lib/check; " ^ gate))
          else None)
        it.apps

(* label-registry, per-unit half: Rt.label is fed from the registries,
   never a literal, so they enumerate every instrumentation point. *)
let literal_labels file it =
  List.concat_map
    (fun (r, args) ->
      if not (Tast.is_label r.path) then []
      else
        List.filter_map
          (function
            | _, Some { exp_desc = Texp_constant (Const_string (s, _, _)); _ }
              ->
                Some
                  (finding Analysis.Label_registry file r
                     (Printf.sprintf
                        "literal label %S; labels come from Labels, \
                         Lf_labels or Pg_labels so the checker can \
                         enumerate every instrumentation point"
                        s))
            | _ -> None)
          args)
    it.apps

(* ------------------------------------------------------------------ *)
(* label-registry, cross-unit half: the registries (lib/core/labels.ml,
   lib/lockfree/lf_labels.ml, lib/pages/pg_labels.ml) are exact. Every
   entry is a distinct string, listed in [all], and referenced from the
   lock-free sections: the fault-injection suites and the schedule
   explorer iterate [all], so a stale or missing entry silently shrinks
   their coverage. *)

type registry = {
  rmodule : string;
  entries : (string * string * reference) list;  (* name, string, site *)
  all : (string list * reference) option;  (* [all]'s names and site *)
}

type facts = {
  findings : Finding.t list;  (* everything decided within the unit *)
  registry : (registry * string) option;  (* and its file *)
  uses : (string * string) list;
      (* adjacent (registry module, entry) pairs in the paths a
         lock-free, non-registry unit references *)
}

let registry_module (u : Tast.unit_t) =
  match (u.Tast.u_section, Filename.basename u.Tast.u_path) with
  | "core", "labels.ml" -> Some "Labels"
  | "lockfree", "lf_labels.ml" -> Some "Lf_labels"
  | "pages", "pg_labels.ml" -> Some "Pg_labels"
  | _ -> None

let rec list_idents e =
  match e.exp_desc with
  | Texp_construct (_, { Types.cstr_name = "::"; _ }, [ hd; tl ]) -> (
      match hd.exp_desc with
      | Texp_ident (Path.Pident id, _, _) -> Ident.name id :: list_idents tl
      | _ -> list_idents tl)
  | _ -> []

let parse_registry rmodule (u : Tast.unit_t) =
  let bindings =
    List.concat_map
      (fun si ->
        match si.str_desc with
        | Tstr_value (_, vbs) ->
            List.filter_map
              (fun vb ->
                match vb.vb_pat.pat_desc with
                | Tpat_var (id, { loc; _ }) ->
                    Some (Ident.name id, at loc [], vb.vb_expr)
                | _ -> None)
              vbs
        | _ -> [])
      u.Tast.u_str.str_items
  in
  {
    rmodule;
    entries =
      List.filter_map
        (fun (name, r, e) ->
          match e.exp_desc with
          | Texp_constant (Const_string (v, _, _)) -> Some (name, v, r)
          | _ -> None)
        bindings;
    all =
      List.find_map
        (fun (name, r, e) ->
          if name = "all" then Some (list_idents e, r) else None)
        bindings;
  }

let uses_of items =
  let rec pairs = function
    | m :: (n :: _ as rest) ->
        (if List.mem m Tast.registry_modules then [ (m, n) ] else [])
        @ pairs rest
    | _ -> []
  in
  List.sort_uniq compare
    (List.concat_map (fun it -> List.concat_map (fun r -> pairs r.path) it.refs)
       items)

let unit_facts (u : Tast.unit_t) =
  let file = u.Tast.u_path in
  let items = List.map collect_item u.Tast.u_str.str_items in
  let section = u.Tast.u_section in
  let lockfree = Tast.in_lockfree_scope section in
  let raw_allowed =
    section = "runtime"
    && List.mem (Filename.basename u.Tast.u_path) [ "real_rt.ml"; "rt_base.ml" ]
  in
  let findings =
    List.concat_map
      (fun it ->
        (if raw_allowed then []
         else
           flag Analysis.Raw_primitive file it.refs ~when_:is_raw
             (Printf.sprintf
                "raw primitive %s outside the real runtime backend \
                 (lib/runtime/real_rt.ml, rt_base.ml); go through Rt so \
                 the code also runs under the simulated runtime"))
        @ (if lockfree then
             flag Analysis.Blocking_in_lockfree file it.refs ~when_:is_blocking
               (Printf.sprintf
                  "blocking %s reachable from lock-free code; lock-freedom \
                   must hold by construction")
             @ literal_labels file it
           else [])
        @
        if section = "runtime" || section = "check" then []
        else sim_capability file it)
      items
  in
  let registry =
    Option.map (fun m -> (parse_registry m u, file)) (registry_module u)
  in
  {
    findings;
    registry;
    uses = (if lockfree && Option.is_none registry then uses_of items else []);
  }

let registry_findings (all : facts list) =
  let uses = Hashtbl.create 256 and seen = Hashtbl.create 64 in
  List.iter (fun f -> List.iter (fun p -> Hashtbl.replace uses p ()) f.uses) all;
  List.concat_map
    (fun f ->
      match f.registry with
      | None -> []
      | Some (reg, file) ->
          let add r fmt =
            Printf.ksprintf
              (fun m -> [ finding Analysis.Label_registry file r m ])
              fmt
          in
          let listed = Option.map fst reg.all in
          List.concat_map
            (fun (name, v, r) ->
              let qual = reg.rmodule ^ "." ^ name in
              (* duplicate strings, across registries too: two
                 instrumentation points with one name are
                 indistinguishable to the explorer *)
              (match Hashtbl.find_opt seen v with
              | Some first -> add r "label string %S bound to both %s and %s" v first qual
              | None ->
                  Hashtbl.add seen v qual;
                  [])
              @ (match listed with
                | Some names when not (List.mem name names) ->
                    add r
                      "label %s (%S) is not listed in [all]; fault injection \
                       and exploration would never visit it"
                      qual v
                | _ -> [])
              @
              if Hashtbl.mem uses (reg.rmodule, name) then []
              else
                add r
                  "label %s (%S) is never used in lib/core, lib/lockfree, \
                   lib/mem or lib/pages"
                  qual v)
            reg.entries
          @
          match reg.all with
          | None ->
              add { path = []; line = 1; col = 0 } "registry %s has no [all] list"
                reg.rmodule
          | Some (names, r) ->
              let bound = List.map (fun (n, _, _) -> n) reg.entries in
              List.concat
                (List.mapi
                   (fun i n ->
                     (if List.mem n bound then []
                      else
                        add r
                          "[all] lists %s, which is not a string binding of \
                           this registry"
                          n)
                     @
                     if List.mem n (List.filteri (fun j _ -> j < i) names) then
                       add r "[all] lists %s twice" n
                     else [])
                   names))
    all
