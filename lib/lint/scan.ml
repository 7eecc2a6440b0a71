open Parsetree

type kind = Value | Field | Type | Module

type reference = {
  rpath : string list;
  rkind : kind;
  rline : int;
  rcol : int;
  rcnum : int;
}

type app = {
  fn : string list;
  args : (Asttypes.arg_label * expression) list;
  aline : int;
  acol : int;
  acnum : int;
  abranch : int list;
      (** path of enclosing if/match/try/function branches within the
          item; [p] dominates [q] iff [p] is a prefix of [q] *)
}

type item = {
  start_line : int;
  end_line : int;
  start_cnum : int;
  refs : reference list;  (** lexical order *)
  apps : app list;  (** lexical order *)
}

let pos_of (loc : Location.t) =
  ( loc.loc_start.pos_lnum,
    loc.loc_start.pos_cnum - loc.loc_start.pos_bol,
    loc.loc_start.pos_cnum )

let collect_item (si : structure_item) =
  let refs = ref [] and apps = ref [] in
  let add_ref rkind lid (loc : Location.t) =
    let rline, rcol, rcnum = pos_of loc in
    refs := { rpath = Longident.flatten lid; rkind; rline; rcol; rcnum } :: !refs
  in
  (* Branch paths: conditions and scrutinees evaluate at the parent
     path; each then/else arm and each match/try/function case gets a
     fresh child id. A label dominates a CAS (runs on every path to it)
     iff the label's path is a prefix of the CAS's. *)
  let cur_branch = ref [] and fresh_branch = ref 0 in
  let in_child f =
    incr fresh_branch;
    let saved = !cur_branch in
    cur_branch := saved @ [ !fresh_branch ];
    f ();
    cur_branch := saved
  in
  let default = Ast_iterator.default_iterator in
  let iterator =
    {
      default with
      expr =
        (fun self e ->
          match e.pexp_desc with
          | Pexp_ifthenelse (c, t, e_opt) ->
              self.expr self c;
              in_child (fun () -> self.expr self t);
              Option.iter
                (fun e2 -> in_child (fun () -> self.expr self e2))
                e_opt
          | Pexp_match (scrut, cases) ->
              self.expr self scrut;
              List.iter (fun c -> in_child (fun () -> self.case self c)) cases
          | Pexp_try (body, cases) ->
              self.expr self body;
              List.iter (fun c -> in_child (fun () -> self.case self c)) cases
          | Pexp_function cases ->
              List.iter (fun c -> in_child (fun () -> self.case self c)) cases
          | _ ->
              (match e.pexp_desc with
              | Pexp_ident { txt; loc } -> add_ref Value txt loc
              | Pexp_construct ({ txt; loc }, _) -> add_ref Value txt loc
              | Pexp_field (_, { txt; loc }) -> add_ref Field txt loc
              | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
                ->
                  let aline, acol, acnum = pos_of e.pexp_loc in
                  apps :=
                    {
                      fn = Longident.flatten txt;
                      args;
                      aline;
                      acol;
                      acnum;
                      abranch = !cur_branch;
                    }
                    :: !apps
              | _ -> ());
              default.expr self e);
      typ =
        (fun self t ->
          (match t.ptyp_desc with
          | Ptyp_constr ({ txt; loc }, _) -> add_ref Type txt loc
          | _ -> ());
          default.typ self t);
      module_expr =
        (fun self m ->
          (match m.pmod_desc with
          | Pmod_ident { txt; loc } -> add_ref Module txt loc
          | _ -> ());
          default.module_expr self m);
    }
  in
  iterator.structure_item iterator si;
  let by_cnum a b = Int.compare a b in
  {
    start_line = si.pstr_loc.loc_start.pos_lnum;
    end_line = si.pstr_loc.loc_end.pos_lnum;
    start_cnum = si.pstr_loc.loc_start.pos_cnum;
    refs = List.sort (fun a b -> by_cnum a.rcnum b.rcnum) !refs;
    apps = List.sort (fun a b -> by_cnum a.acnum b.acnum) !apps;
  }

let items structure = List.map collect_item structure

let refs structure = List.concat_map (fun i -> i.refs) (items structure)

(* ------------------------------------------------------------------ *)
(* Recognizers shared by the rules. *)

let rec ends_with ~suffix path =
  let lp = List.length path and ls = List.length suffix in
  if lp < ls then false
  else if lp = ls then path = suffix
  else match path with [] -> false | _ :: tl -> ends_with ~suffix tl

let is_atomic_get fn = ends_with ~suffix:[ "Atomic"; "get" ] fn
let is_cas fn = ends_with ~suffix:[ "Atomic"; "compare_and_set" ] fn
let is_label fn = ends_with ~suffix:[ "Rt"; "label" ] fn

let is_hp_protect fn =
  match List.rev fn with
  | "protect" :: m :: _ -> m = "Hp" || m = "Hazard_pointers"
  | _ -> false

let rec dominates p q =
  match (p, q) with
  | [], _ -> true
  | a :: p', b :: q' -> a = b && dominates p' q'
  | _ :: _, [] -> false

let string_arg (a : app) =
  List.find_map
    (fun (_, e) ->
      match e.pexp_desc with
      | Pexp_constant (Pconst_string (s, _, _)) -> Some s
      | _ -> None)
    a.args
