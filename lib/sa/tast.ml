(* Typed-AST access for mm-sa: loading compiler-produced .cmt files out
   of _build, re-typechecking modified sources in-process against the
   same compiled interfaces (the label-deletion walk in the tests), and
   the path utilities every analysis shares. *)

(* ------------------------------------------------------------------ *)
(* Paths. Typedtree paths are as written (module aliases like
   [module Tis = Mm_lockfree.Tagged_id_stack] are not expanded), so the
   CFG records both the flattened path and lets Summary resolve aliases
   per unit. *)

let rec flatten_path (p : Path.t) =
  match p with
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> flatten_path p @ [ s ]
  | Path.Papply (p, _) -> flatten_path p
  | Path.Pextra_ty (p, _) -> flatten_path p

let rec ends_with ~suffix path =
  let lp = List.length path and ls = List.length suffix in
  if lp < ls then false
  else if lp = ls then path = suffix
  else match path with [] -> false | _ :: tl -> ends_with ~suffix tl

let is_atomic_get fn = ends_with ~suffix:[ "Atomic"; "get" ] fn
let is_cas fn = ends_with ~suffix:[ "Atomic"; "compare_and_set" ] fn
let is_label fn = ends_with ~suffix:[ "Rt"; "label" ] fn
let is_fence fn = ends_with ~suffix:[ "Rt"; "fence" ] fn

let is_hp_protect fn =
  match List.rev fn with
  | "protect" :: m :: _ -> m = "Hp" || m = "Hazard_pointers"
  | _ -> false

let is_hp_clear fn =
  match List.rev fn with
  | "clear" :: m :: _ -> m = "Hp" || m = "Hazard_pointers"
  | _ -> false

(* Plain (non-atomic) stores into block memory: the runtime's word store,
   the store's two entries for it and the store-layer initializers built
   on it. *)
let is_plain_write fn =
  match List.rev fn with
  | ("write_word" | "write_word_at") :: _ -> true
  | name :: "Store" :: _ ->
      String.length name >= 5 && String.sub name 0 5 = "init_"
  | _ -> false

let registry_modules = [ "Labels"; "Lf_labels"; "Pg_labels" ]

(* ["Mm_core"; "Labels"; "desc_alloc"] -> Some "Labels.desc_alloc" *)
let registry_const path =
  let rec scan = function
    | m :: name :: [] when List.mem m registry_modules ->
        Some (m ^ "." ^ name)
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan path

(* ------------------------------------------------------------------ *)
(* The repository section a source belongs to: its directory under lib/
   ("core", "runtime", ...), "bin", or "". Classification is by path
   segment, so fixture trees that mirror the layout
   (test/sa_fixtures/lib/core/...) classify like the real tree. *)

let section_of_path path =
  let segs = String.split_on_char '/' path in
  let rec under_lib = function
    | "lib" :: s :: _ :: _ -> s
    | _ :: rest -> under_lib rest
    | [] -> if List.mem "bin" segs then "bin" else ""
  in
  under_lib segs

(* The sections whose code carries the paper's progress argument: the
   flow analyses, blocking-in-lockfree and the label registry cover
   exactly these. *)
let in_lockfree_scope section =
  List.mem section [ "core"; "lockfree"; "mem"; "pages" ]

(* ------------------------------------------------------------------ *)
(* Structure of an analyzed unit. *)

type unit_t = {
  u_path : string;  (** root-relative source path, e.g. lib/core/desc_pool.ml *)
  u_module : string;  (** unqualified module name, e.g. Desc_pool *)
  u_section : string;  (** section_of_path u_path *)
  u_str : Typedtree.structure;
  u_text : string;  (** source text: suppressions, item spans *)
}

let module_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* The flow analyses walk a unit's top-level functions and the plain
   modules nested in it; they do not descend into functor bodies. A
   lock-free unit that defines a functor with a body of its own is
   therefore a load error, so a functor cannot silently hide a CAS
   from them. A functor that only returns a module path (the
   [Make (_ : REAL_RT) = Lf_alloc] shims) holds no code. *)
let rec hidden_functor (items : Typedtree.structure_item list) =
  let open Typedtree in
  let rec in_module me =
    match me.mod_desc with
    | Tmod_structure s -> hidden_functor s.str_items
    | Tmod_constraint (m, _, _, _) -> in_module m
    | Tmod_functor (_, body) ->
        let rec holds_code me =
          match me.mod_desc with
          | Tmod_ident _ -> false
          | Tmod_constraint (m, _, _, _) | Tmod_functor (_, m) -> holds_code m
          | _ -> true
        in
        if holds_code body then Some me.mod_loc.Location.loc_start.pos_lnum
        else None
    | _ -> None
  in
  List.find_map
    (fun item ->
      match item.str_desc with
      | Tstr_module mb -> in_module mb.mb_expr
      | Tstr_recmodule mbs ->
          List.find_map (fun mb -> in_module mb.mb_expr) mbs
      | _ -> None)
    items

let make_unit ~path ~str ~text =
  let section = section_of_path path in
  match
    if in_lockfree_scope section then hidden_functor str.Typedtree.str_items
    else None
  with
  | Some line ->
      Error
        (Printf.sprintf
           "line %d: functor body not analyzed; bind the runtime as a \
            plain module (module Rt = ...) instead (DESIGN.md §18)"
           line)
  | None ->
      Ok
        {
          u_path = path;
          u_module = module_of_path path;
          u_section = section;
          u_str = str;
          u_text = text;
        }

(* ------------------------------------------------------------------ *)
(* Locating compiled artifacts. dune keeps each library's objects in
   _build/default/<libdir>/.<libname>.objs/byte, and each executable
   directory's in .<name>.eobjs/byte; `dune build @check` produces a
   .cmt per module there. *)

let is_objs_dir entry =
  Filename.check_suffix entry ".objs" || Filename.check_suffix entry ".eobjs"

(* The compiled artifacts live under <root>/_build/default — unless we
   are already running inside the build tree (dune rule actions, the
   @sa alias: cwd is _build/default), where root itself is the mirror
   holding the .objs dirs. *)
let build_dir ~root =
  let cand = Filename.concat root "_build/default" in
  if Sys.file_exists cand && Sys.is_directory cand then cand else root

let objs_dirs ~root =
  let build_lib = Filename.concat (build_dir ~root) "lib" in
  if not (Sys.file_exists build_lib && Sys.is_directory build_lib) then []
  else
    Array.to_list (Sys.readdir build_lib)
    |> List.concat_map (fun sub ->
           let dir = Filename.concat build_lib sub in
           if not (Sys.is_directory dir) then []
           else
             Array.to_list (Sys.readdir dir)
             |> List.filter_map (fun entry ->
                    if Filename.check_suffix entry ".objs" then
                      let byte =
                        Filename.concat (Filename.concat dir entry) "byte"
                      in
                      if Sys.file_exists byte then Some byte else None
                    else None))
    |> List.sort String.compare

(* The .cmt for a source file: search the byte dir of its own library
   for <anything>__<Module>.cmt (wrapped) or <module>.cmt (the lib's
   namesake / unwrapped). *)
let cmt_path ~root src_path =
  let dir = Filename.dirname src_path in
  let full_dir = Filename.concat (build_dir ~root) dir in
  let module_name = module_of_path src_path in
  let wrapped_suffix = "__" ^ module_name ^ ".cmt" in
  let plain = String.uncapitalize_ascii module_name ^ ".cmt" in
  if not (Sys.file_exists full_dir && Sys.is_directory full_dir) then None
  else
    let candidates = ref [] in
    Array.iter
      (fun entry ->
        if is_objs_dir entry then
          let byte = Filename.concat (Filename.concat full_dir entry) "byte" in
          if Sys.file_exists byte then
            Array.iter
              (fun f ->
                if
                  Filename.check_suffix f wrapped_suffix
                  || String.lowercase_ascii f = plain
                then candidates := Filename.concat byte f :: !candidates)
              (Sys.readdir byte))
      (Sys.readdir full_dir);
    match !candidates with c :: _ -> Some c | [] -> None

let read_text full =
  let ic = open_in_bin full in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_cmt ~root src_path =
  match cmt_path ~root src_path with
  | None -> Error "no .cmt found (run `dune build @check` first)"
  | Some cmt -> (
      match Cmt_format.read_cmt cmt with
      | { cmt_annots = Implementation str; _ } ->
          make_unit ~path:src_path ~str
            ~text:(read_text (Filename.concat root src_path))
      | _ -> Error (cmt ^ ": cmt holds no implementation")
      | exception exn ->
          Error (cmt ^ ": " ^ Printexc.to_string exn))

(* ------------------------------------------------------------------ *)
(* In-process re-typechecking of a (possibly modified) library source
   against the already-compiled interfaces in _build. Used by the
   label-deletion regression walk: delete a line, re-type, re-analyze.

   The unit is typed under a fresh name so it can never shadow its own
   compiled interface, and with the modules dune opened when it compiled
   the unit: its library's alias module and, for the allocator stack,
   the lower layers of the same runtime copy (DESIGN.md §18). The opens
   are read back from the unit's .cmt (the -open flags it records) and
   prepended with ghost locations, so source line numbers are
   unchanged. *)

let opens_cache : (string, string list) Hashtbl.t = Hashtbl.create 16

let compile_opens ~root src_path =
  match Hashtbl.find_opt opens_cache src_path with
  | Some opens -> opens
  | None ->
      let rec opens = function
        | "-open" :: m :: rest -> m :: opens rest
        | _ :: rest -> opens rest
        | [] -> []
      in
      let found =
        match cmt_path ~root src_path with
        | None -> []
        | Some cmt -> (
            match Cmt_format.read_cmt cmt with
            | c -> opens (Array.to_list c.Cmt_format.cmt_args)
            | exception _ -> [])
      in
      Hashtbl.replace opens_cache src_path found;
      found

let env_ready = ref false

let prepare_env ~root =
  if not !env_ready then begin
    Clflags.include_dirs := objs_dirs ~root;
    Compmisc.init_path ();
    ignore (Warnings.parse_options false "-a");
    env_ready := true
  end

let typecheck ~root ~path text =
  prepare_env ~root;
  Env.set_unit_name "Mm_sa_retypecheck";
  match
    let lexbuf = Lexing.from_string text in
    Lexing.set_filename lexbuf path;
    let parsed = Parse.implementation lexbuf in
    let parsed =
      List.map
        (fun m ->
          let open Ast_helper in
          Str.open_
            (Opn.mk
               (Mod.ident
                  { Asttypes.txt = Longident.Lident m; loc = Location.none })))
        (compile_opens ~root path)
      @ parsed
    in
    let env = Compmisc.initial_env () in
    Typemod.type_structure env parsed
  with
  | str, _, _, _, _ -> make_unit ~path ~str ~text
  | exception exn -> (
      match Location.error_of_exn exn with
      | Some (`Ok e) ->
          Error
            (String.concat " "
               (String.split_on_char '\n'
                  (Format.asprintf "%a" Location.print_report e)))
      | _ -> Error (Printexc.to_string exn))
