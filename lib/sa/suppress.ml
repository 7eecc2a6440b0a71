(* In-source suppression comments:

       (* mm-sa: allow <check> *)
       (* mm-sa: allow <check>: <reason> *)

   The scan is textual — comments are not in any AST. A marker not
   followed by "allow" plus a non-empty token is not a suppression
   attempt, which keeps prose mentions of the syntax (docs, mm-sa's own
   sources) inert — but a non-empty token naming no known check is an
   error, so typos cannot silently fail to suppress. *)

type t = { sup_rule : string; sup_line : int; sup_reason : string option }

let is_token_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '-' || c = '_'

let line_of_offset text off =
  let n = ref 1 in
  for i = 0 to off - 1 do
    if text.[i] = '\n' then incr n
  done;
  !n

let marker = "mm-sa:"

let scan ~known text =
  let ok = ref [] and bad = ref [] in
  let len = String.length text in
  let rec find from =
    match
      if from >= len then None
      else
        let rec at i =
          if i + String.length marker > len then None
          else if String.sub text i (String.length marker) = marker then Some i
          else at (i + 1)
        in
        at from
    with
    | None -> ()
    | Some i ->
        let j = ref (i + String.length marker) in
        while !j < len && (text.[!j] = ' ' || text.[!j] = '\t') do
          incr j
        done;
        let line = line_of_offset text i in
        (if !j + 5 <= len && String.sub text !j 5 = "allow" then begin
           j := !j + 5;
           while !j < len && (text.[!j] = ' ' || text.[!j] = '\t') do
             incr j
           done;
           let start = !j in
           while !j < len && is_token_char text.[!j] do
             incr j
           done;
           let token = String.sub text start (!j - start) in
           if token = "" then ()
           else if known token then
             let reason =
               if !j < len && text.[!j] = ':' then
                 let rs = !j + 1 in
                 let re = ref rs in
                 while
                   !re + 1 < len
                   && not (text.[!re] = '*' && text.[!re + 1] = ')')
                 do
                   incr re
                 done;
                 Some (String.trim (String.sub text rs (!re - rs)))
               else None
             in
             ok := { sup_rule = token; sup_line = line; sup_reason = reason } :: !ok
           else bad := (line, token) :: !bad
         end);
        find !j
  in
  find 0;
  (List.rev !ok, List.rev !bad)

(* A suppression covers findings of its rule from the comment's line to
   the end of the enclosing top-level item; a comment between items
   covers the following item. This keeps a suppression adjacent to the
   code it excuses — it can never silence a whole file. *)

let range (spans : (int * int) list) line =
  match List.find_opt (fun (s, e) -> s <= line && line <= e) spans with
  | Some (_, e) -> Some (line, e)
  | None -> (
      match List.find_opt (fun (s, _) -> s > line) spans with
      | Some (s, e) -> Some (s, e)
      | None -> None)

let covers ~item_spans (sups : t list) (f : Finding.t) =
  List.exists
    (fun s ->
      s.sup_rule = f.Finding.rule
      &&
      match range item_spans s.sup_line with
      | Some (lo, hi) -> lo <= f.Finding.line && f.Finding.line <= hi
      | None -> false)
    sups
