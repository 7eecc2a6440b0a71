(** In-source suppression comments:
    [(* mm-sa: allow <check>: <reason> *)]. *)

type t = { sup_rule : string; sup_line : int; sup_reason : string option }

val scan : known:(string -> bool) -> string -> t list * (int * string) list
(** [scan ~known text] returns the recognized suppressions and
    the [(line, token)] pairs whose token names no known rule (an error
    at the tool level: typos must not silently fail to suppress). *)

val covers : item_spans:(int * int) list -> t list -> Finding.t -> bool
(** Whether any suppression covers the finding. A suppression covers its
    rule from the comment's line to the end of the enclosing top-level
    item ([item_spans] are [(start_line, end_line)] per item); a comment
    between items covers the following item. *)
