(** mm-sa's report: summary line, text and JSON renderings. *)

type result = {
  findings : Finding.t list;
  suppressed : Finding.t list;
  errors : (string * string) list;  (** (path, message) *)
  files : int;  (** files scanned *)
}

val summary : result -> string
val text : Format.formatter -> result -> unit
val json : Format.formatter -> result -> unit
