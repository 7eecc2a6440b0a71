(** A located mm-sa diagnostic. *)

type t = {
  rule : string;  (** registered check name (Analysis.name) *)
  file : string;  (** root-relative source path *)
  line : int;
  col : int;
  message : string;
}

val v : rule:string -> file:string -> line:int -> col:int -> string -> t
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
