(** One ring per possible thread + the [Rt.Obs] hook gluing them in. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh tracer: [Rt.max_threads] rings of [capacity] events each
    (default 65536). *)

val capacity : t -> int

val install : t -> unit
(** Route [Rt.Obs] events into this tracer's rings (replaces any
    previously installed hook). *)

val ring : t -> int -> Ring.t

val events : t -> Event.t list
(** All recorded events merged across threads, sorted by cycle
    (ties: by tid, then recording order). *)

val dropped : t -> int
(** Total events lost to ring overflow, across all threads. *)

val with_tracing : ?capacity:int -> (unit -> 'a) -> 'a * t
(** [with_tracing f] installs a fresh tracer around [f ()] and returns
    [f]'s result with the (uninstalled) tracer for collection. The hook
    is removed even if [f] raises. *)
