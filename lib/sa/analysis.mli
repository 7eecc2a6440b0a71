(** mm-sa's checks (DESIGN.md §16): four flow-sensitive typestate
    automata over per-function CFGs built from the compiler's typed
    ASTs, and four checks on the paths the typed tree names. Names are
    the tokens used by findings, the [--analysis] CLI filter and
    in-source suppressions [(* mm-sa: allow <check> *)]. *)

type t =
  | Hp_protocol  (** S1: Fig. 7's protect, re-validate, dereference *)
  | Cas_loop_progress  (** S2: fresh expected values, one commit a window *)
  | Write_before_publish  (** S3: Rt.fence before a publishing CAS *)
  | Label_dominance  (** S4: a registry Rt.label dominates every CAS *)
  | Raw_primitive  (** lib/ and bin/, except the real runtime backend *)
  | Blocking_in_lockfree  (** the lock-free sections *)
  | Label_registry  (** literal labels; exact registries *)
  | Sim_capability  (** lib/ and bin/, except lib/runtime and lib/check *)

val all : t list
val name : t -> string
val of_name : string -> t option
