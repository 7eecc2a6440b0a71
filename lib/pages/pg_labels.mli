(** Instrumentation points inside the page manager, the counterpart of
    [Mm_core.Labels] for this layer (same audit rule, enforced by
    mm-sa: every CAS retry loop carries a label that dominates the CAS
    on every path, so fault injection and
    [lib/check]'s schedule explorer can interpose in every
    read-modify-write window). *)

val buddy_acquire : string
(** Buddy acquire: before a node CAS on the descent — claiming an
    exact-fit FREE node, or splitting a FREE node one order up. *)

val buddy_release : string
(** Buddy release: before the CAS returning a BUSY node to FREE. *)

val buddy_coalesce : string
(** Buddy coalesce: before each CAS of the merge protocol — claiming
    the just-freed node, claiming its sibling, or folding the pair into
    their SPLIT parent. *)

val span_reserve : string
(** Span reservoir: before the CAS publishing a freshly mapped span
    into an empty reservoir slot. *)

val all : string list
(** Every label above; fault-injection tests iterate this list. *)

val census_sites : (string * string list) list
(** This layer's contention-sites census rows, appended after
    [Mm_core.Labels.census_sites] by every failed-CAS census. *)

val census_markers : string list
(** Labels with no striped retry counter (none in this layer);
    [census_sites]'s labels and this list partition [all]. *)
