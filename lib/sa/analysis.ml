type t =
  | Hp_protocol
  | Cas_loop_progress
  | Write_before_publish
  | Label_dominance

let all =
  [ Hp_protocol; Cas_loop_progress; Write_before_publish; Label_dominance ]

let name = function
  | Hp_protocol -> "hp-protocol"
  | Cas_loop_progress -> "cas-loop-progress"
  | Write_before_publish -> "write-before-publish"
  | Label_dominance -> "label-dominance"

let of_name s = List.find_opt (fun a -> name a = s) all

let describe = function
  | Hp_protocol ->
      "S1: a descriptor popped from a shared freelist head must be \
       hazard-protected, re-validated by a fresh read of the head, and \
       only then dereferenced; the hazard slot is released on every path \
       (Fig. 7 SafeRead, checked flow-sensitively over the CFG)"
  | Cas_loop_progress ->
      "S2: every CAS retry loop re-reads the contended word after each \
       backedge before using it as the CAS expected value (no \
       stale-expected loops), and each labelled window commits at most \
       one result-bearing CAS"
  | Write_before_publish ->
      "S3: plain stores into a block must be ordered (Rt.fence) before \
       the CAS that publishes the block to other threads; unfenced \
       writes reachable from the CAS desired value are reported"
  | Label_dominance ->
      "S4: the registry Rt.label dominates its CAS on every CFG path \
       (upgrading the lexical R1), including calls into functions whose \
       CAS window label is a parameter (Lf_alloc's ~label loops): such \
       calls must be dominated by a registry label or carry a registry \
       label argument"
