type t =
  | Hp_protocol
  | Cas_loop_progress
  | Write_before_publish
  | Label_dominance
  | Raw_primitive
  | Blocking_in_lockfree
  | Label_registry
  | Sim_capability

let all =
  [
    Hp_protocol;
    Cas_loop_progress;
    Write_before_publish;
    Label_dominance;
    Raw_primitive;
    Blocking_in_lockfree;
    Label_registry;
    Sim_capability;
  ]

let name = function
  | Hp_protocol -> "hp-protocol"
  | Cas_loop_progress -> "cas-loop-progress"
  | Write_before_publish -> "write-before-publish"
  | Label_dominance -> "label-dominance"
  | Raw_primitive -> "raw-primitive"
  | Blocking_in_lockfree -> "blocking-in-lockfree"
  | Label_registry -> "label-registry"
  | Sim_capability -> "sim-capability"

let of_name s = List.find_opt (fun a -> name a = s) all
