type t =
  | Unlabelled_cas_window
  | Raw_primitive
  | Blocking_in_lockfree
  | Hp_protect
  | Label_registry
  | Sim_capability

let all =
  [
    Unlabelled_cas_window;
    Raw_primitive;
    Blocking_in_lockfree;
    Hp_protect;
    Label_registry;
    Sim_capability;
  ]

let name = function
  | Unlabelled_cas_window -> "unlabelled-cas-window"
  | Raw_primitive -> "raw-primitive"
  | Blocking_in_lockfree -> "blocking-in-lockfree"
  | Hp_protect -> "hp-protect"
  | Label_registry -> "label-registry"
  | Sim_capability -> "sim-capability"

let of_name s = List.find_opt (fun r -> name r = s) all

let describe = function
  | Unlabelled_cas_window ->
      "every Rt.Atomic.compare_and_set in lib/core, lib/lockfree and \
       lib/mem must have an Rt.label between the shared-word read and \
       the CAS (Figs. 4-7: the overlapping read-modify-write windows the \
       schedule explorer and fault injector interpose at)"
  | Raw_primitive ->
      "no Stdlib.Atomic, Domain, Mutex or Condition outside the real \
       runtime backend (lib/runtime/real_rt.ml and rt_base.ml); \
       everything else — baselines included — is written against \
       RUNTIME so it runs under both the real and the simulated runtime"
  | Blocking_in_lockfree ->
      "no Locks.* reachable from lib/core, lib/lockfree or lib/mem: \
       lock-freedom holds by construction"
  | Hp_protect ->
      "a descriptor reached from a shared freelist head must be \
       hazard-pointer protected and the head re-validated before its \
       link field is dereferenced (Fig. 7 DescAlloc / SafeRead)"
  | Label_registry ->
      "every Rt.label string comes from Labels.all / Lf_labels.all; \
       registry entries are unique, listed in [all], and used"
  | Sim_capability ->
      "simulator-only control facilities (controlled schedules, label \
       interception, kill/stall exploration) may only be referenced \
       outside lib/runtime and lib/check in items that consult the \
       Rt.controllable capability flag, so every runtime backend keeps \
       the same observable surface (ROADMAP item 4)"
