module Make (Rt : Mm_runtime.Runtime_intf.S) = struct
  module Backoff = Backoff.Make (Rt)


  type 'a node = { value : 'a; next : 'a node option }

  type 'a t = { rt : Rt.t; head : 'a node option Rt.atomic }

  let create rt = { rt; head = Rt.Atomic.make rt None }

  let push t v =
    let rec go spins =
      let old = Rt.Atomic.get t.head in
      let node = Some { value = v; next = old } in
      Rt.label t.rt Lf_labels.ts_push_cas;
      if not (Rt.Atomic.compare_and_set t.head old node) then
        go (Backoff.spin t.rt spins)
    in
    go Backoff.initial

  let pop t =
    let rec go spins =
      match Rt.Atomic.get t.head with
      | None -> None
      | Some n as old ->
          Rt.label t.rt Lf_labels.ts_pop_cas;
          if Rt.Atomic.compare_and_set t.head old n.next then Some n.value
          else go (Backoff.spin t.rt spins)
    in
    go Backoff.initial

  let peek t =
    match Rt.Atomic.get t.head with None -> None | Some n -> Some n.value

  let is_empty t = Rt.Atomic.get t.head = None

  let to_list t =
    let rec go acc = function
      | None -> List.rev acc
      | Some n -> go (n.value :: acc) n.next
    in
    go [] (Rt.Atomic.get t.head)

  let length t = List.length (to_list t)
end
