module Make (Rt : Mm_runtime.Runtime_intf.S) = struct
  module Backoff = Backoff.Make (Rt)


  (* The dummy-headed Michael-Scott queue. [head] points at the dummy; the
     first real element is the dummy's successor. [value] is [None] only in
     nodes currently serving as the dummy. *)
  type 'a node = { mutable value : 'a option; next : 'a node option Rt.atomic }

  type 'a t = { rt : Rt.t; head : 'a node Rt.atomic; tail : 'a node Rt.atomic }

  let create rt =
    let dummy = { value = None; next = Rt.Atomic.make rt None } in
    { rt; head = Rt.Atomic.make rt dummy; tail = Rt.Atomic.make rt dummy }

  let enqueue t v =
    let node = { value = Some v; next = Rt.Atomic.make t.rt None } in
    let rec go spins =
      let tail = Rt.Atomic.get t.tail in
      match Rt.Atomic.get tail.next with
      | None ->
          Rt.label t.rt Lf_labels.msq_enq_cas;
          if Rt.Atomic.compare_and_set tail.next None (Some node) then
            (* Linearized; swing the tail (failure means someone helped). *)
            ignore (Rt.Atomic.compare_and_set t.tail tail node)
          else go (Backoff.spin t.rt spins)
      | Some next ->
          (* Tail is lagging: help swing it, then retry. *)
          Rt.label t.rt Lf_labels.msq_enq_swing;
          ignore (Rt.Atomic.compare_and_set t.tail tail next);
          go spins
    in
    go Backoff.initial

  let dequeue t =
    let rec go spins =
      let head = Rt.Atomic.get t.head in
      let tail = Rt.Atomic.get t.tail in
      match Rt.Atomic.get head.next with
      | None -> None
      | Some next ->
          if head == tail then begin
            (* Non-empty but tail lags behind head's successor: help. *)
            Rt.label t.rt Lf_labels.msq_deq_help;
            ignore (Rt.Atomic.compare_and_set t.tail tail next);
            go spins
          end
          else begin
            Rt.label t.rt Lf_labels.msq_deq_cas;
            if Rt.Atomic.compare_and_set t.head head next then begin
              let v = next.value in
              (* [next] is the new dummy; drop its payload so the GC does
                 not retain dequeued values through the queue. *)
              next.value <- None;
              v
            end
            else go (Backoff.spin t.rt spins)
          end
    in
    go Backoff.initial

  let is_empty t =
    let head = Rt.Atomic.get t.head in
    Rt.Atomic.get head.next = None

  let to_list t =
    let rec go acc node =
      match Rt.Atomic.get node.next with
      | None -> List.rev acc
      | Some n ->
          let acc = match n.value with Some v -> v :: acc | None -> acc in
          go acc n
    in
    go [] (Rt.Atomic.get t.head)

  let length t = List.length (to_list t)
end
