module Make (Rt : Mm_runtime.Runtime_intf.S) = struct
  module Backoff = Backoff.Make (Rt)


  (* Head word: (tag lsl 25) lor (id + 1); id+1 = 0 encodes the empty
     stack. 24-bit ids, 38-bit tag. *)

  let id_bits = 24
  let id_mask = (1 lsl (id_bits + 1)) - 1
  let max_id = (1 lsl id_bits) - 1

  type t = {
    rt : Rt.t;
    head : int Rt.atomic;
    get_next : int -> int;
    set_next : int -> int -> unit;
    push_label : string;
    pop_label : string;
    on_push_retry : unit -> unit;
    on_pop_retry : unit -> unit;
  }

  let pack ~tag ~id = (tag lsl (id_bits + 1)) lor (id + 1)
  let unpack_id w = (w land id_mask) - 1
  let unpack_tag w = w lsr (id_bits + 1)

  let nop () = ()

  let create rt ?(push_label = Lf_labels.tis_push_cas)
      ?(pop_label = Lf_labels.tis_pop_cas) ?(on_push_retry = nop)
      ?(on_pop_retry = nop) ~get_next ~set_next () =
    {
      rt;
      head = Rt.Atomic.make rt (pack ~tag:0 ~id:(-1));
      get_next;
      set_next;
      push_label;
      pop_label;
      on_push_retry;
      on_pop_retry;
    }

  let push t id =
    if id < 0 || id > max_id then invalid_arg "Tagged_id_stack.push: bad id";
    let rec go spins =
      let old = Rt.Atomic.get t.head in
      t.set_next id (unpack_id old);
      Rt.fence t.rt;
      (* Pushes reuse the old tag: only pops need to change it, because only
         a pop can complete erroneously under ABA. *)
      let desired = pack ~tag:(unpack_tag old) ~id in
      Rt.label t.rt t.push_label;
      if not (Rt.Atomic.compare_and_set t.head old desired) then begin
        t.on_push_retry ();
        go (Backoff.spin t.rt spins)
      end
    in
    go Backoff.initial

  let pop t =
    let rec go spins =
      let old = Rt.Atomic.get t.head in
      let id = unpack_id old in
      if id < 0 then None
      else begin
        let next = t.get_next id in
        let desired = pack ~tag:(unpack_tag old + 1) ~id:next in
        Rt.label t.rt t.pop_label;
        if Rt.Atomic.compare_and_set t.head old desired then Some id
        else begin
          t.on_pop_retry ();
          go (Backoff.spin t.rt spins)
        end
      end
    in
    go Backoff.initial

  let is_empty t = unpack_id (Rt.Atomic.get t.head) < 0

  let to_list t =
    let rec go acc id =
      if id < 0 then List.rev acc else go (id :: acc) (t.get_next id)
    in
    go [] (unpack_id (Rt.Atomic.get t.head))
end
