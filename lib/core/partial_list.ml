module Msq = Ms_queue
module Ts = Treiber_stack

type t =
  | Fifo of Descriptor.t Msq.t
  | Lifo of Descriptor.t Ts.t

let create rt = function
  | Mm_mem.Alloc_config.Fifo -> Fifo (Msq.create rt)
  | Mm_mem.Alloc_config.Lifo -> Lifo (Ts.create rt)

let put t d =
  match t with Fifo q -> Msq.enqueue q d | Lifo s -> Ts.push s d

let get t = match t with Fifo q -> Msq.dequeue q | Lifo s -> Ts.pop s

let is_empty_desc d =
  Anchor.state (Rt.Atomic.get d.Descriptor.anchor) = Anchor.Empty

(* How many non-empty descriptors one FIFO [remove_empty] call may cycle
   head->tail while hunting for an EMPTY one. Small and fixed: the call
   stays O(1), but an EMPTY descriptor buried behind a few partials is
   still reclaimed in one call instead of waiting for one call per
   preceding partial. *)
let fifo_scan_bound = 4

let remove_empty t ~retire =
  match t with
  | Fifo q ->
      let rec go moved =
        if moved >= fifo_scan_bound then ()
        else
          match Msq.dequeue q with
          | None -> ()
          | Some d ->
              if is_empty_desc d then retire d
              else begin
                Msq.enqueue q d;
                go (moved + 1)
              end
      in
      go 0
  | Lifo s ->
      let rec go attempts kept =
        if attempts >= 2 then List.iter (Ts.push s) kept
        else
          match Ts.pop s with
          | None -> List.iter (Ts.push s) kept
          | Some d ->
              if is_empty_desc d then begin
                retire d;
                List.iter (Ts.push s) kept
              end
              else go (attempts + 1) (d :: kept)
      in
      go 0 []

let length t = match t with Fifo q -> Msq.length q | Lifo s -> Ts.length s

let to_list t = match t with Fifo q -> Msq.to_list q | Lifo s -> Ts.to_list s
