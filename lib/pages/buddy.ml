(* Non-blocking binary buddy over one span of [2^order] pages, after
   Marotta et al. (PAPERS.md): an array-encoded tree of page-order
   nodes whose states move only by CAS, with a fragmentation-tolerant
   release — a coalesce that loses a claim race simply leaves the two
   halves FREE rather than blocking or retrying forever.

   Node states:
   - [free]: published and claimable. A node is {e published} exactly
     while its parent is SPLIT (the root is always published).
   - [split]: both children are published; allocations live below.
   - [busy]: an extent handed out by {!acquire}.
   - [merged]: unpublished — either never published since the parent's
     last split, or claimed by an in-flight coalesce. Never CASed by
     anyone but the claim owner, so a descending thread that reads it
     treats the node as unavailable and moves on.

   The ABA story mirrors the allocator's anchors: every transition CASes
   from an observed immediate state, and the only plain stores target
   nodes the writer owns exclusively — the split winner re-publishing
   its two children (unreachable as FREE until that store), and a
   coalescer rolling its own claim back. A stale CAS from a node's
   previous life can only be [free -> busy/split], and [free] is
   re-entered only via those exclusive stores, after which the tree
   position means exactly the same thing — so a late CAS is
   indistinguishable from a fresh, correct claim. *)

let free_s = 0
let split_s = 1
let busy_s = 2
let merged_s = 3

type t = {
  rt : Rt.t;
  order : int;  (* span covers 2^order pages; node 1 is the root *)
  nodes : int Rt.atomic array;  (* 1-based heap layout, node i: 2i, 2i+1 *)
  on_acquire_retry : unit -> unit;
  on_release_retry : unit -> unit;
  on_coalesce_retry : unit -> unit;
}

let nop () = ()

let create rt ?(on_acquire_retry = nop) ?(on_release_retry = nop)
    ?(on_coalesce_retry = nop) ~order () =
  if order < 0 || order > 24 then invalid_arg "Buddy.create: bad order";
  (* Eight node words share a synthetic cache line, modelling the dense
     status array a real implementation would use (false sharing between
     neighbouring tree nodes is part of what the simulator measures). *)
  let n = 1 lsl (order + 1) in
  let line = ref (Rt.fresh_line ()) in
  let nodes =
    Array.init n (fun i ->
        if i > 0 && i mod 8 = 0 then line := Rt.fresh_line ();
        Rt.Atomic.make rt ~line:!line (if i = 1 then free_s else merged_s))
  in
  { rt; order; nodes; on_acquire_retry; on_release_retry; on_coalesce_retry }

let order t = t.order
let pages t = 1 lsl t.order

(* Node [n] at tree depth [t.order - node_ord] covers [2^node_ord] pages
   starting at page [(n - 2^(order - node_ord)) * 2^node_ord]. *)
let page_of_node t n ~node_ord =
  (n - (1 lsl (t.order - node_ord))) * (1 lsl node_ord)

let node_of t ~page ~order:k = (1 lsl (t.order - k)) + (page lsr k)

(* First-fit descent from the root. An exact-fit FREE node is claimed
   BUSY; a larger FREE node is split (CAS to SPLIT, then the winner —
   sole owner of the still-unpublished children — stores them FREE).
   BUSY and MERGED nodes are unavailable: no spinning on them, the
   search falls through to the sibling subtree or fails over to the
   caller (span reservation), which is what keeps a stalled splitter
   from blocking anyone. A failed CAS means another thread moved the
   node, i.e. global progress, so the bounded re-dispatch is lock-free. *)
let acquire t ~order:k =
  if k < 0 || k > t.order then invalid_arg "Buddy.acquire: bad order";
  let rec descend n node_ord =
    let s = Rt.Atomic.get t.nodes.(n) in
    if node_ord = k then
      if s = free_s then begin
        Rt.label t.rt Pg_labels.buddy_acquire;
        if Rt.Atomic.compare_and_set t.nodes.(n) free_s busy_s then Some n
        else begin
          t.on_acquire_retry ();
          descend n node_ord
        end
      end
      else None
    else if s = split_s then begin
      match descend (2 * n) (node_ord - 1) with
      | Some _ as r -> r
      | None -> descend ((2 * n) + 1) (node_ord - 1)
    end
    else if s = free_s then begin
      Rt.label t.rt Pg_labels.buddy_acquire;
      if Rt.Atomic.compare_and_set t.nodes.(n) free_s split_s then begin
        (* Split winner: the children are unpublished (MERGED) until
           these stores, so no other thread can have claimed them. *)
        Rt.Atomic.set t.nodes.(2 * n) free_s;
        Rt.Atomic.set t.nodes.((2 * n) + 1) free_s;
        Rt.obs_event t.rt Rt.Obs.Transition "buddy.split";
        match descend (2 * n) (node_ord - 1) with
        | Some _ as r -> r
        | None -> descend ((2 * n) + 1) (node_ord - 1)
      end
      else begin
        t.on_acquire_retry ();
        descend n node_ord
      end
    end
    else None
  in
  match descend 1 t.order with
  | None -> None
  | Some n -> Some (page_of_node t n ~node_ord:k)

(* Merge [n] (just made FREE by its releaser) with its buddy, upward
   while both halves can be claimed. Claim order is fixed — own node
   first, then the sibling — and a failed claim aborts the merge with
   the claimed half rolled back to FREE (fragmentation-tolerant: two
   FREE siblings under a SPLIT parent are a legal resting state; a
   later release at either side re-attempts the fold). Once both
   children are MERGED the parent is pinned: acquirers only CAS FREE
   nodes and coalescers need a FREE child, so the SPLIT -> FREE fold
   cannot be contended. *)
let rec coalesce t n =
  if n > 1 then begin
    let parent = n / 2 in
    let sibling = n lxor 1 in
    let s = Rt.Atomic.get t.nodes.(n) in
    if s = free_s then begin
      Rt.label t.rt Pg_labels.buddy_coalesce;
      if Rt.Atomic.compare_and_set t.nodes.(n) free_s merged_s then begin
        let sb = Rt.Atomic.get t.nodes.(sibling) in
        if
          sb = free_s
          && begin
               Rt.label t.rt Pg_labels.buddy_coalesce;
               Rt.Atomic.compare_and_set t.nodes.(sibling) free_s merged_s
             end
        then begin
          let p = Rt.Atomic.get t.nodes.(parent) in
          Rt.label t.rt Pg_labels.buddy_coalesce;
          if
            p <> split_s
            || not (Rt.Atomic.compare_and_set t.nodes.(parent) split_s free_s)
          then failwith "Buddy: SPLIT parent moved under a two-sided claim";
          Rt.obs_event t.rt Rt.Obs.Transition "buddy.merge";
          coalesce t parent
        end
        else begin
          (* Sibling busy, split, or claimed by a racing coalescer:
             tolerate the fragmentation and re-publish our half. *)
          t.on_coalesce_retry ();
          Rt.Atomic.set t.nodes.(n) free_s
        end
      end
      else
        (* An acquirer re-claimed the block between our release and this
           claim; the merge is moot. *)
        t.on_coalesce_retry ()
    end
  end

let release t ~page ~order:k =
  if k < 0 || k > t.order then invalid_arg "Buddy.release: bad order";
  if
    page < 0
    || page land ((1 lsl k) - 1) <> 0
    || page lsr k >= 1 lsl (t.order - k)
  then invalid_arg "Buddy.release: not an extent base";
  let n = node_of t ~page ~order:k in
  let s = Rt.Atomic.get t.nodes.(n) in
  if s <> busy_s then
    failwith "Buddy.release: extent is not allocated (double free?)";
  Rt.label t.rt Pg_labels.buddy_release;
  if not (Rt.Atomic.compare_and_set t.nodes.(n) busy_s free_s) then begin
    (* Only the extent's owner releases it and nothing else CASes a
       BUSY node, so a failure here is tree corruption, not contention. *)
    t.on_release_retry ();
    failwith "Buddy.release: BUSY node moved under its owner"
  end;
  coalesce t n

(* Quiescent walk of the published tree: descend through SPLIT nodes,
   count FREE and BUSY page capacity. Every page is covered by exactly
   one terminal node, so free + busy = 2^order whenever the walk
   completes — a reachable MERGED node (an in-flight claim, impossible
   at quiescence unless a thread was killed mid-protocol) raises. *)
let census t =
  let rec walk n node_ord (f, b) =
    let s = Rt.Atomic.get t.nodes.(n) in
    if s = split_s then begin
      if node_ord = 0 then failwith "Buddy: SPLIT leaf";
      walk (2 * n) (node_ord - 1) (walk ((2 * n) + 1) (node_ord - 1) (f, b))
    end
    else if s = free_s then (f + (1 lsl node_ord), b)
    else if s = busy_s then (f, b + (1 lsl node_ord))
    else failwith "Buddy: reachable node still merge-claimed at quiescence"
  in
  walk 1 t.order (0, 0)

let check_invariants t =
  let f, b = census t in
  if f + b <> pages t then
    failwith
      (Printf.sprintf "Buddy: %d free + %d busy pages != span %d" f b
         (pages t))
