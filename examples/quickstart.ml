(* Quickstart: the lock-free allocator as a library.

   Creates a heap on the copy of the allocator compiled for the real
   OCaml-multicore runtime (DESIGN.md §18), allocates and frees
   blocks from several domains, stores data in the blocks through the
   memory substrate, and prints space/OS statistics.

     dune exec examples/quickstart.exe
*)

open Mm_runtime
module A = Mm_core.Lf_alloc
module Store = Mm_mem.Store
module Space = Mm_mem.Space

let () =
  let heap = A.create () (Mm_mem.Alloc_config.make ~nheaps:4 ()) in
  let store = A.store heap in

  (* Single-threaded use: allocate, write, read, free. *)
  let a = A.malloc heap 24 in
  let b = A.malloc heap 24 in
  Store.write_word store a 42;
  Store.write_word store b 1337;
  Printf.printf "block a @%#x holds %d; block b @%#x holds %d\n" a
    (Store.read_word store a) b
    (Store.read_word store b);
  A.free heap a;
  A.free heap b;

  (* Concurrent use: 4 domains hammer the same heap; every operation is
     lock-free, so no domain ever blocks another. *)
  let ops_per_domain = 50_000 in
  let body tid =
    let rng = Prng.create (tid + 1) in
    let slots = Array.make 64 0 in
    for i = 0 to (ops_per_domain - 1) do
      let s = i mod 64 in
      if slots.(s) <> 0 then A.free heap slots.(s);
      slots.(s) <- A.malloc heap (Prng.int_in rng 8 200)
    done;
    Array.iter (fun a -> if a <> 0 then A.free heap a) slots
  in
  let r = Rt.parallel_run Rt.real (Array.make 4 body) in
  let mallocs, frees = A.op_counts heap in
  Printf.printf "4 domains: %d mallocs / %d frees in %.3fs\n" mallocs frees
    r.Rt.elapsed;

  (* The rest of the C API surface: calloc / realloc / aligned_alloc,
     over the runtime-erased instance packaging of the same heap. *)
  let inst = A.instance Rt.real heap in
  let z = Mm_mem.Alloc_ops.calloc inst ~count:16 ~size:8 in
  assert (Store.read_word store z = 0);
  let z = Mm_mem.Alloc_ops.realloc inst z 4_096 in
  let al = Mm_mem.Alloc_ops.aligned_alloc inst ~align:256 100 in
  Printf.printf "realloc'd block has %d usable bytes; aligned block @%#x\n"
    (A.usable_size heap z) al;
  assert (al mod 256 = 0);
  A.free heap z;
  A.free heap al;

  (* The heap is quiescent again: its structural invariants must hold. *)
  A.check_invariants heap;
  Format.printf "%a" A.pp_heap_summary heap;
  let s = Space.read (Store.space store) in
  let os = Store.os_stats store in
  Printf.printf
    "space: %d KB mapped now, %d KB at peak; %d mmaps, %d munmaps\n"
    (s.Mm_mem.Space.mapped / 1024)
    (s.Mm_mem.Space.mapped_peak / 1024)
    os.Mm_mem.Store.mmap_calls os.Mm_mem.Store.munmap_calls;
  print_endline "quickstart OK"
