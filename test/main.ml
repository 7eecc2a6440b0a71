let () =
  Alcotest.run "mmalloc"
    [
      ("smoke", Test_smoke.cases);
      ("specialization", Test_specialization.cases);
      ("owner-bias", Test_owner_bias.cases);
      ("workloads-smoke", Test_workloads_smoke.cases);
      ("prng", Test_prng.cases);
      ("codecs", Test_codecs.cases);
      ("sim", Test_sim.cases);
      ("rt", Test_rt.cases);
      ("lockfree", Test_lockfree.cases);
      ("store", Test_store.cases);
      ("desc", Test_desc.cases);
      ("conformance", Test_alloc_conformance.cases);
      ("lf-alloc", Test_lf_alloc.cases);
      ("locks", Test_locks.cases);
      ("baselines", Test_baselines.cases);
      ("fault-injection", Test_fault_injection.cases);
      ("block-cache", Test_block_cache.cases);
      ("hot-path", Test_hot_path.cases);
      ("pages", Test_pages.cases);
      ("workloads", Test_workloads.cases);
      ("alloc-ops", Test_alloc_ops.cases);
      ("trace", Test_trace.cases);
      ("model", Test_model.cases);
      ("harness", Test_harness.cases);
      ("metrics", Test_metrics.cases);
      ("check", Test_check.cases);
      ("sa-cfg", Test_sa_cfg.cases);
      ("sa", Test_sa.cases);
      ("lint", Test_sa.lint_cases);
      ("obs", Test_obs.cases);
    ]
