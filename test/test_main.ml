let () =
  Alcotest.run "snapdiff"
    [
      ("util", Test_util.suite);
      ("storage", Test_storage.suite);
      ("codec", Test_codec.suite);
      ("index", Test_index.suite);
      ("txn", Test_txn.suite);
      ("obs", Test_obs.suite);
      ("scheduler", Test_scheduler.suite);
      ("wal", Test_wal.suite);
      ("expr", Test_expr.suite);
      ("simplify", Test_simplify.suite);
      ("histogram", Test_histogram.suite);
      ("core", Test_core.suite);
      ("stepwise", Test_stepwise.suite);
      ("methods", Test_methods.suite);
      ("properties", Test_properties.suite);
      ("wire", Test_wire.suite);
      ("analysis", Test_analysis.suite);
      ("sql", Test_sql.suite);
      ("extensions", Test_extensions.suite);
      ("durability", Test_durability.suite);
      ("persistence", Test_persistence.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("failures", Test_failures.suite);
      ("concurrency", Test_concurrency.suite);
      ("fleet", Test_fleet.suite);
      ("mvcc", Test_mvcc.suite);
      ("lifecycle", Test_lifecycle.suite);
      ("integration", Test_integration.suite);
    ]
