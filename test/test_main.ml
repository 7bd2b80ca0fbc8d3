let () =
  Alcotest.run "mtp-repro"
    [ ("engine", Test_engine.suite);
      ("stats", Test_stats.suite);
      ("telemetry", Test_telemetry.suite);
      ("netsim", Test_netsim.suite);
      ("tcp", Test_tcp.suite);
      ("messaging", Test_messaging.suite);
      ("mtp", Test_mtp.suite);
      ("fault", Test_fault.suite);
      ("workload", Test_workload.suite);
      ("runner", Test_runner.suite);
      ("innetwork", Test_innetwork.suite);
      ("experiments", Test_experiments.suite);
      ("oracle", Test_oracle.suite);
      ("check", Test_check.suite);
      ("lint", Test_lint.suite);
      ("cli", Test_cli.suite) ]
