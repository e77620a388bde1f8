let () =
  Alcotest.run "newtos"
    [
      ("sim", Test_sim.suite);
      ("json", Test_json.suite);
      ("hw", Test_hw.suite);
      ("channels", Test_channels.suite);
      ("net", Test_net.suite);
      ("tcp", Test_tcp.suite);
      ("nic", Test_nic.suite);
      ("pf", Test_pf.suite);
      ("stack", Test_stack.suite);
      ("reliability", Test_reliability.suite);
      ("scale", Test_scale.suite);
      ("verify", Test_verify.suite);
      ("runtime", Test_runtime.suite);
      ("race", Test_race.suite);
      ("integration", Test_integration.suite);
    ]
