let () =
  Test_serve.serve_child_if_requested ();
  Alcotest.run "branch_alignment"
    (List.concat
       [ Test_util.suites; Test_ir.suites; Test_cfg.suites; Test_layout.suites;
         Test_exec.suites; Test_predict.suites; Test_core.suites; Test_sim.suites;
         Test_workloads.suites; Test_report.suites; Test_isa.suites;
         Test_analysis.suites; Test_verify.suites; Test_obs.suites;
         Test_par.suites; Test_trace.suites; Test_conflict.suites;
         Test_bound.suites; Test_delta.suites; Test_exttsp.suites;
         Test_fuzz.suites; Test_serve.suites ])
