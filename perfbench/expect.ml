(* Regenerate perfbench/expected.txt: the digest of the rendered [tables]
   output and of the response body of every request the serve workloads
   can generate.  Bodies come from Ba_serve.Handler.handle, the function
   the server runs for each request. *)

let run () =
  let jobs = Util.nproc () in
  Paper.record_suite ~jobs ();
  let tables = Util.digest (Paper.pass ~jobs ()).Paper.output in
  let universe = Reqs.warm_universe () @ Reqs.churn_universe () @ Reqs.tables_requests () in
  let digests =
    Ba_par.Pool.with_pool ~jobs (fun pool ->
        Ba_par.Pool.map pool
          (fun r ->
            let resp = Ba_serve.Handler.handle (Reqs.to_request ~id:0 r) in
            match resp.Ba_serve.Protocol.status with
            | Ba_serve.Protocol.Ok_ -> Reqs.body_digest resp.Ba_serve.Protocol.body
            | Ba_serve.Protocol.Error_ e -> failwith (Printf.sprintf "%s: %s" (Reqs.key r) e)
            | Ba_serve.Protocol.Overloaded -> assert false)
          universe)
  in
  let oc = open_out_bin Reqs.expected_file in
  Printf.fprintf oc "tables %s\n" tables;
  List.iter2 (fun r d -> Printf.fprintf oc "%s %s\n" (Reqs.key r) d) universe digests;
  close_out oc;
  Printf.printf "wrote %s: %d entries\n" Reqs.expected_file (1 + List.length universe)
