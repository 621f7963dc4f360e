(** Request execution: {!Ba_report.Query} results rendered as JSON bodies.

    {!handle} is a pure function of the request — profiles and traces come
    from the deterministic {!Ba_workloads.Profiled} cache and every body
    field comes from the same {!Ba_report.Query} (or, for [verify] and
    [analyze], the same {!Ba_verify.Run} and {!Ba_conflict.Analyze} calls)
    the CLI commands print from — so a batch of handlers dispatched through {!Ba_par.Pool} produces
    byte-identical responses at any [-j].  [metrics] requests are the one
    exception: they read server state, so {!Server} answers them itself and
    {!handle} returns an error for them. *)

val handle : Protocol.request -> Protocol.response
