let run ?profile ?max_steps image =
  let b = Trace.Builder.create () in
  let result =
    Ba_exec.Engine.run ?profile ?max_steps
      ~on_outcome:(Trace.Builder.add_outcome b)
      ~on_choice:(Trace.Builder.add_choice b) image
  in
  ( result,
    Trace.Builder.finish b ~steps:result.Ba_exec.Engine.steps
      ~completed:result.Ba_exec.Engine.completed )

let profile_and_record ?max_steps program =
  Ba_obs.Span.with_ "profile" @@ fun () ->
  let profile = Ba_cfg.Profile.create program in
  let image = Ba_layout.Image.original program in
  let (_ : Ba_exec.Engine.result), trace = run ~profile ?max_steps image in
  (profile, trace)
