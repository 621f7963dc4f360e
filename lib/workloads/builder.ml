open Ba_ir

type slot = { insns : int; mutable term : Term.t option }

type pb = { slots : slot Dynarray_compat.t }

and t = {
  prog_name : string;
  seed : int;
  mutable procs : (string * pb option ref) list;  (* in declaration order, reversed *)
  mutable n_declared : int;
}

type region = { entry : Term.block_id; patch_next : Term.block_id -> unit }

let create ~name ~seed = { prog_name = name; seed; procs = []; n_declared = 0 }

let declare t ~name =
  let id = t.n_declared in
  t.n_declared <- t.n_declared + 1;
  t.procs <- (name, ref None) :: t.procs;
  id

let add pb ~insns = Dynarray_compat.add pb.slots { insns; term = None }

let set_term pb b term =
  let slot = Dynarray_compat.get pb.slots b in
  match slot.term with
  | Some _ -> invalid_arg "Builder: terminator already set"
  | None -> slot.term <- Some term

let once name f =
  let used = ref false in
  fun x ->
    if !used then invalid_arg (Printf.sprintf "Builder: %s patched twice" name);
    used := true;
    f x

(* -- regions ----------------------------------------------------------- *)

let basic pb ?(insns = 4) () =
  let b = add pb ~insns in
  { entry = b; patch_next = once "basic" (fun next -> set_term pb b (Term.Jump next)) }

let seq pb builders =
  match builders with
  | [] -> invalid_arg "Builder.seq: empty sequence"
  | first :: rest ->
    let r0 = first pb in
    let last =
      List.fold_left
        (fun prev build ->
          let r = build pb in
          prev.patch_next r.entry;
          r)
        r0 rest
    in
    { entry = r0.entry; patch_next = last.patch_next }

let while_loop ?behavior pb ~trips ~body =
  if trips < 1 then invalid_arg "Builder.while_loop: trips must be positive";
  let behavior = match behavior with Some b -> b | None -> Behavior.Loop trips in
  let header = add pb ~insns:2 in
  let body_region = body pb in
  body_region.patch_next header;
  {
    entry = header;
    patch_next =
      once "while_loop"
        (fun next ->
          set_term pb header
            (Term.Cond { on_true = body_region.entry; on_false = next; behavior }));
  }

let do_while ?(latch_insns = 2) ?behavior pb ~trips ~body =
  if trips < 1 then invalid_arg "Builder.do_while: trips must be positive";
  let behavior = match behavior with Some b -> b | None -> Behavior.Loop trips in
  let body_region = body pb in
  let latch = add pb ~insns:latch_insns in
  body_region.patch_next latch;
  {
    entry = body_region.entry;
    patch_next =
      once "do_while"
        (fun next ->
          set_term pb latch
            (Term.Cond { on_true = body_region.entry; on_false = next; behavior }));
  }

let driver ?behavior pb ~trips ~body =
  seq pb
    [
      (fun pb -> basic pb ~insns:6 ());
      (fun pb -> while_loop ?behavior pb ~trips ~body);
    ]

let self_loop ?(insns = 11) pb ~trips =
  if trips < 1 then invalid_arg "Builder.self_loop: trips must be positive";
  let b = add pb ~insns in
  {
    entry = b;
    patch_next =
      once "self_loop"
        (fun next ->
          set_term pb b
            (Term.Cond { on_true = b; on_false = next; behavior = Behavior.Loop trips }));
  }

let if_else ?behavior pb ~p_true ~then_ ~else_ =
  let behavior = match behavior with Some b -> b | None -> Behavior.Bias p_true in
  let cond = add pb ~insns:3 in
  let then_region = then_ pb in
  let else_region = else_ pb in
  set_term pb cond
    (Term.Cond { on_true = then_region.entry; on_false = else_region.entry; behavior });
  {
    entry = cond;
    patch_next =
      once "if_else"
        (fun next ->
          then_region.patch_next next;
          else_region.patch_next next);
  }

let if_then ?(cond_insns = 3) ?behavior pb ~p_true ~then_ =
  let behavior = match behavior with Some b -> b | None -> Behavior.Bias p_true in
  let cond = add pb ~insns:cond_insns in
  let then_region = then_ pb in
  {
    entry = cond;
    patch_next =
      once "if_then"
        (fun next ->
          set_term pb cond
            (Term.Cond { on_true = then_region.entry; on_false = next; behavior });
          then_region.patch_next next);
  }

let switch ?(insns = 3) pb ~cases =
  if cases = [] then invalid_arg "Builder.switch: no cases";
  let sw = add pb ~insns in
  let regions = List.map (fun (w, build) -> (w, build pb)) cases in
  set_term pb sw
    (Term.Switch
       { targets = Array.of_list (List.map (fun (w, r) -> (r.entry, w)) regions) });
  {
    entry = sw;
    patch_next =
      once "switch" (fun next -> List.iter (fun (_, r) -> r.patch_next next) regions);
  }

let call pb ?(insns = 4) callee =
  let b = add pb ~insns in
  {
    entry = b;
    patch_next =
      once "call" (fun next -> set_term pb b (Term.Call { callee; next }));
  }

let vcall pb ?(insns = 4) callees =
  if callees = [] then invalid_arg "Builder.vcall: no callees";
  let b = add pb ~insns in
  {
    entry = b;
    patch_next =
      once "vcall"
        (fun next ->
          set_term pb b (Term.Vcall { callees = Array.of_list callees; next }));
  }

(* -- program assembly --------------------------------------------------- *)

let define t pid body =
  let in_order = List.rev t.procs in
  let _, cell =
    try List.nth in_order pid
    with Failure _ | Invalid_argument _ -> invalid_arg "Builder.define: unknown procedure"
  in
  (match !cell with
  | Some _ -> invalid_arg "Builder.define: procedure already defined"
  | None -> ());
  let pb = { slots = Dynarray_compat.create () } in
  let region = body pb in
  let final = add pb ~insns:1 in
  set_term pb final (if pid = 0 then Term.Halt else Term.Ret);
  region.patch_next final;
  cell := Some pb

let build t =
  let in_order = List.rev t.procs in
  let procs =
    List.map
      (fun (name, cell) ->
        match !cell with
        | None -> invalid_arg (Printf.sprintf "Builder.build: procedure %s undefined" name)
        | Some pb ->
          let blocks =
            Array.init (Dynarray_compat.length pb.slots) (fun i ->
                let slot = Dynarray_compat.get pb.slots i in
                match slot.term with
                | None ->
                  invalid_arg
                    (Printf.sprintf "Builder.build: %s block %d has no terminator" name i)
                | Some term -> Block.make ~insns:slot.insns term)
          in
          Proc.make ~name blocks)
      in_order
  in
  let program = Program.make ~name:t.prog_name ~seed:t.seed (Array.of_list procs) in
  match Program.validate program with
  | Ok () -> program
  | Error e -> invalid_arg ("Builder.build: invalid program: " ^ e)
