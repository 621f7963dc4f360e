open Ba_layout

type t = {
  image : Image.t;
  entry : int;
  pbase : int array;
  addr : int array;
  insns : int array;
  opcode : int array;
  a : int array;
  b : int array;
  c : int array;
  succ : int array;
  arity : int array;
}

let onone = 0
let ojump = 1
let ocond = 2
let oswitch = 3
let ocall = 4
let ovcall = 5
let oret = 6
let ohalt = 7

let of_image (image : Image.t) =
  let linears = image.Image.linears in
  let nprocs = Array.length linears in
  let pbase = Array.make nprocs 0 in
  let n = ref 0 in
  for p = 0 to nprocs - 1 do
    pbase.(p) <- !n;
    n := !n + Array.length linears.(p).Linear.blocks
  done;
  let n = !n in
  let addr = Array.make n 0 in
  let insns = Array.make n 0 in
  let opcode = Array.make n onone in
  let a = Array.make n (-1) in
  let b = Array.make n (-1) in
  let c = Array.make n (-1) in
  let arity = Array.make n 0 in
  (* successor pool: switch positions and vcall callee entries, as global
     positions *)
  let pool_len =
    let len = ref 0 in
    Array.iter
      (fun lin ->
        Array.iter
          (fun lb ->
            match lb.Linear.term with
            | Linear.Lswitch { positions; _ } -> len := !len + Array.length positions
            | Linear.Lvcall { callees; _ } -> len := !len + Array.length callees
            | _ -> ())
          lin.Linear.blocks)
      linears;
    !len
  in
  let succ = Array.make (max 1 pool_len) (-1) in
  let pool_next = ref 0 in
  for p = 0 to nprocs - 1 do
    let base = pbase.(p) in
    let blocks = linears.(p).Linear.blocks in
    Array.iteri
      (fun pos lb ->
        let g = base + pos in
        addr.(g) <- lb.Linear.addr;
        insns.(g) <- lb.Linear.insns;
        let cont_operands cont =
          match cont with
          | Linear.Fall -> (-1, g + 1)
          | Linear.Jump_to target ->
            (Linear.inserted_jump_pc lb, base + target)
        in
        match lb.Linear.term with
        | Linear.Lnone -> opcode.(g) <- onone
        | Linear.Ljump target ->
          opcode.(g) <- ojump;
          a.(g) <- base + target
        | Linear.Lcond { taken_pos; taken_on; inserted_jump } ->
          opcode.(g) <- ocond;
          a.(g) <- base + taken_pos;
          b.(g) <- (if taken_on then 1 else 0);
          c.(g) <- (match inserted_jump with Some j -> base + j | None -> -1)
        | Linear.Lswitch { positions; _ } ->
          opcode.(g) <- oswitch;
          a.(g) <- !pool_next;
          arity.(g) <- Array.length positions;
          Array.iter
            (fun target ->
              succ.(!pool_next) <- base + target;
              incr pool_next)
            positions
        | Linear.Lcall { callee; cont } ->
          opcode.(g) <- ocall;
          a.(g) <- pbase.(callee);
          let jump_pc, resume = cont_operands cont in
          b.(g) <- jump_pc;
          c.(g) <- resume
        | Linear.Lvcall { callees; cont; _ } ->
          opcode.(g) <- ovcall;
          a.(g) <- !pool_next;
          arity.(g) <- Array.length callees;
          Array.iter
            (fun callee ->
              succ.(!pool_next) <- pbase.(callee);
              incr pool_next)
            callees;
          let jump_pc, resume = cont_operands cont in
          b.(g) <- jump_pc;
          c.(g) <- resume
        | Linear.Lret -> opcode.(g) <- oret
        | Linear.Lhalt -> opcode.(g) <- ohalt)
      blocks
  done;
  {
    image;
    entry = pbase.(image.Image.program.Ba_ir.Program.main);
    pbase;
    addr;
    insns;
    opcode;
    a;
    b;
    c;
    succ;
    arity;
  }
