open Ba_layout

(* Label every block-start address as proc:bN. *)
let labels (image : Image.t) =
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun p (linear : Linear.t) ->
      let name = (Ba_ir.Program.proc image.Image.program p).Ba_ir.Proc.name in
      Array.iter
        (fun (lb : Linear.lblock) ->
          Hashtbl.replace tbl lb.Linear.addr (Printf.sprintf "%s:b%d" name lb.Linear.src))
        linear.Linear.blocks)
    image.Image.linears;
  tbl

let render_insn labels addr (insn : Insn.t) =
  let target =
    match insn.Insn.target with
    | None -> ""
    | Some t -> (
      match Hashtbl.find_opt labels t with
      | Some label -> Printf.sprintf "  %s" label
      | None -> Printf.sprintf "  %#x" t)
  in
  Printf.sprintf "  %04x  %-6s%s" addr (Insn.mnemonic insn.Insn.opcode) target

let proc_lines (t : Codegen.listing) pid =
  let image = t.Codegen.image in
  let linear = image.Image.linears.(pid) in
  let labels = labels image in
  let name = (Ba_ir.Program.proc image.Image.program pid).Ba_ir.Proc.name in
  Printf.sprintf "%s:" name
  :: List.concat_map
       (fun (lb : Linear.lblock) ->
         Printf.sprintf "b%d:" lb.Linear.src
         :: List.mapi
              (fun k insn -> render_insn labels (lb.Linear.addr + k) insn)
              (Codegen.block_insns t lb))
       (Array.to_list linear.Linear.blocks)

let proc_listing t pid = String.concat "\n" (proc_lines t pid) ^ "\n"

let side_by_side ~original ~aligned pid =
  let left = proc_lines original pid in
  let right = proc_lines aligned pid in
  let width =
    List.fold_left (fun acc line -> max acc (String.length line)) 0 left
  in
  let rec zip left right acc =
    match (left, right) with
    | [], [] -> List.rev acc
    | l :: ls, [] -> zip ls [] ((l ^ "") :: acc)
    | [], r :: rs ->
      zip [] rs ((String.make width ' ' ^ " | " ^ r) :: acc)
    | l :: ls, r :: rs ->
      zip ls rs ((l ^ String.make (width - String.length l) ' ' ^ " | " ^ r) :: acc)
  in
  let header =
    Printf.sprintf "%-*s | %s" width "ORIGINAL" "ALIGNED"
  in
  String.concat "\n" (header :: zip left right []) ^ "\n"
