(** Disassembly listings of (rewritten) code images.

    Renders a code image the way objdump would show the binary the paper's
    OM post-processor emits: procedures with their blocks in final layout
    order, one line per instruction with its address and mnemonic, branch
    targets resolved to [proc:block] labels.  Comparing the original and
    aligned listings of a procedure makes every rewrite visible — reordered
    blocks, inverted branch senses, inserted and removed jumps. *)

val proc_listing : Codegen.listing -> Ba_ir.Term.proc_id -> string

val side_by_side :
  original:Codegen.listing -> aligned:Codegen.listing -> Ba_ir.Term.proc_id -> string
(** Two-column original-vs-aligned listing of one procedure. *)
