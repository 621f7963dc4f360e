type t = {
  steps : int;
  completed : bool;
  n_conds : int;
  conds : bytes;
  n_choices : int;
  choices : bytes;
}

let byte_size t = Bytes.length t.conds + Bytes.length t.choices

let equal a b =
  a.steps = b.steps && a.completed = b.completed && a.n_conds = b.n_conds
  && a.n_choices = b.n_choices
  && Bytes.equal a.conds b.conds
  && Bytes.equal a.choices b.choices

let cond t i =
  if i < 0 || i >= t.n_conds then invalid_arg "Trace.cond: index out of range";
  (Char.code (Bytes.get t.conds (i lsr 3)) lsr (i land 7)) land 1 = 1

(* Unsigned LEB128, the coding of the choice stream and of every header
   field of the disk format. *)

let buf_varint buf n =
  if n < 0 then invalid_arg "Trace: negative varint";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7F)));
      go (n lsr 7)
    end
  in
  go n

let write_varint oc n =
  if n < 0 then invalid_arg "Trace: negative varint";
  let rec go n =
    if n < 0x80 then output_byte oc n
    else begin
      output_byte oc (0x80 lor (n land 0x7F));
      go (n lsr 7)
    end
  in
  go n

let read_varint ic =
  let rec go shift acc =
    match input_byte ic with
    | b ->
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    | exception End_of_file -> failwith "Trace.load: truncated varint"
  in
  go 0 0

module Builder = struct
  type t = {
    conds : Buffer.t;
    mutable bit_acc : int;
    mutable bit_n : int;
    mutable n_conds : int;
    choices : Buffer.t;
    mutable n_choices : int;
  }

  let create () =
    {
      conds = Buffer.create 4096;
      bit_acc = 0;
      bit_n = 0;
      n_conds = 0;
      choices = Buffer.create 1024;
      n_choices = 0;
    }

  let add_outcome b v =
    if v then b.bit_acc <- b.bit_acc lor (1 lsl b.bit_n);
    b.bit_n <- b.bit_n + 1;
    b.n_conds <- b.n_conds + 1;
    if b.bit_n = 8 then begin
      Buffer.add_char b.conds (Char.chr b.bit_acc);
      b.bit_acc <- 0;
      b.bit_n <- 0
    end

  let add_choice b i =
    buf_varint b.choices i;
    b.n_choices <- b.n_choices + 1

  let finish b ~steps ~completed =
    if b.bit_n > 0 then begin
      Buffer.add_char b.conds (Char.chr b.bit_acc);
      b.bit_acc <- 0;
      b.bit_n <- 0
    end;
    {
      steps;
      completed;
      n_conds = b.n_conds;
      conds = Buffer.to_bytes b.conds;
      n_choices = b.n_choices;
      choices = Buffer.to_bytes b.choices;
    }
end

(* -- disk format ----------------------------------------------------------- *)

let magic = "BAST1\n"

type file = { seed : int; max_steps : int; trace : t }

(* Seeds may be any int; zigzag them into the nonnegative range the varint
   coder accepts. *)
let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag n = (n lsr 1) lxor (- (n land 1))

let save ~path ~seed ~max_steps t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      let v = write_varint oc in
      v (zigzag seed);
      v max_steps;
      v t.steps;
      output_byte oc (if t.completed then 1 else 0);
      v t.n_conds;
      v (Bytes.length t.conds);
      output_bytes oc t.conds;
      v t.n_choices;
      v (Bytes.length t.choices);
      output_bytes oc t.choices)

let load ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      (match really_input_string ic (String.length magic) with
      | m when m = magic -> ()
      | _ -> failwith "Trace.load: bad magic"
      | exception End_of_file -> failwith "Trace.load: truncated header");
      let v () = read_varint ic in
      let seed = unzigzag (v ()) in
      let max_steps = v () in
      let steps = v () in
      let completed =
        match input_byte ic with
        | 0 -> false
        | 1 -> true
        | _ -> failwith "Trace.load: bad completed flag"
        | exception End_of_file -> failwith "Trace.load: truncated file"
      in
      let n_conds = v () in
      let conds_len = v () in
      let conds = Bytes.create conds_len in
      (try really_input ic conds 0 conds_len
       with End_of_file -> failwith "Trace.load: truncated cond stream");
      let n_choices = v () in
      let choices_len = v () in
      let choices = Bytes.create choices_len in
      (try really_input ic choices 0 choices_len
       with End_of_file -> failwith "Trace.load: truncated choice stream");
      { seed; max_steps; trace = { steps; completed; n_conds; conds; n_choices; choices } })
