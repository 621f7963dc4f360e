type cls = Fp | Int | Other

let cls_name = function Fp -> "SPECfp92" | Int -> "SPECint92" | Other -> "Other"
let fp_fraction = function Fp -> 0.5 | Int | Other -> 0.08

type t = {
  name : string;
  cls : cls;
  description : string;
  build : unit -> Ba_ir.Program.t;
}

let of_entry cls (name, build, description) = { name; cls; description; build }

let all =
  List.map (of_entry Fp) Fp.all
  @ List.map (of_entry Int) Intw.all
  @ List.map (of_entry Other) Cxx.all

let by_name name = List.find_opt (fun w -> w.name = name) all

let spec_c_programs =
  [ "alvinn"; "ear"; "compress"; "eqntott"; "espresso"; "gcc"; "li"; "sc" ]

let default_max_steps = 3_000_000

let max_steps_of_string s =
  match int_of_string_opt s with
  | Some n when n > 0 -> Ok n
  | Some _ | None -> Error (Printf.sprintf "must be a positive integer, got %S" s)
