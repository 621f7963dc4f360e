(* The result line, the host block and the report lines before them. *)

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (* name, value, unit *)
}

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print r =
  let metrics =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
      r.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed (String.concat ", " metrics)

(* A line of the human-readable report (stdout, before the result). *)
let say fmt = Printf.printf (fmt ^^ "\n%!")

(* The commit of the working directory, read from .git without running
   git; the benchmark may run in a checkout that is not a repository. *)
let git_commit () =
  let read p = try String.trim (Util.read_file p) with Sys_error _ -> "" in
  match read ".git/HEAD" with
  | "" -> "unknown"
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read (".git/" ^ ref_) with
    | "" ->
      (* A packed ref: "<sha> <ref>" lines. *)
      String.split_on_char '\n' (read ".git/packed-refs")
      |> List.find_map (fun l ->
             match String.split_on_char ' ' l with
             | [ sha; r ] when r = ref_ -> Some sha
             | _ -> None)
      |> Option.value ~default:"unknown"
    | sha -> sha)
  | sha -> sha

(* Everything a reader needs to compare two results: the machine, the
   toolchain, the code and the load. *)
let host ~workload ~seed ~trace ~budgets ~pool ~clients =
  let open Ba_util.Json in
  say "%s"
    (to_string
       (Obj
          [
            ( "host",
              Obj
                [
                  ("nproc", Int (Util.nproc ()));
                  ("ocaml", String Sys.ocaml_version);
                  ("commit", String (git_commit ()));
                  ("workload", String workload);
                  ("seed", Int seed);
                  ("trace", Bool trace);
                  ("budgets", List (List.map (fun b -> Int b) budgets));
                  ("pool_domains", Int pool);
                  ("client_connections", Int clients);
                ] );
          ]))
