(* The serving request tables and their expected response digests.

   A request table is a pure function of the seed.  Every request the
   generator can produce lies in a finite universe, and expected.txt
   holds the digest of each one's response body, keyed by the request's
   content (never by its id, which depends on the seed). *)

module P = Ba_serve.Protocol

let warm_steps = 20_000
let kinds = [| P.Align; P.Simulate; P.Verify; P.Analyze |]
let algos = [| "orig"; "greedy"; "cost"; "try15"; "exttsp" |]
let archs = [| "fallthrough"; "btfnt"; "likely"; "pht"; "btb" |]
let workloads = Array.of_list Ba_workloads.Spec.all
let n_workloads = Array.length workloads

(* serve-churn: every (workload, budget) pair is a distinct cache key. *)
let churn_budgets = Array.init 32 (fun b -> 10_000 + (640 * b))
let n_pairs = n_workloads * Array.length churn_budgets

type t = { kind : P.kind; workload : string; algo : string; arch : string; steps : int }

let key r =
  Printf.sprintf "%s/%s/%s/%s/%d" (P.kind_name r.kind) r.workload r.algo r.arch r.steps

let to_request ~id r =
  P.request ~workload:r.workload ~algo:r.algo ~arch:r.arch ~max_steps:r.steps ~id r.kind

let warm_universe () =
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun (w : Ba_workloads.Spec.t) ->
          List.concat_map
            (fun algo ->
              List.map
                (fun arch -> { kind; workload = w.Ba_workloads.Spec.name; algo; arch; steps = warm_steps })
                (Array.to_list archs))
            (Array.to_list algos))
        Ba_workloads.Spec.all)
    (Array.to_list kinds)

(* A churn pair's algorithm and cost model are fixed by the pair, so the
   universe stays two requests per pair. *)
let churn_request kind p =
  let w = workloads.(p mod n_workloads) in
  let b = p / n_workloads in
  {
    kind;
    workload = w.Ba_workloads.Spec.name;
    algo = algos.(p mod Array.length algos);
    arch = archs.(p / Array.length algos mod Array.length archs);
    steps = churn_budgets.(b);
  }

(* The [tables] workload's server account: the served form of its work,
   one [tables] request per program, over a fixed subset of the suite. *)
let tables_programs = [ "alvinn"; "swm256"; "compress"; "espresso"; "gcc"; "groff" ]

let tables_requests () =
  List.map
    (fun workload -> { kind = P.Tables; workload; algo = ""; arch = ""; steps = Ba_workloads.Spec.default_max_steps })
    tables_programs

let churn_universe () =
  List.concat_map
    (fun p -> [ churn_request P.Analyze p; churn_request P.Align p ])
    (List.init n_pairs Fun.id)

(* Infinite request streams.  serve-warm draws every field independently;
   serve-churn walks seeded permutations of the pair universe, so no pair
   repeats until all have been named. *)
let warm_stream seed =
  let r = Util.rng seed in
  fun () ->
    let kind = kinds.(Util.below r (Array.length kinds)) in
    let w = workloads.(Util.below r n_workloads) in
    let algo = algos.(Util.below r (Array.length algos)) in
    let arch = archs.(Util.below r (Array.length archs)) in
    { kind; workload = w.Ba_workloads.Spec.name; algo; arch; steps = warm_steps }

let churn_stream seed =
  let r = Util.rng seed in
  let perm = Array.init n_pairs Fun.id in
  let pos = ref n_pairs in
  fun () ->
    if !pos = n_pairs then begin
      Util.shuffle r perm;
      pos := 0
    end;
    let p = perm.(!pos) in
    incr pos;
    churn_request (if Util.below r 2 = 0 then P.Analyze else P.Align) p

(* A stream over a finite list of requests, for rounds of exactly its
   length. *)
let of_list l =
  let rest = ref l in
  fun () ->
    match !rest with
    | r :: tl ->
      rest := tl;
      r
    | [] -> invalid_arg "Reqs.of_list: the round outran its requests"

(* Requests that fill the serve-warm cache: one per workload, each of
   which records that workload's trace at the warm budget. *)
let warm_fill () =
  Array.to_list
    (Array.map
       (fun (w : Ba_workloads.Spec.t) ->
         { kind = P.Align; workload = w.Ba_workloads.Spec.name; algo = "orig"; arch = "btfnt"; steps = warm_steps })
       workloads)

(* -- expected digests ----------------------------------------------------- *)

let expected_file = "perfbench/expected.txt"

let load_expected () =
  let tbl = Hashtbl.create 8192 in
  String.split_on_char '\n' (Util.read_file expected_file)
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | [ k; d ] -> Hashtbl.replace tbl k d
         | _ -> ());
  tbl

let body_digest (body : Ba_util.Json.t) = Util.digest (Ba_util.Json.to_string body)
