(* Spans recorded by the benchmark around its calls into each layer.

   A span has a name (the layer it times), a start and an end on the
   monotonic clock, its parent span, and the minor words allocated while
   it was open.  A span's self time is its duration minus the time its
   child spans cover; calls, busy and self times accumulate per name.
   Spans stay in memory and are written out when the run ends. *)

type record = {
  id : int;
  parent : int;  (* -1 for a root span *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
  words : float;
}

type frame = {
  f_id : int;
  mutable f_name : string;
  f_start : int64;
  f_words : float;
  mutable child_ns : int64;
}

type acc = { mutable calls : int; mutable busy_ns : int64; mutable self_ns : int64 }

type t = {
  mutable next_id : int;
  mutable stack : frame list;
  mutable records : record list;
  totals : (string, acc) Hashtbl.t;
}

let create () = { next_id = 0; stack = []; records = []; totals = Hashtbl.create 32 }

let acc t name =
  match Hashtbl.find_opt t.totals name with
  | Some a -> a
  | None ->
    let a = { calls = 0; busy_ns = 0L; self_ns = 0L } in
    Hashtbl.replace t.totals name a;
    a

let enter t name =
  let f =
    {
      f_id = t.next_id;
      f_name = name;
      f_start = Util.now_ns ();
      f_words = Gc.minor_words ();
      child_ns = 0L;
    }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- f :: t.stack;
  f

let leave t f =
  let stop = Util.now_ns () in
  let words = Gc.minor_words () -. f.f_words in
  let dur = Int64.sub stop f.f_start in
  (match t.stack with
  | top :: rest when top == f -> t.stack <- rest
  | _ -> invalid_arg "Span.leave: spans must nest");
  let parent =
    match t.stack with
    | p :: _ ->
      p.child_ns <- Int64.add p.child_ns dur;
      p.f_id
    | [] -> -1
  in
  let a = acc t f.f_name in
  a.calls <- a.calls + 1;
  a.busy_ns <- Int64.add a.busy_ns dur;
  a.self_ns <- Int64.add a.self_ns (Int64.sub dur f.child_ns);
  t.records <-
    { id = f.f_id; parent; name = f.f_name; start_ns = f.f_start; stop_ns = stop; words }
    :: t.records

(* Rename the innermost open span, for a call whose layer is known only
   once it returns (a cache lookup that turned out to be a miss). *)
let retitle t name = match t with Some { stack = f :: _; _ } -> f.f_name <- name | _ -> ()

(* [with_ t name f] runs [f] inside a span; with no recorder it just runs
   [f], so the untraced and traced passes share one code path. *)
let with_ t name f =
  match t with
  | None -> f ()
  | Some t ->
    let fr = enter t name in
    Fun.protect ~finally:(fun () -> leave t fr) f

let calls t name = match Hashtbl.find_opt t.totals name with Some a -> a.calls | None -> 0

let busy_s t name =
  match Hashtbl.find_opt t.totals name with
  | Some a -> Int64.to_float a.busy_ns /. 1e9
  | None -> 0.0

let self_s t name =
  match Hashtbl.find_opt t.totals name with
  | Some a -> Int64.to_float a.self_ns /. 1e9
  | None -> 0.0

let to_json t =
  let open Ba_util.Json in
  List
    (List.rev_map
       (fun r ->
         Obj
           [
             ("id", Int r.id);
             ("parent", Int r.parent);
             ("name", String r.name);
             ("start_ns", Int (Int64.to_int r.start_ns));
             ("stop_ns", Int (Int64.to_int r.stop_ns));
             ("minor_words", Float r.words);
           ])
       t.records)
