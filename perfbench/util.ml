(* Clocks, process accounting, order statistics and the seeded generator
   shared by every workload. *)

(* Wall time on the monotonic clock, in nanoseconds. *)
let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* User + system CPU seconds of this process, all domains included. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Reads to EOF, so it also serves /proc files, which report no length. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let clock_ticks = 100.0

(* User + system CPU seconds of another process, from /proc/<pid>/stat
   (fields 14 and 15, in clock ticks; they cover every thread). *)
let proc_cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* The command name (field 2) may contain spaces: count fields from the
     last ')', where field 3 starts. *)
  let from = String.rindex s ')' + 2 in
  let fields = Array.of_list (String.split_on_char ' ' (String.sub s from (String.length s - from))) in
  (float_of_string fields.(14 - 3) +. float_of_string fields.(15 - 3)) /. clock_ticks

(* Seconds of CPU the hypervisor gave to other guests while this machine
   wanted it (the "steal" field of /proc/stat, all CPUs): a sign that a
   slow run was the host's doing. *)
let host_steal_s () =
  match String.split_on_char ' ' (List.hd (String.split_on_char '\n' (read_file "/proc/stat"))) with
  | "cpu" :: "" :: fields -> float_of_string (List.nth fields 7) /. clock_ticks
  | _ -> 0.0

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let status =
    read_file
      (if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid)
  in
  let kb =
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Some (float_of_string (List.hd (String.split_on_char ' ' (String.trim v))))
        | _ -> None)
      (String.split_on_char '\n' status)
  in
  Option.value ~default:0.0 kb /. 1024.0

let nproc () = Domain.recommended_domain_count ()

(* Nearest-rank percentile of an unsorted sample; [q] in [0, 1]. *)
let percentile q samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Splitmix64: the request tables must be a pure function of the seed on
   every OCaml version, so they do not use [Random]. *)
type rng = { mutable state : int64 }

let rng seed = { state = Int64.of_int seed }

let next r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let below r n = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int n))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = below r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let digest s = Digest.to_hex (Digest.string s)
