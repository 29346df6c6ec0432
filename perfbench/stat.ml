(* Order statistics over raw samples (nearest rank, no interpolation). *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* 1-based nearest rank, robust to [q *. n] landing a hair above an
   integer. *)
let rank n q = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))

let pct (a : float array) q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan else s.(min (n - 1) (max 0 (rank n q - 1)))

let median a = pct a 0.5

(* A percentile is reported only when at least ten samples lie beyond
   it. *)
let beyond n q = n - rank n q
let supported n q = beyond n q >= 10

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f kB" (fun kb -> kb /. 1024.)
        | _ -> go ()
      in
      let v = go () in
      close_in ic;
      v
