(* Host-speed correction.

   On a shared virtual machine the same deterministic request runs up
   to twice as slow from one second to the next, and the host can stay
   in its slow state for minutes.  No statistic over one run's own
   latencies removes that.  Instead, a fixed unit of work, the probe,
   is timed between the requests, and each request's latency is
   rescaled by how fast the probe ran around it: a latency of [l] ms
   with probes of [p] ms just before and just after it is reported as
   [l *. reference_ms /. p] ms, its latency at the reference speed.

   The probe uses no code of the repository, so a change to the
   program under test cannot change it.  It does what the program
   spends its time on: it builds a hash table of short int lists
   (allocation, structural hashing, minor collections), then looks up
   a fixed set of keys in a prebuilt hash table and map (hashing,
   structural comparison, pointer chasing, no allocation). *)

(* A round figure within the 0.6 to 1.6 ms that the probe took, as a
   run's median, on the two-vCPU host the benchmark's bounds were set
   on. *)
let reference_ms = 1.0

module Keys = Map.Make (struct
  type t = int list

  let compare = compare
end)

let key j = [ j; j * 7; j land 255 ]
let keys = Array.init 4096 key
let table = Hashtbl.create 4096
let map = Array.fold_left (fun m k -> Keys.add k () m) Keys.empty keys
let () = Array.iter (fun k -> Hashtbl.replace table k ()) keys

(* Fresh copies of scattered keys, so that every lookup compares
   structurally rather than by address. *)
let lookups = Array.init 1024 (fun j -> List.map (fun x -> x + 0) keys.(j * 2654435761 land 4095))

let work () =
  let t = Hashtbl.create 16 in
  for j = 0 to 2000 do
    Hashtbl.replace t (key j) (Some j)
  done;
  let n = ref 0 in
  for j = 0 to 2000 do
    match Hashtbl.find_opt t (key j) with Some (Some v) -> n := !n + v | _ -> ()
  done;
  Array.iter
    (fun k ->
      if Hashtbl.mem table k then incr n;
      if Keys.mem k map then incr n)
    lookups;
  ignore (Sys.opaque_identity !n)

(* One probe, in ms. *)
let run () =
  let t0 = Unix.gettimeofday () in
  work ();
  (Unix.gettimeofday () -. t0) *. 1000.

(* The factor for a sample between probes of [before] and [after] ms:
   the faster probe is the better estimate of the host's speed, since
   a probe, like a request, can only be slowed down. *)
let factor ~before ~after = reference_ms /. Float.min before after
