(* The benchmark's own tracer.  Spans are recorded in memory around the
   benchmark's calls into each layer's public functions; the program's
   own [Obs.Trace] stays off.  Nothing is recorded unless [on] is set,
   so the untraced run pays one branch per call site. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  req : int;  (** the request this span belongs to *)
  name : string;
  t0 : int;  (** ns *)
  t1 : int;
}

let on = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let cur_req = ref 0

(* Counts recorded at the same boundaries as the spans, summed by name. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 64

let reset () =
  spans := [];
  next_id := 0;
  stack := [];
  Hashtbl.reset counts

let now () = Obs.Clock.now_ns ()

let with_ name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      stack := List.tl !stack;
      spans := { id; parent; req = !cur_req; name; t0; t1 } :: !spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* A span with explicit times, safe to call from several threads (the
   open-loop generator records its requests this way). *)
let lock = Mutex.create ()

let record ~name ~parent ~req ~t0 ~t1 =
  Mutex.lock lock;
  let id = !next_id in
  incr next_id;
  spans := { id; parent; req; name; t0; t1 } :: !spans;
  Mutex.unlock lock;
  id

let count name v =
  if !on then
    Hashtbl.replace counts name
      (v +. Option.value ~default:0. (Hashtbl.find_opt counts name))

let get name = Option.value ~default:0. (Hashtbl.find_opt counts name)

(* Allocation and collection deltas at a span boundary, from
   [Gc.quick_stat]: summed into [<prefix>.alloc_words], ... *)
let with_gc prefix f =
  if not !on then f ()
  else begin
    let a = Gc.quick_stat () in
    let v = f () in
    let b = Gc.quick_stat () in
    let alloc (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
    count (prefix ^ ".alloc_words") (alloc b -. alloc a);
    count (prefix ^ ".promoted_words") (b.promoted_words -. a.promoted_words);
    count (prefix ^ ".minor_words") (b.minor_words -. a.minor_words);
    count (prefix ^ ".minor_collections")
      (float_of_int (b.minor_collections - a.minor_collections));
    count (prefix ^ ".major_collections")
      (float_of_int (b.major_collections - a.major_collections));
    v
  end

(* Self time: a span's duration minus the part of its interval that its
   children cover (children intervals merged and clipped to the
   parent, so overlapping or escaping children are not counted
   twice). *)
let self_times (all : span list) =
  let kids = Hashtbl.create 256 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent (s.t0, s.t1))
    all;
  List.map
    (fun s ->
      let ivs =
        Hashtbl.find_all kids s.id
        |> List.map (fun (a, b) -> (max a s.t0, min b s.t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (a, b) ->
            if b <= hi then (acc, hi)
            else (acc + (b - max a hi), b))
          (0, min_int) ivs
      in
      (s, s.t1 - s.t0 - covered))
    all

(* Chrome trace_event JSON ("X" complete events, microseconds). *)
let write_chrome path (all : span list) =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
        s.name
        (float_of_int s.t0 /. 1e3)
        (float_of_int (s.t1 - s.t0) /. 1e3)
        s.id s.parent s.req)
    (List.rev all);
  output_string oc "]}\n";
  close_out oc
