(* The daemon layers, measured in a traced verify_corpus run: a fresh
   [psopt serve] child with an empty store, driven open loop (Poisson
   arrivals) from this process over at most [nproc] connections, one
   thread each.  Warm hits are store reads of prewarmed litmus names and
   repeated verify programs; cold misses are distinct verify programs
   that go through the daemon's single execution slot.  Latency is timed
   from each request's intended send time, so a stalled generator cannot
   hide queueing. *)

open Service

let config = Inproc.config
let now_ns () = Obs.Clock.now_ns ()
let ms ns = float_of_int ns /. 1e6

type klass = Warm | Cold
type item = { klass : klass; work : Proto.work }

type status = Ok of Proto.reply | Busy | Shed | Err of string

type res = {
  item : item;
  due : int;  (** intended send time, ns *)
  sent : int;
  done_ : int;
  status : status;
}

let pass_name i = (List.nth Sim.Verif.registry (i mod List.length Sim.Verif.registry)).name

(* Make [p] a distinct program of the same cost: a dead assignment of
   [k] at the start of its first thread. *)
let salted (p : Lang.Ast.program) k =
  let open Lang.Ast in
  let f = List.hd p.threads in
  let ch = FnameMap.find f p.code in
  let b = LabelMap.find ch.entry ch.blocks in
  let b = { b with instrs = Assign ("salt", Val k) :: b.instrs } in
  { p with code = FnameMap.add f { ch with blocks = LabelMap.add ch.entry b ch.blocks } p.code }

type inputs = {
  warm : item array;
  cold_bases : Lang.Ast.program array;
  seed : int;
  digest : string;
}

let inputs ~seed =
  let picked =
    Gen.stress_strata ~seed ~tag:6 ~candidates:400 ~racy:0 [ (16, 48, 8); (240, 400, 16) ]
  in
  let stratum k = List.filter_map (fun (j, p) -> if j = k then Some p else None) picked in
  let repeated = List.mapi (fun i p -> Proto.Verify (pass_name i, p)) (stratum 0) in
  let litmus = List.map (fun (t : Litmus.t) -> Proto.Litmus t.name) Litmus.all in
  let warm =
    Array.of_list (List.map (fun work -> { klass = Warm; work }) (litmus @ repeated))
  in
  let cold_bases = Array.of_list (stratum 1) in
  let digest =
    Gen.digest
      (List.map
         (fun it -> Lang.Sexp.to_string (Proto.sexp_of_request (Proto.Work (it.work, config, None))))
         (Array.to_list warm)
      @ List.map Gen.text (Array.to_list cold_bases))
  in
  { warm; cold_bases; seed; digest }

let warm_pct = 75

(* Request [k] of phase [phase]: a pure function of (seed, phase, k). *)
let item_of inp ~phase k =
  let st = Random.State.make [| inp.seed; phase; k; 0x0d1e |] in
  if Random.State.int st 100 < warm_pct then
    inp.warm.(Random.State.int st (Array.length inp.warm))
  else
    let base = Random.State.int st (Array.length inp.cold_bases) in
    let salt = (phase * 1_000_000) + k in
    { klass = Cold; work = Proto.Verify (pass_name k, salted inp.cold_bases.(base) salt) }

(* ---- the daemon child ------------------------------------------------- *)

type daemon = { pid : int; socket : string; dir : string }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let wait_exit pid ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Thread.delay 0.01;
        go ()
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  go ()

let stop d =
  ignore (Client.shutdown ~socket:d.socket);
  if not (wait_exit d.pid ~timeout_s:15.) then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (wait_exit d.pid ~timeout_s:15.)
  end;
  rm_rf d.dir

let start ~psopt ~dir =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "s" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process psopt
      [| psopt; "serve"; "--socket"; socket; "--store"; Filename.concat dir "store"; "--quiet" |]
      devnull devnull devnull
  in
  Unix.close devnull;
  let d = { pid; socket; dir } in
  let deadline = Unix.gettimeofday () +. 30. in
  let rec ready () =
    match Client.ping ~socket with
    | Result.Ok _ -> ()
    | Error e ->
        let exited = match Unix.waitpid [ Unix.WNOHANG ] pid with 0, _ -> false | _ -> true in
        if exited || Unix.gettimeofday () > deadline then begin
          if not exited then stop d;
          failwith ("daemon did not come up: " ^ e)
        end;
        Thread.delay 0.005;
        ready ()
  in
  ready ();
  d

let prewarm d inp =
  match Client.connect ~io_timeout_s:60. ~socket:d.socket () with
  | Error e -> failwith e
  | Result.Ok cl ->
      Array.iter
        (fun it ->
          match Client.rpc cl (Proto.Work (it.work, config, None)) with
          | Result.Ok (Proto.Reply _) -> ()
          | Result.Ok _ | Error _ -> failwith "prewarm request not answered")
        inp.warm;
      Client.close cl

(* ---- one open-loop phase ---------------------------------------------- *)

let conns = max 1 (min 2 (Domain.recommended_domain_count ()))

let run_phase d inp ~phase ~rate ~n =
  let sched =
    Loadgen.Schedule.gen ~seed:((inp.seed * 7919) + phase) ~arrivals:Loadgen.Poisson ~rate_hz:rate ~n
  in
  let items = Array.init n (item_of inp ~phase) in
  let out = Array.make n None in
  let next = Atomic.make 0 in
  let t0 = now_ns () + 20_000_000 in
  let worker () =
    let cl = Client.connect ~io_timeout_s:60. ~socket:d.socket () in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let due = t0 + sched.(i) in
        let wait = due - now_ns () in
        if wait > 0 then Thread.delay (float_of_int wait /. 1e9);
        let sent = now_ns () in
        let status =
          match cl with
          | Error e -> Err e
          | Result.Ok cl -> (
              match Client.rpc cl (Proto.Work (items.(i).work, config, None)) with
              | Result.Ok (Proto.Reply r) -> Ok r
              | Result.Ok (Proto.Busy _) -> Busy
              | Result.Ok (Proto.Shed _) -> Shed
              | Result.Ok _ -> Err "unexpected response"
              | Error e -> Err e)
        in
        let done_ = now_ns () in
        if !Span.on then begin
          let req = Span.record ~name:"request" ~parent:(-1) ~req:i ~t0:due ~t1:done_ in
          let rpc = match items.(i).klass with Warm -> "service.rpc.warm" | Cold -> "service.rpc.cold" in
          ignore (Span.record ~name:"loadgen.lag" ~parent:req ~req:i ~t0:due ~t1:sent);
          ignore (Span.record ~name:rpc ~parent:req ~req:i ~t0:sent ~t1:done_)
        end;
        out.(i) <- Some { item = items.(i); due; sent; done_; status };
        loop ()
      end
    in
    loop ();
    Result.iter Client.close cl
  in
  List.iter Thread.join (List.init conns (fun _ -> Thread.create worker ()));
  Array.map Option.get out

type summary = {
  sent : int;
  ok : int;
  busy : int;
  shed : int;
  errors : int;
  all_ms : float array;  (** failures count as infinitely late *)
  warm_ms : float array;
  cold_ms : float array;
  late_pct : float;
  max_lag_ms : float;
  tail_lag_ms : float;  (** median lateness over the last tenth of sends *)
  hit_pct : float;
}

let summarize (rs : res array) =
  let n = Array.length rs in
  let count p = Array.fold_left (fun a r -> if p r then a + 1 else a) 0 rs in
  let is_ok (r : res) = match r.status with Ok _ -> true | _ -> false in
  let lat (r : res) = if is_ok r then ms (r.done_ - r.due) else infinity in
  let cls k = Array.of_list (List.filter_map (fun r -> if is_ok r && r.item.klass = k then Some (lat r) else None) (Array.to_list rs)) in
  let lag (r : res) = ms (r.sent - r.due) in
  let tail = Array.sub rs (n - max 1 (n / 10)) (max 1 (n / 10)) in
  let ok = count is_ok in
  {
    sent = n;
    ok;
    busy = count (fun r -> r.status = Busy);
    shed = count (fun r -> r.status = Shed);
    errors = count (fun r -> match r.status with Err _ -> true | _ -> false);
    all_ms = Array.map lat rs;
    warm_ms = cls Warm;
    cold_ms = cls Cold;
    late_pct = 100. *. float_of_int (count (fun r -> lag r > 1.)) /. float_of_int n;
    max_lag_ms = Array.fold_left (fun a r -> Float.max a (lag r)) 0. rs;
    tail_lag_ms = Stat.median (Array.map lag tail);
    hit_pct =
      100.
      *. float_of_int (count (fun r -> match r.status with Ok { cached = true; _ } -> true | _ -> false))
      /. float_of_int (max 1 ok);
  }

(* Known answers for the daemon: the accounting identity holds, every
   reply is byte-identical to in-process [Server.run_work], and the
   litmus corpus claims hold.  Returns the cold works' compute times. *)
let oracle (tally : Inproc.tally) (checked : res list) (all : summary list) =
  List.iter
    (fun (s : summary) ->
      tally.attempted <- tally.attempted + s.sent;
      tally.failed <- tally.failed + s.busy + s.shed + s.errors;
      if s.sent <> s.ok + s.shed + s.busy + s.errors then begin
        tally.wrong <- tally.wrong + 1;
        Printf.printf "WRONG accounting: sent %d <> ok + shed + busy + errors\n" s.sent
      end)
    all;
  let cache = Hashtbl.create 64 in
  let compute = ref [] in
  let expected (it : item) =
    let key = Lang.Sexp.to_string (Proto.sexp_of_request (Proto.Work (it.work, config, None))) in
    match Hashtbl.find_opt cache key with
    | Some v -> v
    | None ->
        let t0 = Unix.gettimeofday () in
        let v = Server.run_work it.work config in
        let dt = Unix.gettimeofday () -. t0 in
        if it.klass = Cold then compute := (dt *. 1000.) :: !compute;
        Hashtbl.replace cache key v;
        v
  in
  List.iter
    (fun (r : res) ->
      match r.status with
      | Ok rep -> (
          if rep.exit_code >= 2 then tally.failed <- tally.failed + 1;
          (match r.item.work with
          | Proto.Litmus name when rep.exit_code <> 0 ->
              tally.wrong <- tally.wrong + 1;
              Printf.printf "WRONG litmus %s: exit %d\n" name rep.exit_code
          | _ -> ());
          match expected r.item with
          | Ok (out, code) when out = rep.output && code = rep.exit_code -> ()
          | _ ->
              tally.wrong <- tally.wrong + 1;
              Printf.printf "WRONG reply differs from Server.run_work (%s)\n"
                (Proto.kind_tag r.item.work))
      | _ -> ())
    checked;
  Array.of_list !compute

(* ---- knee search ------------------------------------------------------ *)

let limit_p90_ms = 50.
let min_step_samples = 500
let ceiling_hz = 20_000.
let floor_hz = 10.
let resolution = 0.06

(* A rate passes when every request was answered, the all-class p90
   (from intended send time) meets the limit, and the generator's
   median lateness over the last tenth of the phase is still below the
   limit (no growing backlog).  The limit sits on p90, not p99: one scheduling
   pause of the limit's length moves the p99 of a step but not its
   p90. *)
let passes s =
  s.ok = s.sent && Stat.pct s.all_ms 0.9 <= limit_p90_ms && s.tail_lag_ms <= limit_p90_ms

let knee d inp ~start_hz ~step_s ~on_step =
  let phase = ref 10 in
  let once rate =
    incr phase;
    let n = max min_step_samples (int_of_float (rate *. step_s)) in
    let rs = run_phase d inp ~phase:!phase ~rate ~n in
    let s = summarize rs in
    let ok = passes s in
    on_step rate rs s ok;
    (ok, s)
  in
  (* A failing step is run once more, so one transient stall does not
     halve the reported knee. *)
  let try_rate rate = fst (once rate) || fst (once rate) in
  (* Raise until the limit breaks, then bisect. *)
  let rec up lo r =
    if r > ceiling_hz then failwith "knee search reached its ceiling rate"
    else if try_rate r then up (Some r) (r *. 2.)
    else (lo, r)
  in
  let rec down r =
    if r < floor_hz then failwith "no rate meets the latency limit"
    else if try_rate r then r
    else down (r /. 2.)
  in
  let lo, hi =
    match up None start_hz with
    | Some lo, hi -> (lo, hi)
    | None, hi ->
        let lo = down (hi /. 2.) in
        (lo, Float.min hi (lo *. 2.))
  in
  let rec bisect lo hi =
    if (hi -. lo) /. lo <= resolution then lo
    else
      let mid = (lo +. hi) /. 2. in
      if try_rate mid then bisect mid hi else bisect lo mid
  in
  bisect lo hi
