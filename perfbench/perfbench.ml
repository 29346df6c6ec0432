(* The repository's benchmark program.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               [--psopt PATH] [--scratch DIR]
     perfbench --list-metrics
     perfbench --self-test [--scratch DIR]

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer metrics of a separately traced run.  Human-readable lines
   (input digest, sample counts, percentiles, verdict tallies) come
   first; the last line of standard output is the JSON result.  The
   exit code is 1 when a known answer is wrong, 2 on a usage or
   set-up error. *)

let now_s () = Unix.gettimeofday ()
let say fmt = Printf.printf (fmt ^^ "\n%!")

let timed f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

(* ---- layer attribution from the traced run ---------------------------- *)

let layer_values ~overhead_pct =
  let selfs = Span.self_times !Span.spans in
  let self = Hashtbl.create 32 and dur = Hashtbl.create 32 and calls = Hashtbl.create 32 in
  let add t k v = Hashtbl.replace t k (v + Option.value ~default:0 (Hashtbl.find_opt t k)) in
  List.iter
    (fun ((s : Span.span), st) ->
      add self s.name st;
      add dur s.name (s.t1 - s.t0);
      add calls s.name 1)
    selfs;
  let self_ns n = float_of_int (Option.value ~default:0 (Hashtbl.find_opt self n)) in
  let ncalls n = float_of_int (Option.value ~default:0 (Hashtbl.find_opt calls n)) in
  let nreq = max 1. (ncalls "request") in
  let per_req_ms n = self_ns n /. nreq /. 1e6 in
  let c = Span.get in
  let ratio a b = if b > 0. then a /. b else 0. in
  let pct a b = 100. *. ratio a b in
  let explore_s = (self_ns "explore.refine" +. self_ns "explore.behaviors") /. 1e9 in
  let gc = Gc.quick_stat () in
  [
    ("lang.parse_ms", per_req_ms "lang.parse");
    ("lang.print_ms", per_req_ms "lang.print");
    ("lang.parse_mb_per_s", ratio (c "lang.parse_bytes" /. 1e6) (self_ns "lang.parse" /. 1e9));
  ]
  @ List.map (fun p -> ("opt." ^ p ^ "_ms", per_req_ms ("opt." ^ p))) Metrics.passes
  @ [
      ("opt.instrs_after", ratio (c "opt.instrs_after") (c "opt.calls"));
      ("race.ww_rf_ms", per_req_ms "race.ww_rf");
      ("race.states", c "race.states");
      ("sim.simcheck_ms", per_req_ms "sim.simcheck");
      ("sim.holds_pct", pct (c "sim.holds") (c "sim.verdicts"));
      ("explore.refine_ms", per_req_ms "explore.refine");
      ("explore.behaviors_ms", per_req_ms "explore.behaviors");
      ("explore.nodes", c "explore.nodes" /. nreq);
      ("explore.nodes_per_s", ratio (c "explore.nodes") explore_s);
      ("explore.transitions_per_node", ratio (c "explore.transitions") (c "explore.nodes"));
      ( "explore.memo_hit_pct",
        pct (c "explore.memo_hits") (c "explore.memo_hits" +. c "explore.nodes") );
      ("explore.memo_size", ratio (c "explore.memo_size") (c "explore.calls"));
      ("explore.alloc_words_per_node", ratio (c "explore.alloc_words") (c "explore.nodes"));
      ( "explore.reduction_factor",
        ratio (c "explore.unreduced_nodes") (c "explore.reduced_nodes") );
      ("explore.symmetry_folds", c "explore.symmetry_folds" /. nreq);
      ("explore.persistent_prunes", c "explore.persistent_prunes" /. nreq);
      ("explore.sleep_prunes", c "explore.sleep_prunes" /. nreq);
      ("ps.cert_checks", c "ps.cert_checks" /. nreq);
      ("ps.cert_runs", c "ps.cert_runs" /. nreq);
      ("ps.cert_cache_hit_pct", pct (c "ps.cert_cache_hits") (c "ps.cert_checks"));
      ("ps.cert_trivial_pct", pct (c "ps.cert_trivial") (c "ps.cert_checks"));
      ("ps.cand_cache_hits", c "ps.cand_cache_hits" /. nreq);
      ("litmus.check_ms", per_req_ms "litmus.check");
      ("replay.witness_ms", per_req_ms "replay.witness");
      ("replay.record_ms", per_req_ms "replay.record");
      ("replay.session_load_ms", per_req_ms "replay.session_load");
      ("replay.step_ms", per_req_ms "replay.step");
      ("replay.steps", ratio (c "replay.steps") (ncalls "replay.step"));
      ("gc.minor_collections", c "gc.minor_collections" /. nreq);
      ("gc.major_collections", c "gc.major_collections" /. nreq);
      ("gc.alloc_words_per_req", c "gc.alloc_words" /. nreq);
      ("gc.promoted_pct", pct (c "gc.promoted_words") (c "gc.minor_words"));
      ("gc.top_heap_mb", float_of_int gc.top_heap_words *. 8. /. 1048576.);
      ("trace.overhead_pct", overhead_pct);
      ( "trace.uncovered_pct",
        pct (self_ns "request")
          (float_of_int (Option.value ~default:0 (Hashtbl.find_opt dur "request"))) );
    ]

(* ---- in-process workloads ---------------------------------------------- *)

(* A probe (Probe) runs before the first request, then after any
   request that ends at least [probe_every_s] after the previous probe,
   and after the last request: a few percent of the run. *)
let probe_every_s = 0.025

(* Closed loop, one request at a time, in whole rounds over the request
   array until [seconds] have passed and at least [min_rounds] rounds
   are done.  [traced k] says whether round [k] records spans; when
   traced and untraced rounds alternate, the loop ends on a whole
   pair.  [after_round k] runs after the [k]-th round.
   Returns every request's raw and host-speed-corrected latencies (ms)
   by request index, each round's requests per second (over its raw
   request latencies) with whether it was traced, and the probe times
   (ms). *)
let measure ?(traced = fun _ -> false) ?(after_round = fun _ -> ()) (w : Inproc.workload)
    ~seconds ~min_rounds =
  let lat = Array.map (fun _ -> []) w.requests and n = ref 0 and rates = ref [] in
  let corrected = Array.map (fun _ -> []) w.requests in
  let probes = ref [ Probe.run () ] and t_probe = ref (now_s ()) and pending = ref [] in
  let probe () =
    let p = Probe.run () in
    let f = Probe.factor ~before:(List.hd !probes) ~after:p in
    List.iter (fun (i, l) -> corrected.(i) <- (l *. f) :: corrected.(i)) !pending;
    pending := [];
    probes := p :: !probes;
    t_probe := now_s ()
  in
  let t_start = now_s () in
  let elapsed () = now_s () -. t_start in
  let k = ref 0 in
  while
    (elapsed () < seconds || !k < min_rounds || traced 0 <> traced !k)
    && elapsed () < 3. *. seconds
  do
    let tr = traced !k in
    let round_ms = ref 0. in
    Array.iteri
      (fun i (r : Inproc.request) ->
        Span.on := tr;
        Span.cur_req := !n;
        let t0 = now_s () in
        Span.with_gc "gc" (fun () -> Span.with_ "request" r.run);
        let l = (now_s () -. t0) *. 1000. in
        Span.on := false;
        lat.(i) <- l :: lat.(i);
        pending := (i, l) :: !pending;
        round_ms := !round_ms +. l;
        incr n;
        if now_s () -. !t_probe >= probe_every_s then probe ())
      w.requests;
    rates := (tr, float_of_int (Array.length w.requests) /. (!round_ms /. 1000.)) :: !rates;
    incr k;
    after_round !k
  done;
  if !pending <> [] then probe ();
  let arrays = Array.map Array.of_list in
  (arrays lat, arrays corrected, List.rev !rates, Array.of_list !probes)

(* The median over rounds of requests per second. *)
let median_rate rates = Stat.median (Array.of_list (List.map snd rates))

(* Every request does the same deterministic work in every round.  The
   throughput is that of a round in which every request takes its
   median latency. *)
let median_round_rate lat =
  let total_ms = Array.fold_left (fun acc l -> acc +. Stat.median l) 0. lat in
  float_of_int (Array.length lat) /. (total_ms /. 1000.)

(* Untimed known-answer check of every request's last answer. *)
let oracle (w : Inproc.workload) runs =
  let t = { Inproc.wrong = 0; failed = 0; attempted = Array.fold_left ( + ) 0 runs } in
  let failed_kinds = Hashtbl.create 8 in
  Array.iteri
    (fun i (r : Inproc.request) ->
      if runs.(i) > 0 then
        match r.check () with
        | Inproc.Right -> ()
        | Inproc.Wrong why ->
            t.wrong <- t.wrong + 1;
            say "WRONG %s %s: %s" r.klass r.name why
        | Inproc.Failed why ->
            t.failed <- t.failed + runs.(i);
            if not (Hashtbl.mem failed_kinds r.klass) then begin
              Hashtbl.add failed_kinds r.klass ();
              say "failed %s %s: %s" r.klass r.name why
            end)
    w.requests;
  Hashtbl.to_seq Inproc.answers |> List.of_seq |> List.sort compare
  |> List.iter (fun (k, n) -> say "answers: %s %d" k n);
  t

let report_latency name lat =
  let n = Array.length lat in
  List.iter
    (fun q ->
      if Stat.supported n q then
        say "  %s p%g = %.3f ms (n=%d, %d beyond)" name (q *. 100.) (Stat.pct lat q) n
          (Stat.beyond n q))
    [ 0.5; 0.9; 0.99 ]

let finish ~tally ~names ~values =
  let correct = tally.Inproc.wrong = 0 in
  say "wrong_verdicts %d, failed_pct %.3f (%d of %d attempted)" tally.wrong
    (100. *. float_of_int tally.failed /. float_of_int (max 1 tally.attempted))
    tally.failed tally.attempted;
  print_endline
    (Metrics.result_line ~correct ~attempted:(max 1 tally.attempted) ~failed:tally.failed
       names values);
  exit (if correct then 0 else 1)

(* ---- the daemon layers ---------------------------------------------------- *)

(* A traced verify_corpus run also measures the layers only a daemon
   exercises: a fresh [psopt serve] with an empty store, driven open
   loop (Daemon), first untraced for the class percentiles, then traced,
   then through a knee search.  Codec, store and compute costs are
   measured in process on the same requests.  The nominal rate is light
   load, well below the knee, so its latencies are service times rather
   than queueing. *)
let nominal_hz = 50.

let report_phase name (s : Daemon.summary) =
  say "%s: sent %d = ok %d + shed %d + busy %d + errors %d; hits %.1f%%; late %.2f%%, max lag %.3f ms"
    name s.sent s.ok s.shed s.busy s.errors s.hit_pct s.late_pct s.max_lag_ms;
  report_latency "all (from intended send)" s.all_ms;
  report_latency "warm" s.warm_ms;
  report_latency "cold" s.cold_ms

let daemon_layers ~seed ~psopt tally =
  let inp = Daemon.inputs ~seed in
  let d = Daemon.start ~psopt ~dir:(Filename.concat !Inproc.scratch "d") in
  Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
  Daemon.prewarm d inp;
  say "daemon: %d warm items, %d cold bases, %d%% warm, %d connections, inputs digest %s"
    (Array.length inp.warm) (Array.length inp.cold_bases) Daemon.warm_pct Daemon.conns inp.digest;
  let nominal phase n =
    let rs = Daemon.run_phase d inp ~phase ~rate:nominal_hz ~n in
    let s = Daemon.summarize rs in
    report_phase (Printf.sprintf "nominal %.0f Hz" nominal_hz) s;
    (rs, s)
  in
  (* 1450 requests give the warm class a p99 with ten samples beyond. *)
  let rs0, s0 = nominal 1 1450 in
  Span.reset ();
  Span.on := true;
  let rs1, s1 = nominal 2 300 in
  Span.on := false;
  let path = Filename.concat !Inproc.scratch (Printf.sprintf "trace-daemon-%d.json" seed) in
  Span.write_chrome path !Span.spans;
  say "daemon spans written to %s" path;
  let rpc_ms k (rs : Daemon.res array) =
    Stat.mean
      (Array.of_list
         (List.filter_map
            (fun (r : Daemon.res) -> if r.item.klass = k then Some (Daemon.ms (r.done_ - r.sent)) else None)
            (Array.to_list rs)))
  in
  (* Codec and store costs, in process, on the traced phase's requests. *)
  let module P = Service.Proto in
  let module S = Service.Store in
  let us f = snd (timed f) *. 1e6 in
  let req (r : Daemon.res) = P.Work (r.item.work, Daemon.config, None) in
  let replies =
    List.filter_map
      (fun (r : Daemon.res) -> match r.status with Daemon.Ok rep -> Some (r, rep) | _ -> None)
      (Array.to_list rs1)
  in
  let codec =
    List.map
      (fun (r, rep) ->
        let enc = ref "" and renc = ref "" in
        let e =
          us (fun () -> enc := Lang.Sexp.to_string (P.sexp_of_request (req r)))
          +. us (fun () -> renc := Lang.Sexp.to_string (P.sexp_of_response (P.Reply rep)))
        in
        let dec =
          us (fun () -> ignore (Result.bind (Lang.Sexp.parse !enc) P.request_of_sexp))
          +. us (fun () -> ignore (Result.bind (Lang.Sexp.parse !renc) P.response_of_sexp))
        in
        (e, dec))
      replies
  in
  let store_dir = Filename.concat !Inproc.scratch "probe-store" in
  Daemon.rm_rf store_dir;
  let store = S.open_ store_dir in
  let fp = Explore.Config.fingerprint Daemon.config in
  let key w =
    match P.program_of_work w with
    | Ok p -> S.key ~program_digest:(S.program_digest p) ~kind:(P.kind_tag w) ~fingerprint:fp
    | Error e -> failwith e
  in
  let budget = S.budget_of_config Daemon.config in
  let store_times =
    List.map
      (fun ((r : Daemon.res), (rep : P.reply)) ->
        let k = key r.item.work in
        let entry = { S.exit_code = rep.exit_code; output = rep.output; conclusive = rep.conclusive; budget } in
        let put = us (fun () -> S.put store ~key:k entry) in
        let find = us (fun () -> ignore (S.find store ~key:k ~budget)) in
        (put, find))
      replies
  in
  Daemon.rm_rf store_dir;
  let serve_dir = Filename.concat !Inproc.scratch "probe-serve" in
  Daemon.rm_rf serve_dir;
  let serve_store = S.open_ serve_dir in
  let stats = Explore.Stats.Service.create () in
  Array.iter
    (fun (it : Daemon.item) -> ignore (Service.Server.serve_work ~store:serve_store ~stats it.work Daemon.config))
    inp.warm;
  let serve_ms =
    Array.map
      (fun (r : Daemon.res) ->
        1000. *. snd (timed (fun () -> Service.Server.serve_work ~store:serve_store ~stats r.item.work Daemon.config)))
      rs1
  in
  Daemon.rm_rf serve_dir;
  let steps = ref [] and checked = ref (Array.to_list rs0 @ Array.to_list rs1) in
  let knee =
    Daemon.knee d inp ~start_hz:(4. *. nominal_hz) ~step_s:1. ~on_step:(fun rate rs st ok ->
        say "knee step %.1f Hz: n %d, p90 %.3f ms, p99 %.3f ms, tail lag %.3f ms -> %s" rate st.sent
          (Stat.pct st.all_ms 0.9) (Stat.pct st.all_ms 0.99) st.tail_lag_ms
          (if ok then "meets limit" else "breaks limit");
        steps := st :: !steps;
        (* Byte-identity is checked on every eighth reply of a step. *)
        checked := List.filteri (fun i _ -> i mod 8 = 0) (Array.to_list rs) @ !checked)
  in
  say "knee %.1f Hz (p90 limit %.0f ms, resolution %.0f%%)" knee Daemon.limit_p90_ms
    (100. *. Daemon.resolution);
  say "daemon peak RSS %.2f MB" (Stat.peak_rss_mb (Some d.pid));
  let compute = Daemon.oracle tally !checked (s0 :: s1 :: !steps) in
  let mean_of f l = Stat.mean (Array.of_list (List.map f l)) in
  let pct_of a b = 100. *. float_of_int a /. float_of_int (max 1 b) in
  let rpc_all = Array.map (fun (r : Daemon.res) -> Daemon.ms (r.done_ - r.sent)) rs1 in
  [
    ("service.rpc_warm_ms", rpc_ms Daemon.Warm rs1);
    ("service.rpc_cold_ms", rpc_ms Daemon.Cold rs1);
    ("service.warm_p50_ms", Stat.pct s0.warm_ms 0.5);
    ("service.warm_p99_ms", Stat.pct s0.warm_ms 0.99);
    ("service.cold_p50_ms", Stat.pct s0.cold_ms 0.5);
    ("service.cold_p90_ms", Stat.pct s0.cold_ms 0.9);
    ("service.knee_rps", knee);
    ("service.proto_encode_us", mean_of fst codec);
    ("service.proto_decode_us", mean_of snd codec);
    ("service.store_put_us", mean_of fst store_times);
    ("service.store_find_us", mean_of snd store_times);
    ("service.compute_ms", Stat.mean compute);
    ("service.wait_ms", Stat.mean rpc_all -. Stat.mean serve_ms);
    ("service.hit_pct", s1.hit_pct);
    ("service.shed_pct", pct_of s1.shed s1.sent);
    ("service.busy_pct", pct_of s1.busy s1.sent);
    ("loadgen.late_pct", s1.late_pct);
    ("loadgen.max_lag_ms", s1.max_lag_ms);
  ]

let race_states () =
  (* Distinct programs only; capped so the post-pass stays short. *)
  let progs = List.sort_uniq compare !Inproc.race_programs in
  let progs = List.filteri (fun i _ -> i < 64) progs in
  let states =
    List.map
      (fun p ->
        match
          Explore.Enum.iter_reachable ~config:Inproc.config Explore.Enum.Interleaving p
            ~f:(fun ~committed:_ _ -> ())
        with
        | Ok s -> float_of_int (Atomic.get s.nodes)
        | Error _ -> 0.)
      progs
  in
  if states = [] then 0. else Stat.mean (Array.of_list states)

(* Set-up is repeated at least [setup_min] times and until
   [setup_budget_s] have passed (at most [setup_max] times), each
   repetition between two probes, and the median of the corrected
   times reported. *)
let setup_min = 3
let setup_max = 60
let setup_budget_s = 2.

let run_inproc ~workload ~build ~seed ~seconds ~trace ~psopt =
  let built = ref None and setups = ref [] and corrected = ref [] in
  let t_setup = now_s () in
  let before = ref (Probe.run ()) in
  while
    List.length !setups < setup_min
    || (now_s () -. t_setup < setup_budget_s && List.length !setups < setup_max)
  do
    let (), dt =
      timed (fun () ->
          let w = build ~seed in
          List.iter (fun (r : Inproc.request) -> r.run ()) w.Inproc.warmup;
          built := Some w)
    in
    let after = Probe.run () in
    setups := dt :: !setups;
    corrected := (dt *. Probe.factor ~before:!before ~after) :: !corrected;
    before := after
  done;
  let setups = Array.of_list (List.rev !setups) and corrected_setups = Array.of_list !corrected in
  let w = Option.get !built in
  say "workload %s seed %d: %d requests per round, inputs digest %s" workload seed
    (Array.length w.requests) w.digest;
  say "setup_s runs: %s" (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") setups)));
  say "setup_s median %.4f s raw, %.4f s corrected" (Stat.median setups) (Stat.median corrected_setups);
  (* Enough rounds for 100 pooled samples, so that the p90 has ten
     beyond it, and for a median of each request's latencies. *)
  let nreq = Array.length w.requests in
  let min_rounds = max 3 ((100 + nreq - 1) / nreq) in
  if not trace then begin
    let t0 = now_s () in
    (* The peak resident set is read after a fixed number of rounds, so
       that it does not depend on how many rounds the host's speed
       allowed: the program's caches and the benchmark's own samples
       grow with them. *)
    let rss = ref nan in
    let after_round k = if k = min_rounds then rss := Stat.peak_rss_mb None in
    let lat, corrected, rates, probes = measure w ~seconds ~min_rounds ~after_round in
    let rss = if Float.is_nan !rss then Stat.peak_rss_mb None else !rss in
    say "round rates (raw): %s"
      (String.concat " " (List.map (fun (_, r) -> Printf.sprintf "%.2f" r) rates));
    say "probe: %d runs, min %.3f ms, median %.3f ms, max %.3f ms (reference %.3f ms)"
      (Array.length probes) (Stat.pct probes 0.) (Stat.median probes) (Stat.pct probes 1.)
      Probe.reference_ms;
    let pool a = Array.concat (Array.to_list a) in
    let all = pool lat and all_corrected = pool corrected in
    let rps = median_round_rate corrected in
    say "measured %d requests in %.3f s: %.3f req/s raw, %.3f req/s corrected, at each request's median latency"
      (Array.length all) (now_s () -. t0) (median_round_rate lat) rps;
    report_latency "latency, raw" all;
    report_latency "latency, corrected" all_corrected;
    let tally = oracle w (Array.map Array.length lat) in
    finish ~tally ~names:Metrics.end_to_end
      ~values:
        [
          ("setup_s", Stat.median corrected_setups);
          ("requests_per_s", rps);
          ("latency_p50_ms", Stat.pct all_corrected 0.5);
          ("latency_p90_ms", Stat.pct all_corrected 0.9);
          ("peak_rss_mb", rss);
        ]
  end
  else begin
    (* Untraced and traced rounds alternate, both running the staged
       verify, so each pair sees the same host speed and the same code;
       the overhead is the median over pairs of their rate ratio. *)
    Span.reset ();
    Inproc.race_programs := [];
    Inproc.staged := true;
    let lat, _, rates, _ = measure w ~seconds ~min_rounds:2 ~traced:(fun k -> k mod 2 = 1) in
    let rec pairs = function
      | (false, plain) :: (true, traced) :: rest -> (plain /. traced) :: pairs rest
      | _ -> []
    in
    let ratios = Array.of_list (pairs rates) in
    say "untraced %.3f req/s, traced %.3f req/s, %d round pairs"
      (median_rate (List.filter (fun (t, _) -> not t) rates))
      (median_rate (List.filter fst rates))
      (Array.length ratios);
    let overhead_pct = 100. *. (Stat.median ratios -. 1.) in
    let runs = Array.map Array.length lat in
    let tally = oracle w runs in
    Span.on := true;
    Span.count "race.states" (race_states ());
    Span.on := false;
    let values = layer_values ~overhead_pct in
    let path = Filename.concat !Inproc.scratch (Printf.sprintf "trace-%s-%d.json" workload seed) in
    Span.write_chrome path !Span.spans;
    say "spans written to %s" path;
    let values =
      match psopt with
      | Some psopt when workload = "verify_corpus" -> values @ daemon_layers ~seed ~psopt tally
      | _ -> values
    in
    List.iter
      (fun (n, v) -> if v <> 0. then say "  %-32s %s" n (Metrics.fmt v))
      values;
    finish ~tally ~names:Metrics.per_layer ~values
  end

(* ---- entry point -------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--psopt PATH] \
     [--scratch DIR] | --list-metrics | --self-test";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" && k <> "--list-metrics" && k <> "--self-test" ->
        opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  match args with
  | [ "--list-metrics" ] ->
      List.iter (fun (n, u) -> say "end_to_end %s %s" n u) Metrics.end_to_end;
      List.iter (fun (n, u) -> say "per_layer %s %s" n u) Metrics.per_layer
  | "--self-test" :: rest ->
      Option.iter (fun d -> Inproc.scratch := d) (List.assoc_opt "--scratch" (opts [] rest));
      exit (Selftest.run ())
  | _ -> (
      let o = opts [] args in
      let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
      let workload = get "--workload" and seed = int "--seed" in
      let seconds = float_of_int (int "--seconds") in
      let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
      Option.iter (fun d -> Inproc.scratch := d) (List.assoc_opt "--scratch" o);
      if not (Sys.file_exists !Inproc.scratch) then Sys.mkdir !Inproc.scratch 0o755;
      let psopt = List.assoc_opt "--psopt" o in
      Option.iter
        (fun p ->
          if not (Sys.file_exists p) then begin
            Printf.eprintf "perfbench: no psopt binary at %s\n" p;
            exit 2
          end)
        psopt;
      let run build = run_inproc ~workload ~build ~seed ~seconds ~trace ~psopt in
      match workload with
      | "verify_corpus" -> run Inproc.verify_corpus
      | "explore_deep" -> run Inproc.explore_deep
      | "opt_large" -> run Inproc.opt_large
      | _ ->
          Printf.eprintf "perfbench: unknown workload %s\n" workload;
          exit 2)
