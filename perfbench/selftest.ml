(* The benchmark's own tests: every known-answer oracle catches a
   flipped answer, self-time arithmetic is right on a synthetic span
   tree, and the percentile rule and the host-speed correction hold.  (That the printed metric names
   equal BENCHMARK.json's is checked by [run.py --self-test].)  Returns
   the process exit code. *)

let failures = ref 0

let expect name ok =
  Printf.printf "%-58s %s\n%!" name (if ok then "ok" else "FAILED");
  if not ok then begin
    Printf.eprintf "perfbench self-test FAILED: %s\n%!" name;
    incr failures
  end

let is_wrong (r : Inproc.request) =
  r.run ();
  match r.check () with Inproc.Wrong _ -> true | _ -> false

let is_right (r : Inproc.request) =
  r.run ();
  r.check () = Inproc.Right

let self_times () =
  let sp id parent t0 t1 = { Span.id; parent; req = 0; name = string_of_int id; t0; t1 } in
  (* root [0,100] with children [10,40] (itself parent of [15,20]),
     [30,60] overlapping it, and [90,120] running past the root. *)
  let tree = [ sp 0 (-1) 0 100; sp 1 0 10 40; sp 2 0 30 60; sp 3 0 90 120; sp 4 1 15 20 ] in
  let selfs = List.map (fun ((s : Span.span), t) -> (s.id, t)) (Span.self_times tree) in
  expect "self time: root minus merged, clipped children" (List.assoc 0 selfs = 40);
  expect "self time: child minus grandchild" (List.assoc 1 selfs = 25);
  expect "self time: leaves keep their duration"
    (List.assoc 2 selfs = 30 && List.assoc 3 selfs = 30 && List.assoc 4 selfs = 5)

let percentiles () =
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  expect "nearest-rank percentiles" (Stat.pct a 0.5 = 50. && Stat.pct a 0.9 = 90.);
  expect "a percentile needs ten samples beyond it"
    (Stat.supported 100 0.9 && not (Stat.supported 99 0.9))

let correction () =
  let r = Probe.reference_ms in
  expect "host-speed correction uses the faster neighbouring probe"
    (Probe.factor ~before:(2. *. r) ~after:(4. *. r) = 0.5
    && Probe.factor ~before:(4. *. r) ~after:(2. *. r) = 0.5);
  expect "a probe at the reference speed leaves a latency as it is"
    (Probe.factor ~before:r ~after:(3. *. r) = 1.)

let oracles () =
  let fig1 = List.hd Inproc.refine_pairs in
  let name, tgt, src, expect_refines = fig1 in
  expect "refine: Fig. 1's refuted target is accepted as refuted"
    (is_right (Inproc.refine_request fig1));
  expect "refine: a flipped Fig. 1 answer is caught"
    (is_wrong (Inproc.refine_request (name, tgt, src, not expect_refines)));
  let sb = Litmus.sb in
  expect "litmus: the corpus claim holds" (is_right (Inproc.litmus_request sb));
  expect "litmus: an observable outcome listed as forbidden is caught"
    (is_wrong (Inproc.litmus_request { sb with forbidden = sb.expected }));
  let group outcomes =
    Inproc.explore_group ~name:"cert_heavy" ~prog:(Gen.cert_heavy ~vx:2 ~vy:3 ~pad:4 ~noise:1 ()) ~outcomes
  in
  expect "explore: reduced = unreduced = non-preemptive, outcomes hold"
    (List.for_all is_right (group (Gen.cert_heavy_outcomes ~vx:2 ~vy:3 ())));
  expect "explore: a wrong hand-derived outcome set is caught"
    (List.for_all is_wrong (group [ [ 0; 0 ]; [ 0; 2 ]; [ 0; 3 ] ]));
  let txt = Gen.text (Gen.cfg ~seed:3 ~blocks:40) in
  let dce = Option.get (Sim.Verif.find "dce") in
  expect "opt: a registered pass keeps the program's outputs"
    (is_right (Inproc.opt_request ~name:"cfg" ~txt dce));
  let zero_prints =
    let open Lang.Ast in
    let instr = function Print _ -> Print (Val 0) | i -> i in
    let heap ch =
      { ch with blocks = LabelMap.map (fun b -> { b with instrs = List.map instr b.instrs }) ch.blocks }
    in
    fun p -> { p with code = FnameMap.map heap p.code }
  in
  expect "opt: a pass that changes outputs is caught"
    (is_wrong (Inproc.opt_request ~name:"cfg" ~txt { dce with name = "broken"; transform = zero_prints }));
  let fig1 = Inproc.read_file (Filename.concat Inproc.examples_dir "fig1.rtl") in
  let verify racy = Inproc.verify_request ~name:"fig1" ~txt:fig1 ~racy dce in
  expect "verify: a race-free source passes ww-RF and verifies" (is_right (verify false));
  expect "verify: a race-free source expected racy is caught" (is_wrong (verify true));
  let racy_txt =
    match Gen.stress_strata ~seed:1 ~tag:1 ~candidates:400 ~racy:1 [ (16, 48, 0) ] with
    | [ (_, p) ] -> Gen.text p
    | _ -> failwith "no racy stress program"
  in
  expect "verify: a racy source expected race-free is caught"
    (is_wrong (Inproc.verify_request ~name:"racy" ~txt:racy_txt ~racy:false dce));
  let witness = Inproc.witness_targets () |> List.hd in
  let t, outs = witness in
  expect "replay: a recorded witness replays its outputs"
    (is_right (Inproc.witness_request ~idx:0 t outs));
  (* Daemon replies are compared with in-process [Server.run_work]. *)
  let tally = { Inproc.wrong = 0; failed = 0; attempted = 0 } in
  let item = { Daemon.klass = Daemon.Warm; work = Service.Proto.Litmus "sb" } in
  let reply output =
    { Daemon.item; due = 0; sent = 0; done_ = 0;
      status = Daemon.Ok { exit_code = 0; output; cached = true; conclusive = true } }
  in
  let good =
    match Service.Server.run_work item.work Daemon.config with Ok (o, _) -> o | Error e -> e
  in
  ignore (Daemon.oracle tally [ reply good ] []);
  expect "daemon: an identical reply passes" (tally.wrong = 0);
  ignore (Daemon.oracle tally [ reply (good ^ " ") ] []);
  expect "daemon: a reply differing by one byte is caught" (tally.wrong = 1)

let run () =
  if not (Sys.file_exists !Inproc.scratch) then Sys.mkdir !Inproc.scratch 0o755;
  self_times ();
  percentiles ();
  correction ();
  oracles ();
  Printf.printf "self-test: %d failed\n" !failures;
  if !failures = 0 then 0 else 1
