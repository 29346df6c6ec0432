(* The three in-process workloads: verify_corpus, explore_deep and
   opt_large.  A workload is an array of requests; each request does
   its timed work through the layers' public functions and keeps its
   answer for an untimed known-answer check afterwards.  Everything
   runs on one domain. *)

let config = Explore.Config.with_domains 1 Explore.Config.default

type tally = { mutable wrong : int; mutable failed : int; mutable attempted : int }

type outcome = Right | Wrong of string | Failed of string

(* How many checked answers of each kind were seen, for the report. *)
let answers : (string, int) Hashtbl.t = Hashtbl.create 8

let tally_answer kind =
  Hashtbl.replace answers kind (1 + Option.value ~default:0 (Hashtbl.find_opt answers kind))

type request = {
  klass : string;
  name : string;
  run : unit -> unit;
  check : unit -> outcome;
}

type workload = {
  requests : request array;
  warmup : request list;
      (** one request of each class, the same ones whatever the seed's
          shuffle: set-up runs them *)
  digest : string;  (** of the generated inputs *)
}

(* Set-up checks every generated program text: it parses, and printing
   the parsed program gives the same program back. *)
let validate texts =
  List.iter
    (fun t ->
      let p = Lang.Parse.program_of_string t in
      if not (Lang.Ast.equal_program p (Lang.Parse.program_of_string (Gen.text p))) then
        failwith "generated program text does not round-trip")
    texts

(* The requests in a seeded order, and the first request of each class
   in generation order as the warm-up. *)
let workload ~seed ~digest reqs =
  let warmup =
    List.fold_left
      (fun acc r -> if List.exists (fun w -> w.klass = r.klass) acc then acc else acc @ [ r ])
      [] reqs
  in
  let requests = Array.of_list reqs in
  Gen.shuffle (Gen.rng seed 2) requests;
  { requests; warmup; digest }

let asprintf = Format.asprintf

(* An answer slot, filled by [run] and read by [check]. *)
let slot () = ref None

let checked r f =
  match !r with
  | None -> Failed "no answer recorded"
  | Some (Error e) -> Failed e
  | Some (Ok v) -> f v

let guard f = try Ok (f ()) with e -> Error (Printexc.to_string e)

(* ---- traced calls into each layer ------------------------------------ *)

let parse txt =
  Span.count "lang.parse_bytes" (float_of_int (String.length txt));
  Span.with_ "lang.parse" (fun () -> Lang.Parse.program_of_string txt)

let print p = Span.with_ "lang.print" (fun () -> Gen.text p)

let record_stats (s : Explore.Stats.t) =
  if !Span.on then begin
    let c name v = Span.count name (float_of_int (Atomic.get v)) in
    Span.count "explore.calls" 1.;
    c "explore.nodes" s.nodes;
    c "explore.transitions" s.transitions;
    c "explore.memo_hits" s.memo_hits;
    c "explore.memo_size" s.memo_size;
    c "explore.symmetry_folds" s.symmetry_folds;
    c "explore.persistent_prunes" s.persistent_prunes;
    c "explore.sleep_prunes" s.sleep_prunes;
    c "ps.cert_checks" s.cert_checks;
    c "ps.cert_runs" s.cert_runs;
    c "ps.cert_cache_hits" s.cert_cache_hits;
    c "ps.cert_trivial" s.cert_trivial;
    c "ps.cand_cache_hits" s.cand_cache_hits
  end

let refine ~target ~source =
  let rep =
    Span.with_gc "explore" (fun () ->
        Span.with_ "explore.refine" (fun () ->
            Explore.Refine.check ~config ~target ~source ()))
  in
  record_stats rep.target.stats;
  record_stats rep.source.stats;
  rep

let behaviors ~config disc p =
  let o =
    Span.with_gc "explore" (fun () ->
        Span.with_ "explore.behaviors" (fun () ->
            Explore.Enum.behaviors_exn ~config disc p))
  in
  record_stats o.stats;
  o

(* Programs handed to the ww-RF scan while tracing: their reachable
   state counts are measured afterwards, outside every span, because
   [Race.ww_rf] returns no statistics. *)
let race_programs : Lang.Ast.program list ref = ref []

let ww_rf p =
  if !Span.on then race_programs := p :: !race_programs;
  Span.with_ "race.ww_rf" (fun () -> Race.ww_rf ~config p)

(* [Sim.Verif.check]'s four Fig. 6 stages, called one by one in its
   order and with its early exit, so each stage gets its own span.  The
   verdict must equal [Sim.Verif.check]'s; the known-answer check
   asserts it. *)
let staged_verify (r : Sim.Verif.registered) src : Sim.Verif.verdict =
  let open Sim.Verif in
  let tgt = Span.with_ ("opt." ^ r.name) (fun () -> r.transform src) in
  match ww_rf src with
  | Error e -> Inconclusive e
  | Ok (Race.Inconclusive why) -> Inconclusive (asprintf "ww-RF(source): %s" why)
  | Ok (Race.Racy race) -> Fail (Source_ww_rf, asprintf "%a" Race.pp_race race)
  | Ok Race.Free -> (
      let sims =
        Span.with_ "sim.simcheck" (fun () ->
            Sim.Simcheck.check_program ~inv:r.invariant ~target:tgt ~source:src ())
      in
      List.iter
        (fun (_, v) ->
          Span.count "sim.verdicts" 1.;
          if v = Sim.Simcheck.Holds then Span.count "sim.holds" 1.)
        sims;
      match List.find_opt (fun (_, v) -> v <> Sim.Simcheck.Holds) sims with
      | Some (f, Sim.Simcheck.Fails why) -> Fail (Simulation f, why)
      | Some (f, Sim.Simcheck.Unknown why) ->
          Inconclusive (asprintf "simulation(%s): %s" f why)
      | Some (_, Sim.Simcheck.Holds) -> assert false
      | None -> (
          match (refine ~target:tgt ~source:src).verdict with
          | Explore.Refine.Violates bad ->
              Fail (Refinement, asprintf "%a" Ps.Event.pp_trace (List.hd bad))
          | Explore.Refine.Inconclusive why -> Inconclusive why
          | Explore.Refine.Refines -> (
              match ww_rf tgt with
              | Error e -> Inconclusive e
              | Ok (Race.Inconclusive why) ->
                  Inconclusive (asprintf "ww-RF(target): %s" why)
              | Ok (Race.Racy race) ->
                  Fail (Target_ww_rf, asprintf "%a" Race.pp_race race)
              | Ok Race.Free -> Verified)))

(* ---- verify_corpus --------------------------------------------------- *)

(* Whether verify requests run the staged pipeline; the traced run sets
   it for all its rounds, traced or not. *)
let staged = ref false

(* Known answers for a verify request: a ww-racy source fails the
   first stage and a race-free one passes it; a registered pass never
   fails refinement or target ww-RF once the simulation holds (the
   paper's soundness theorems); and a [Verified] pass also refines
   under the non-preemptive machine, which explores a different state
   space with the same behaviours (Theorem 4.1).  A failed simulation
   is an allowed answer: the check is sufficient, not necessary. *)
let verify_request ~name ~txt ~racy (r : Sim.Verif.registered) =
  let ans = slot () in
  let run () =
    ans :=
      Some
        (guard (fun () ->
             let src = parse txt in
             let staged = !staged in
             let v =
               if staged then staged_verify r src
               else Sim.Verif.check ~explore_config:config r src
             in
             (src, staged, v)))
  in
  let wrong fmt = Format.kasprintf (fun s -> Wrong s) fmt in
  let check () =
    checked ans (fun (src, staged, v) ->
        tally_answer
          (match v with
          | Sim.Verif.Verified -> "verify verified"
          | Sim.Verif.Fail (st, _) -> asprintf "verify failed at %a" Sim.Verif.pp_stage st
          | Sim.Verif.Inconclusive _ -> "verify inconclusive");
        let reference = if staged then Sim.Verif.check ~explore_config:config r src else v in
        if v <> reference then
          wrong "staged verdict %a differs from Verif.check's %a" Sim.Verif.pp_verdict v
            Sim.Verif.pp_verdict reference
        else
          match v with
          | Sim.Verif.Inconclusive why -> Failed why
          | Sim.Verif.Fail (Sim.Verif.Source_ww_rf, _) when racy -> Right
          | _ when racy -> wrong "racy source not rejected: %a" Sim.Verif.pp_verdict v
          | Sim.Verif.Fail (Sim.Verif.Simulation _, _) -> Right
          | Sim.Verif.Fail _ -> wrong "%a" Sim.Verif.pp_verdict v
          | Sim.Verif.Verified ->
              if
                Explore.Refine.refines ~config ~discipline:Explore.Enum.Non_preemptive
                  ~target:(r.transform src) ~source:src ()
              then Right
              else Wrong "verified, but the target does not refine under the non-preemptive machine")
  in
  { klass = "verify"; name = name ^ "/" ^ r.name; run; check }

let litmus_request (t : Litmus.t) =
  let ans = slot () in
  let run () =
    ans := Some (guard (fun () -> Span.with_ "litmus.check" (fun () -> Litmus.check ~config t)))
  in
  let check () =
    checked ans (fun (res : Litmus.result) ->
        match res.verdict with
        | Litmus.Pass -> Right
        | Litmus.Inconclusive why -> Failed why
        | v -> Wrong (asprintf "%a" Litmus.pp_verdict v))
  in
  { klass = "litmus"; name = t.name; run; check }

(* Fig. 1 (acquire flag) and Fig. 15 targets are refuted; Fig. 1 with a
   relaxed flag and Fig. 5(b)'s LInv are sound. *)
let refine_pairs =
  Litmus.
    [
      ("fig1", fig1_foo_opt, fig1_foo, false);
      ("fig1_rlx", fig1_foo_opt_rlx, fig1_foo_rlx, true);
      ("fig15", fig15_bad_tgt, fig15_src, false);
      ("fig5", fig5_tgt, fig5_src, true);
    ]

let refine_request (name, (tgt : Litmus.t), (src : Litmus.t), expect) =
  let ans = slot () in
  let run () =
    ans := Some (guard (fun () -> (refine ~target:tgt.prog ~source:src.prog).verdict))
  in
  let check () =
    checked ans (fun v ->
        match (v, expect) with
        | Explore.Refine.Inconclusive why, _ -> Failed why
        | Explore.Refine.Refines, true | Explore.Refine.Violates _, false -> Right
        | v, _ -> Wrong (asprintf "%s: %a" name Explore.Refine.pp_verdict v))
  in
  { klass = "refine"; name; run; check }

let scratch = ref ".perfbench"

(* Find a witness schedule for [outs], record it to a replay store,
   load it back and step it to the end, collecting what it prints. *)
let witness_request ~idx (t : Litmus.t) outs =
  let ans = slot () in
  let path = Filename.concat !scratch (Printf.sprintf "w%d.trace" idx) in
  let disc = Explore.Enum.Interleaving in
  let run () =
    ans :=
      Some
        (guard (fun () ->
             let state, succs =
               match
                 Span.with_ "replay.witness" (fun () ->
                     Explore.Witness.find_trail ~config ~discipline:disc ~outs t.prog)
               with
               | Some w -> w
               | None -> failwith "no witness found"
             in
             Span.with_ "replay.record" (fun () ->
                 let records =
                   Replay.Record.records_of_trail ~config ~program:t.prog state succs
                 in
                 let header =
                   Replay.Record.header ~note:"witness" ~config ~discipline:disc ~outs
                     t.prog
                 in
                 match Replay.Store.write_all path header records with
                 | Ok () -> ()
                 | Error e -> failwith e);
             let session =
               Span.with_ "replay.session_load" (fun () ->
                   match Replay.Store.open_ path with
                   | Error e -> failwith (Replay.Store.error_to_string e)
                   | Ok rd ->
                       let s = Replay.Session.load rd in
                       Replay.Store.close_reader rd;
                       match s with
                       | Ok s -> s
                       | Error e -> failwith (Replay.Store.error_to_string e))
             in
             Span.with_ "replay.step" (fun () ->
                 let rec go acc =
                   match Replay.Session.step session with
                   | Ok None -> List.rev acc
                   | Ok (Some { Replay.Trace.event = Some (Ps.Event.Out v); _ }) ->
                       go (v :: acc)
                   | Ok (Some _) -> go acc
                   | Error e -> failwith e
                 in
                 let printed = go [] in
                 Span.count "replay.steps" (float_of_int (Replay.Session.length session));
                 printed)))
  in
  let check () =
    checked ans (fun printed ->
        if printed = outs then Right
        else
          Wrong
            (Printf.sprintf "%s: replay printed [%s], witness was for [%s]" t.name
               (String.concat ";" (List.map string_of_int printed))
               (String.concat ";" (List.map string_of_int outs))))
  in
  { klass = "witness"; name = t.name; run; check }

(* For each corpus outcome the paper says is observable, a print order
   the explorer produces for it: the witness search needs exact
   outputs, the corpus lists sorted multisets. *)
let witness_targets () =
  List.concat_map
    (fun (t : Litmus.t) ->
      let o = Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving t.prog in
      let seqs = Explore.Traceset.done_outs o.traces in
      List.filter_map
        (fun m -> List.find_opt (fun s -> List.sort compare s = m) seqs |> Option.map (fun s -> (t, s)))
        t.expected)
    Litmus.all

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The example programs the workload verifies, named so that a program
   added later changes neither its cost nor its known answers.  All are
   ww-race-free. *)
let examples_dir = "examples/programs"

let example_files =
  [ "deadstore.rtl"; "fig1.rtl"; "lb.rtl"; "loop.rtl"; "mp.rtl"; "release_seq.rtl"; "spinlock.rtl" ]

let verify_corpus ~seed =
  let examples =
    List.map (fun f -> (f, read_file (Filename.concat examples_dir f), false)) example_files
  in
  let stress =
    Gen.stress_strata ~seed ~tag:1 ~candidates:400 ~racy:2
      [ (16, 48, 12); (48, 96, 12); (96, 160, 12); (160, 240, 12) ]
    |> List.mapi (fun i (k, p) -> (Printf.sprintf "stress-%d" i, Gen.text p, k = -1))
  in
  let progs = examples @ stress in
  let verify =
    List.concat_map
      (fun (name, txt, racy) -> List.map (verify_request ~name ~txt ~racy) Sim.Verif.registry)
      progs
  in
  let texts = List.map (fun (_, t, _) -> t) progs in
  let witnesses = List.mapi (fun idx (t, outs) -> witness_request ~idx t outs) (witness_targets ()) in
  validate texts;
  workload ~seed ~digest:(Gen.digest texts)
    (verify
    @ List.map litmus_request Litmus.all
    @ List.map refine_request refine_pairs
    @ witnesses)

(* ---- explore_deep ---------------------------------------------------- *)

let variants =
  [
    ("unreduced", Explore.Config.no_reduction, Explore.Enum.Interleaving);
    ("reduced", Explore.Config.full_reduction, Explore.Enum.Interleaving);
    ("unreduced", Explore.Config.no_reduction, Explore.Enum.Non_preemptive);
    ("reduced", Explore.Config.full_reduction, Explore.Enum.Non_preemptive);
  ]

(* One program explored unreduced and fully reduced under both
   disciplines.  Known answers: all four behaviour sets are equal
   (reduction preserves behaviour; Theorem 4.1 for the disciplines) and
   their completed outcomes are the family's hand-derived set. *)
let explore_group ~name ~prog ~outcomes =
  let answers = List.map (fun _ -> slot ()) variants in
  let reqs =
    List.map2
      (fun (tag, red, disc) ans ->
        let config = { config with Explore.Config.reduction = red } in
        let run () =
          ans :=
            Some
              (guard (fun () ->
                   let o = behaviors ~config disc prog in
                   if red <> Explore.Config.no_reduction then
                     Span.count "explore.reduced_nodes" (float_of_int (Atomic.get o.stats.nodes))
                   else Span.count "explore.unreduced_nodes" (float_of_int (Atomic.get o.stats.nodes));
                   o))
        in
        let check () =
          checked ans (fun (o : Explore.Enum.outcome) ->
              let sorted =
                List.sort_uniq compare
                  (List.map (List.sort compare) (Explore.Traceset.done_outs o.traces))
              in
              if o.completeness <> Explore.Enum.Exhaustive then Failed "truncated"
              else if sorted <> List.sort compare outcomes then
                Wrong (name ^ ": completed outcomes differ from the hand-derived set")
              else
                match !(List.hd answers) with
                | Some (Ok (base : Explore.Enum.outcome))
                  when not (Explore.Traceset.equal_behaviour base.traces o.traces) ->
                    Wrong (name ^ ": behaviour differs from the unreduced interleaving run")
                | _ -> Right)
        in
        {
          klass = "explore";
          name = Printf.sprintf "%s %s %s" name tag (asprintf "%a" Explore.Enum.pp_discipline disc);
          run;
          check;
        })
      variants answers
  in
  reqs

let explore_deep ~seed =
  let st = Gen.rng seed 3 in
  (* The seed picks the written values, which leave the cost alone; the
     sizes are fixed so that every seed measures the same work. *)
  let cert =
    List.map
      (fun pad ->
        let noise = pad / 4 in
        let vx = 1 + Random.State.int st 9 and vy = 1 + Random.State.int st 9 in
        ( Printf.sprintf "cert_heavy %d/%d x=%d y=%d" pad noise vx vy,
          Gen.cert_heavy ~vx ~vy ~pad ~noise (),
          Gen.cert_heavy_outcomes ~vx ~vy () ))
      [ 16; 20; 24; 28; 32; 36; 40; 44; 48 ]
  in
  let sym =
    List.init 2 (fun _ ->
        let v = 1 + Random.State.int st 9 in
        (Printf.sprintf "sym_writers 2 v=%d" v, Gen.sym_writers ~n:2 ~v, Gen.sym_writers_outcomes v))
  in
  let groups = cert @ sym in
  let texts = List.map (fun (_, p, _) -> Gen.text p) groups in
  validate texts;
  workload ~seed ~digest:(Gen.digest texts)
    (List.concat_map (fun (name, prog, outcomes) -> explore_group ~name ~prog ~outcomes) groups)

(* ---- opt_large ------------------------------------------------------- *)

(* [psopt opt]: program text through parse, one registered pass and
   print.  Known answer: the single-thread source and target print the
   same outputs ([Explore.Random_run] is deterministic on one thread). *)
let opt_request ~name ~txt (r : Sim.Verif.registered) =
  let ans = slot () in
  let run () =
    ans :=
      Some
        (guard (fun () ->
             let src = parse txt in
             let tgt = Span.with_ ("opt." ^ r.name) (fun () -> r.transform src) in
             if !Span.on then begin
               Span.count "opt.calls" 1.;
               Span.count "opt.instrs_after" (float_of_int (Gen.count_instrs tgt))
             end;
             (src, print tgt)))
  in
  let check () =
    checked ans (fun (src, out) ->
        let outs p =
          match Explore.Random_run.run ~seed:1 ~max_steps:10_000_000 p with
          | Ok r -> Ok r.trace
          | Error e -> Error e
        in
        match (outs src, outs (Lang.Parse.program_of_string out)) with
        | Ok a, Ok b when a = b && a.ending = Ps.Event.Done -> Right
        | Ok a, Ok _ when a.ending <> Ps.Event.Done -> Failed "source run did not finish"
        | Ok _, Ok _ -> Wrong (name ^ "/" ^ r.name ^ ": outputs differ after the pass")
        | Error e, _ | _, Error e -> Failed e)
  in
  { klass = "opt"; name = name ^ "/" ^ r.name; run; check }

let opt_large ~seed =
  let progs =
    List.mapi
      (fun i blocks ->
        let s = Gen.sub_seed ~seed ~tag:4 i in
        (Printf.sprintf "cfg-%d" blocks, Gen.text (Gen.cfg ~seed:s ~blocks)))
      [ 150; 300; 500; 800; 1100; 1500 ]
  in
  validate (List.map snd progs);
  workload ~seed ~digest:(Gen.digest (List.map snd progs))
    (List.concat_map
       (fun (name, txt) -> List.map (opt_request ~name ~txt) Sim.Verif.registry)
       progs)
