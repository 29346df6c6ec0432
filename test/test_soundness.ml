(* Property-based soundness: the paper's main theorems, checked on
   randomly generated two-thread programs (not just the hand-written
   corpus).

   - Theorem 4.1: interleaving and non-preemptive behaviour sets
     coincide.  Only with enough promises: at the default bound of one
     promise the non-preemptive machine may miss behaviours (see
     [thm41] below), so there the check is the inclusion NP ⊆ IL.
   - Lemma 5.1: ww-RF and ww-NPRF agree.
   - Theorem 6.6 (executable form): every optimization pass produces a
     refinement of its source.
   - Lemma 6.2 (second conclusion): passes preserve ww-RF.

   Programs are [Explore.Stress.generate]'s, drawn by a QCheck seed:
   small straight-line threads over two non-atomic locations and one
   atomic flag, each ending in a print of a register — enough to
   exercise reads/writes in all modes, fences and the print-order
   interleavings, while keeping exhaustive exploration fast. *)

open Lang.Ast

let program_gen =
  QCheck.Gen.map (fun seed -> Explore.Stress.generate ~seed) QCheck.Gen.int

let arbitrary_program =
  QCheck.make ~print:Lang.Pp.program_to_string program_gen

(* A tighter exploration configuration: random programs are tiny, and
   one promise per thread is where all the interesting weak behaviour
   lives. *)
let config = { Explore.Config.default with max_steps = 300 }

(* Theorem 4.1 is stated for unbounded promises.  Under a bound the
   non-preemptive machine can miss behaviours: capped certification
   fills the gaps between messages, so with one promise a thread cannot
   certify a promise of its second write ([Stress.generate] seeds 54
   and 119).  At the default bound only NP ⊆ IL holds; the sets
   coincide once every thread may promise each of its writes. *)
let max_thread_writes (p : program) =
  FnameMap.fold
    (fun _ (ch : codeheap) acc ->
      LabelMap.fold
        (fun _ (b : block) n ->
          n
          + List.length
              (List.filter
                 (function Store _ | Cas _ -> true | _ -> false)
                 b.instrs))
        ch.blocks 0
      |> max acc)
    p.code 0

let both_machines ~config p =
  ( Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving p,
    Explore.Enum.behaviors_exn ~config Explore.Enum.Non_preemptive p )

let np_within_il ~config p =
  let il, np = both_machines ~config p in
  Explore.Traceset.is_refined_by ~target:np.Explore.Enum.traces
    ~source:il.Explore.Enum.traces

(* At the higher bound a rare loop program reaches millions of states,
   minutes and gigabytes: a state space over [thm41_nodes] discards the
   case, after the inclusion at the default bound held.  Of 300 loop
   programs 2 went over (0.4 and 0.7 M states, ~500 MB at 0.7 M); of
   200 straight-line ones none did (largest 73 k). *)
let thm41_nodes = 300_000

let thm41 p =
  np_within_il ~config p
  &&
  let config =
    {
      config with
      max_promises = max_thread_writes p;
      max_nodes = Some thm41_nodes;
    }
  in
  let il, np = both_machines ~config p in
  let over_budget (o : Explore.Enum.outcome) =
    match o.completeness with
    | Truncated reasons -> List.mem Explore.Errors.Node_budget reasons
    | Exhaustive -> false
  in
  QCheck.assume (not (over_budget il || over_budget np));
  Explore.Traceset.equal_behaviour il.traces np.traces

let test_thm41 =
  QCheck.Test.make ~count:40 ~name:"Theorem 4.1 on random programs"
    arbitrary_program thm41

let test_thm41_bound_regressions () =
  List.iter
    (fun seed ->
      let p = Explore.Stress.generate ~seed in
      Alcotest.(check int) (Printf.sprintf "seed %d: two writes" seed) 2
        (max_thread_writes p);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: unequal at bound 1" seed) false
        (Explore.Refine.equivalent_disciplines ~config p);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: NP within IL at bound 1" seed) true
        (np_within_il ~config p);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: equal at bound 2" seed) true
        (Explore.Refine.equivalent_disciplines
           ~config:{ config with max_promises = 2 } p))
    [ 54; 119 ]

let test_lemma51 =
  QCheck.Test.make ~count:40 ~name:"Lemma 5.1 on random programs"
    arbitrary_program (fun p ->
      let free v = match v with Ok Race.Free -> true | _ -> false in
      free (Race.ww_rf ~config p) = free (Race.ww_nprf ~config p))

let passes =
  [
    Opt.Constprop.pass;
    Opt.Dce.pass;
    Opt.Cse.pass;
    Opt.Copyprop.pass;
    Opt.Linv.pass;
    Opt.Licm.pass;
    Opt.Cleanup.pass;
  ]

let test_passes_refine =
  QCheck.Test.make ~count:30 ~name:"every pass refines on random programs"
    arbitrary_program (fun p ->
      List.for_all
        (fun (pass : Opt.Pass.t) ->
          let tgt = Opt.Pass.apply pass p in
          equal_program tgt p
          || Explore.Refine.refines ~config ~target:tgt ~source:p ())
        passes)

let pipeline =
  List.fold_left Opt.Pass.compose (List.hd passes) (List.tl passes)

let test_pipeline_refines =
  QCheck.Test.make ~count:30 ~name:"the composed pipeline refines"
    arbitrary_program (fun p ->
      let tgt = Opt.Pass.apply pipeline p in
      equal_program tgt p
      || Explore.Refine.refines ~config ~target:tgt ~source:p ())

let test_passes_preserve_wwrf =
  QCheck.Test.make ~count:30 ~name:"passes preserve ww-RF"
    arbitrary_program (fun p ->
      let free q =
        match Race.ww_rf ~config q with Ok Race.Free -> true | _ -> false
      in
      QCheck.assume (free p);
      List.for_all
        (fun (pass : Opt.Pass.t) -> free (Opt.Pass.apply pass p))
        passes)

let test_witness_completeness =
  QCheck.Test.make ~count:15
    ~name:"every enumerated done trace has a witness"
    arbitrary_program (fun p ->
      let o = Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving p in
      QCheck.assume o.Explore.Enum.exact;
      Explore.Traceset.fold
        (fun tr ok ->
          ok
          &&
          match tr.Ps.Event.ending with
          | Ps.Event.Done ->
              Explore.Witness.find ~config ~outs:tr.Ps.Event.outs p <> None
          | _ -> true)
        o.Explore.Enum.traces true)

let test_witness_soundness =
  QCheck.Test.make ~count:15
    ~name:"no witness for outputs outside the behaviour set"
    arbitrary_program (fun p ->
      let o = Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving p in
      QCheck.assume o.Explore.Enum.exact;
      (* an output value no print can produce *)
      Explore.Witness.find ~config ~outs:[ 424242 ] p = None)

let test_passes_idempotent_wf =
  QCheck.Test.make ~count:50 ~name:"pass outputs stay well-formed"
    arbitrary_program (fun p ->
      List.for_all
        (fun (pass : Opt.Pass.t) ->
          match Lang.Wf.check (Opt.Pass.apply pass p) with
          | Ok () -> true
          | Error _ -> false)
        passes)

(* ------------------------------------------------------------------ *)
(* Random programs WITH a bounded loop: exercises LInv/LICM and the
   loop-aware analyses on shapes the straight-line generator cannot
   produce. *)

let loop_program_gen =
  let open QCheck.Gen in
  map2
    (fun body_instrs tail_instrs ->
      let body = body_instrs @ [ Assign ("i", Bin (Add, Reg "i", Val 1)) ] in
      let t1 =
        ( "t1",
          codeheap ~entry:"L0"
            [
              ("L0", block [ Assign ("i", Val 0) ] (Jmp "H"));
              ("H", block [] (Be (Bin (Lt, Reg "i", Val 2), "B", "E")));
              ("B", block body (Jmp "H"));
              ("E", block [ Print (Reg "r0") ] Return);
            ] )
      in
      let t2 =
        ( "t2",
          codeheap ~entry:"L0"
            [ ("L0", block (tail_instrs @ [ Print (Reg "r0") ]) Return) ] )
      in
      program ~atomics:[ "f" ] ~code:[ t1; t2 ] [ "t1"; "t2" ])
    (list_size (int_range 1 3) Explore.Stress.gen_instr)
    (list_size (int_range 1 3) Explore.Stress.gen_instr)

let arbitrary_loop_program =
  QCheck.make ~print:Lang.Pp.program_to_string loop_program_gen

let test_loop_passes_refine =
  QCheck.Test.make ~count:15 ~name:"passes refine on random loop programs"
    arbitrary_loop_program (fun p ->
      List.for_all
        (fun (pass : Opt.Pass.t) ->
          let tgt = Opt.Pass.apply pass p in
          equal_program tgt p
          || Explore.Refine.refines ~config ~target:tgt ~source:p ())
        [ Opt.Licm.pass; Opt.Constprop.pass; Opt.Dce.pass ])

let test_loop_thm41 =
  QCheck.Test.make ~count:15 ~name:"Theorem 4.1 on random loop programs"
    arbitrary_loop_program thm41

let () =
  Alcotest.run "soundness"
    [
      ( "random-programs",
        List.map QCheck_alcotest.to_alcotest
          [
            test_thm41;
            test_lemma51;
            test_passes_refine;
            test_pipeline_refines;
            test_passes_preserve_wwrf;
            test_passes_idempotent_wf;
            test_witness_completeness;
            test_witness_soundness;
          ]
        @ [
            Alcotest.test_case "Theorem 4.1 needs two promises (seeds 54, 119)"
              `Quick test_thm41_bound_regressions;
          ] );
      ( "loop-programs",
        List.map QCheck_alcotest.to_alcotest
          [ test_loop_passes_refine; test_loop_thm41 ] );
    ]
