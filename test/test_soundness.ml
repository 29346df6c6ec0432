(* Property-based soundness: the paper's main theorems, checked on
   randomly generated two-thread programs (not just the hand-written
   corpus).

   - Theorem 4.1: interleaving and non-preemptive behaviour sets
     coincide.
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

let test_thm41 =
  QCheck.Test.make ~count:40 ~name:"Theorem 4.1 on random programs"
    arbitrary_program (fun p ->
      Explore.Refine.equivalent_disciplines ~config p)

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
    arbitrary_loop_program (fun p ->
      Explore.Refine.equivalent_disciplines ~config p)

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
          ] );
      ( "loop-programs",
        List.map QCheck_alcotest.to_alcotest
          [ test_loop_passes_refine; test_loop_thm41 ] );
    ]
