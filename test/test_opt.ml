(* The four verified optimizations (Sec. 7): transformation shapes,
   mode-sensitivity, refinement on the whole corpus, ww-RF
   preservation and vertical composition. *)

open Lang

let parse s = Wf.check_exn (Parse.program_of_string s)
let apply = Opt.Pass.apply
let equal_prog = Ast.equal_program

let fn_block p f l =
  Ast.LabelMap.find l (Ast.FnameMap.find f p.Ast.code).Ast.blocks

(* ------------------------------------------------------------------ *)
(* ConstProp *)

let test_constprop_folds () =
  let p =
    parse
      {|threads t;
proc t entry L {
L:
  a := 2;
  b := a + 3;
  x.na := b;
  c := x.na;
  print(c * a);
  return;
}|}
  in
  let p' = apply Opt.Constprop.pass_fix p in
  let b = fn_block p' "t" "L" in
  match b.Ast.instrs with
  | [ Ast.Assign ("a", Ast.Val 2);
      Ast.Assign ("b", Ast.Val 5);
      Ast.Store ("x", Ast.Val 5, Lang.Modes.WNa);
      Ast.Assign ("c", Ast.Val 5);
      Ast.Print (Ast.Val 10) ] -> ()
  | _ ->
      Alcotest.failf "unexpected constprop result:@.%s"
        (Pp.program_to_string p')

let test_constprop_branch_folding () =
  let p =
    parse
      {|threads t;
proc t entry L {
L:
  a := 1;
  be a == 1, B, C;
B:
  print(1);
  return;
C:
  print(2);
  return;
}|}
  in
  let p' = apply Opt.Constprop.pass p in
  match (fn_block p' "t" "L").Ast.term with
  | Ast.Jmp "B" -> ()
  | t -> Alcotest.failf "expected folded jump, got %s"
           (Format.asprintf "%a" Pp.pp_terminator t)

let test_constprop_acquire_barrier () =
  let p =
    parse
      {|atomics f;
threads t;
proc t entry L {
L:
  x.na := 5;
  r := f.acq;
  c := x.na;
  print(c);
  return;
}|}
  in
  let p' = apply Opt.Constprop.pass p in
  match (fn_block p' "t" "L").Ast.instrs with
  | [ _; _; Ast.Load ("c", "x", Lang.Modes.Na); _ ] -> ()
  | _ ->
      Alcotest.failf "load across acquire must not be folded:@.%s"
        (Pp.program_to_string p')

let test_constprop_never_touches_atomics () =
  let p =
    parse
      {|atomics f;
threads t;
proc t entry L {
L:
  f.rlx := 3;
  r := f.rlx;
  print(r);
  return;
}|}
  in
  let p' = apply Opt.Constprop.pass_fix p in
  match (fn_block p' "t" "L").Ast.instrs with
  | [ Ast.Store ("f", Ast.Val 3, Lang.Modes.WRlx);
      Ast.Load ("r", "f", Lang.Modes.Rlx); _ ] -> ()
  | _ ->
      Alcotest.failf "atomic accesses must be untouched:@.%s"
        (Pp.program_to_string p')

(* ------------------------------------------------------------------ *)
(* DCE *)

let test_dce_fig16 () =
  let p' = apply Opt.Dce.pass Litmus.fig16_src.Litmus.prog in
  match (fn_block p' "t1" "L0").Ast.instrs with
  | [ Ast.Skip; Ast.Store ("x", Ast.Val 2, Lang.Modes.WNa) ] -> ()
  | _ -> Alcotest.failf "expected dead store eliminated:@.%s" (Pp.program_to_string p')

let test_dce_respects_release () =
  (* Fig. 15: the write before the release write must survive *)
  let p' = apply Opt.Dce.pass Litmus.fig15_src.Litmus.prog in
  Alcotest.(check bool) "no change across release" true
    (equal_prog p' Litmus.fig15_src.Litmus.prog)

let test_dce_across_acquire () =
  (* DCE is allowed across acquire reads (Sec. 7.1) *)
  let p =
    parse
      {|atomics f;
threads t;
proc t entry L {
L:
  y.na := 2;
  r := f.acq;
  y.na := 4;
  r2 := y.na;
  print(r2);
  return;
}|}
  in
  let p' = apply Opt.Dce.pass p in
  match (fn_block p' "t" "L").Ast.instrs with
  | Ast.Skip :: _ -> ()
  | _ ->
      Alcotest.failf "dead write across acquire should be eliminated:@.%s"
        (Pp.program_to_string p')

let test_dce_dead_load_and_assign () =
  let p =
    parse
      {|threads t;
proc t entry L {
L:
  a := x.na;
  b := 7;
  print(1);
  return;
}|}
  in
  let p' = apply Opt.Dce.pass p in
  match (fn_block p' "t" "L").Ast.instrs with
  | [ Ast.Skip; Ast.Skip; Ast.Print (Ast.Val 1) ] -> ()
  | _ -> Alcotest.failf "dead load/assign not eliminated:@.%s" (Pp.program_to_string p')

let test_dce_keeps_printed_values () =
  let p =
    parse
      {|threads t;
proc t entry L {
L:
  a := 7;
  print(a);
  return;
}|}
  in
  Alcotest.(check bool) "nothing eliminated" true
    (equal_prog (apply Opt.Dce.pass p) p)

(* ------------------------------------------------------------------ *)
(* CSE *)

let test_cse_expressions () =
  let p =
    parse
      {|threads t;
proc t entry L {
L:
  a := b + c;
  d := b + c;
  print(d);
  return;
}|}
  in
  let p' = apply Opt.Cse.pass p in
  match (fn_block p' "t" "L").Ast.instrs with
  | [ _; Ast.Assign ("d", Ast.Reg "a"); _ ] -> ()
  | _ -> Alcotest.failf "expected CSE copy:@.%s" (Pp.program_to_string p')

let test_cse_redundant_load () =
  let p =
    parse
      {|threads t;
proc t entry L {
L:
  a := x.na;
  b := x.na;
  print(a + b);
  return;
}|}
  in
  let p' = apply Opt.Cse.pass p in
  match (fn_block p' "t" "L").Ast.instrs with
  | [ _; Ast.Assign ("b", Ast.Reg "a"); _ ] -> ()
  | _ -> Alcotest.failf "expected redundant load eliminated:@.%s" (Pp.program_to_string p')

let test_cse_acquire_barrier () =
  let p =
    parse
      {|atomics f;
threads t;
proc t entry L {
L:
  a := x.na;
  r := f.acq;
  b := x.na;
  print(a + b);
  return;
}|}
  in
  let p' = apply Opt.Cse.pass p in
  match (fn_block p' "t" "L").Ast.instrs with
  | [ _; _; Ast.Load ("b", "x", Lang.Modes.Na); _ ] -> ()
  | _ ->
      Alcotest.failf "reload across acquire must stay:@.%s"
        (Pp.program_to_string p')

let test_cse_store_forwarding () =
  let p =
    parse
      {|threads t;
proc t entry L {
L:
  x.na := a;
  b := x.na;
  print(b);
  return;
}|}
  in
  let p' = apply Opt.Cse.pass p in
  match (fn_block p' "t" "L").Ast.instrs with
  | [ _; Ast.Assign ("b", Ast.Reg "a"); _ ] -> ()
  | _ -> Alcotest.failf "expected store-to-load forwarding:@.%s" (Pp.program_to_string p')

(* ------------------------------------------------------------------ *)
(* LInv / LICM *)

let test_linv_hoists () =
  let p = Litmus.fig1_foo_rlx.Litmus.prog in
  let p' = apply Opt.Linv.pass p in
  Alcotest.(check bool) "changed" false (equal_prog p p');
  (* a preheader block was added with the hoisted load *)
  let foo = Ast.FnameMap.find "foo" p'.Ast.code in
  let ph =
    Ast.LabelMap.filter
      (fun _ b ->
        List.exists
          (function Ast.Load (_, "y", Lang.Modes.Na) -> true | _ -> false)
          b.Ast.instrs)
      foo.Ast.blocks
  in
  Alcotest.(check bool) "hoisted load exists outside loop" true
    (not (Ast.LabelMap.is_empty ph))

let test_linv_acquire_blocks_hoist () =
  let p = Litmus.fig1_foo.Litmus.prog in
  Alcotest.(check bool) "acquire read in loop: no hoist" true
    (equal_prog (apply Opt.Linv.pass p) p);
  Alcotest.(check bool) "licm also a no-op" true
    (equal_prog (apply Opt.Licm.pass p) p)

let test_linv_store_blocks_hoist () =
  let p =
    parse
      {|threads t;
proc t entry H {
H:
  r := x.na;
  x.na := r + 1;
  be r < 3, H, E;
E:
  return;
}|}
  in
  Alcotest.(check bool) "stored-in-loop location not hoisted" true
    (equal_prog (apply Opt.Linv.pass p) p)

let test_linv_across_release_write () =
  (* Sec. 1: "LICM is allowed across a relaxed read/write or a release
     write, but not an acquire read" — a release write in the loop
     body must not block hoisting, and the result must refine. *)
  let p =
    parse
      {|atomics f;
threads t env;
proc t entry L0 {
L0:
  r1 := 0;
  jmp H;
H:
  be r1 < 2, B, E;
B:
  r2 := inv.na;
  f.rel := r1;
  r1 := r1 + 1;
  jmp H;
E:
  print(r2);
  return;
}
proc env entry E0 {
E0:
  inv.na := 7;
  return;
}|}
  in
  let p' = apply Opt.Licm.pass p in
  Alcotest.(check bool) "hoisted across the release write" false
    (equal_prog p' p);
  let body = fn_block p' "t" "B" in
  Alcotest.(check bool) "loop body no longer loads inv" false
    (List.exists
       (function Ast.Load (_, "inv", _) -> true | _ -> false)
       body.Ast.instrs);
  Alcotest.(check bool) "refines" true
    (Explore.Refine.refines ~target:p' ~source:p ())

let test_dce_across_acquire_cas () =
  (* DCE across an acquire CAS (read part acq, write part rlx) is
     allowed; across a release CAS it is not. *)
  let mk wmode =
    parse
      (Printf.sprintf
         {|atomics f;
threads t;
proc t entry L {
L:
  y.na := 2;
  r := cas.acq.%s(f, 0, 1);
  y.na := 4;
  r2 := y.na;
  print(r2);
  return;
}|}
         wmode)
  in
  let acq_rlx = apply Opt.Dce.pass (mk "rlx") in
  (match (fn_block acq_rlx "t" "L").Ast.instrs with
  | Ast.Skip :: _ -> ()
  | _ -> Alcotest.fail "dead write across acquire CAS should be eliminated");
  let acq_rel = apply Opt.Dce.pass (mk "rel") in
  match (fn_block acq_rel "t" "L").Ast.instrs with
  | Ast.Store ("y", _, _) :: _ -> ()
  | _ -> Alcotest.fail "write before a release CAS must be kept"

let test_licm_full () =
  let p = Litmus.fig1_foo_rlx.Litmus.prog in
  let p' = apply Opt.Licm.pass p in
  (* after LICM, the loop body no longer loads y *)
  let foo = Ast.FnameMap.find "foo" p'.Ast.code in
  let body_loads_y =
    List.exists
      (function Ast.Load (_, "y", Lang.Modes.Na) -> true | _ -> false)
      (Ast.LabelMap.find "L3" foo.Ast.blocks).Ast.instrs
  in
  Alcotest.(check bool) "loop body reads register instead of y" false
    body_loads_y

let test_linv_invariant_loads_api () =
  let ch = Ast.FnameMap.find "foo" Litmus.fig1_foo_rlx.Litmus.prog.Ast.code in
  match Analysis.Loops.find ch with
  | [] -> Alcotest.fail "expected loops"
  | loops ->
      let outer =
        List.find (fun l -> l.Analysis.Loops.header = "L1") loops
      in
      Alcotest.(check (list string)) "y is the invariant load" [ "y" ]
        (Opt.Linv.invariant_loads ch outer)

(* Differential check of LInv's incremental hoisting against the
   rescanning form it replaced: per loop, recompute the heap's
   registers and retarget every outside block's jumps to the header.
   The random CFGs have loops headed by labels without a block
   (reached from unreachable back edges), labels and registers that
   collide with LInv's fresh names, and edges into the entry. *)
let rescanning_linv (ch : Ast.codeheap) =
  let fresh mem base =
    let rec go i =
      let c = Printf.sprintf "%s%d" base i in
      if mem c then go (i + 1) else c
    in
    go 0
  in
  let hoist (ch : Ast.codeheap) (loop : Analysis.Loops.loop) =
    match Opt.Linv.invariant_loads ch loop with
    | [] -> ch
    | vars ->
        let used = ref (Cfg.regs_of_codeheap ch) in
        let loads =
          List.map
            (fun x ->
              let rf = fresh (fun r -> Ast.RegSet.mem r !used) ("linv_" ^ x ^ "_") in
              used := Ast.RegSet.add rf !used;
              Ast.Load (rf, x, Lang.Modes.Na))
            vars
        in
        let h = loop.Analysis.Loops.header in
        let ph = fresh (fun l -> Ast.LabelMap.mem l ch.blocks) ("PH_" ^ h ^ "_") in
        let rt l = if String.equal l h then ph else l in
        let retarget : Ast.terminator -> Ast.terminator = function
          | Jmp l -> Jmp (rt l)
          | Be (e, l1, l2) -> Be (e, rt l1, rt l2)
          | Call (f, l) -> Call (f, rt l)
          | Return -> Return
        in
        let blocks =
          Ast.LabelMap.mapi
            (fun l (b : Ast.block) ->
              if Ast.VarSet.mem l loop.Analysis.Loops.body then b
              else { b with term = retarget b.term })
            ch.blocks
        in
        {
          Ast.entry = (if String.equal ch.entry h then ph else ch.entry);
          blocks = Ast.LabelMap.add ph (Ast.block loads (Jmp h)) blocks;
        }
  in
  List.fold_left hoist ch (Analysis.Loops.find ch)

let random_loop_cfg seed =
  let st = Random.State.make [| 0x11; seed |] in
  let n = 1 + Random.State.int st 14 in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let target () =
    match Random.State.int st 12 with
    | 0 -> pick [ "M0"; "M1" ]
    | 1 -> pick [ "PH_M0_0"; "PH_M0_1" ]
    | 2 -> Printf.sprintf "PH_L%d_0" (Random.State.int st n)
    | _ -> Printf.sprintf "L%d" (Random.State.int st n)
  in
  let instr () : Ast.instr =
    match Random.State.int st 4 with
    | 0 -> Load ("r", pick [ "x"; "y" ], Lang.Modes.Na)
    | 1 -> Store ("y", Val 1, Lang.Modes.WNa)
    | 2 -> Load ("linv_x_0", "x", Lang.Modes.Na)
    | _ -> Assign ("r", Val 2)
  in
  let term () : Ast.terminator =
    match Random.State.int st 8 with
    | 0 -> Return
    | 1 -> Call ("f", target ())
    | 2 | 3 | 4 -> Jmp (target ())
    | _ -> Be (Reg "c", target (), target ())
  in
  let labels =
    List.init n (Printf.sprintf "L%d")
    @ if Random.State.int st 4 = 0 then [ "PH_M0_0"; "PH_L0_0" ] else []
  in
  Ast.codeheap ~entry:"L0"
    (List.map
       (fun l ->
         (l, Ast.block (List.init (Random.State.int st 3) (fun _ -> instr ())) (term ())))
       labels)

let test_linv_matches_rescanning () =
  let hoisted = ref 0 in
  for seed = 0 to 19_999 do
    let ch = random_loop_cfg seed in
    let want = rescanning_linv ch in
    if not (Ast.equal_codeheap want ch) then incr hoisted;
    if not (Ast.equal_codeheap want (Opt.Linv.transform ~atomics:Ast.VarSet.empty ch))
    then
      Alcotest.failf "seed %d: LInv differs from the rescanning form on@.%a" seed
        (Pp.pp_codeheap ~name:"t") ch
  done;
  Alcotest.(check bool) "most CFGs hoist something" true (!hoisted > 10_000)

(* ------------------------------------------------------------------ *)
(* Copy propagation *)

let test_copyprop_rewrites () =
  let p =
    parse
      {|threads t;
proc t entry L {
L:
  a := x.na;
  b := a;
  c := b;
  print(c + b);
  return;
}|}
  in
  let p' = apply Opt.Copyprop.pass p in
  match (fn_block p' "t" "L").Ast.instrs with
  | [ _; Ast.Assign ("b", Ast.Reg "a"); Ast.Assign ("c", Ast.Reg "a");
      Ast.Print (Ast.Bin (Ast.Add, Ast.Reg "a", Ast.Reg "a")) ] -> ()
  | _ -> Alcotest.failf "copies not propagated:@.%s" (Pp.program_to_string p')

let test_copyprop_kill () =
  let p =
    parse
      {|threads t;
proc t entry L {
L:
  b := a;
  a := 5;
  print(b);
  return;
}|}
  in
  let p' = apply Opt.Copyprop.pass p in
  match (fn_block p' "t" "L").Ast.instrs with
  | [ _; _; Ast.Print (Ast.Reg "b") ] -> ()
  | _ ->
      Alcotest.failf "use after original redefined must not be rewritten:@.%s"
        (Pp.program_to_string p')

let test_copyprop_then_dce_removes_cse_moves () =
  (* the classic pipeline: CSE introduces a move, copyprop rewires the
     use, DCE deletes the move *)
  let p =
    parse
      {|threads t;
proc t entry L {
L:
  a := x.na;
  b := x.na;
  print(b);
  return;
}|}
  in
  let pipeline =
    Opt.Pass.(compose Opt.Cse.pass (compose Opt.Copyprop.pass
                 (compose Opt.Dce.pass Opt.Cleanup.pass)))
  in
  let p' = apply pipeline p in
  match (fn_block p' "t" "L").Ast.instrs with
  | [ Ast.Load ("a", "x", Lang.Modes.Na); Ast.Print (Ast.Reg "a") ] -> ()
  | _ -> Alcotest.failf "pipeline left residue:@.%s" (Pp.program_to_string p')

(* ------------------------------------------------------------------ *)
(* Cleanup *)

let test_cleanup_unreachable () =
  let p =
    parse
      {|threads t;
proc t entry L {
L:
  a := 1;
  be a == 1, B, C;
B:
  print(1);
  return;
C:
  print(2);
  return;
}|}
  in
  let folded = apply Opt.Constprop.pass p in
  let cleaned = apply Opt.Cleanup.pass folded in
  let ch = Ast.FnameMap.find "t" cleaned.Ast.code in
  Alcotest.(check bool) "dead branch block removed" false
    (Ast.LabelMap.mem "C" ch.Ast.blocks);
  Alcotest.(check bool) "live block kept" true (Ast.LabelMap.mem "B" ch.Ast.blocks);
  Alcotest.(check bool) "still refines" true
    (Explore.Refine.refines ~target:cleaned ~source:p ())

let test_cleanup () =
  let p =
    parse
      {|threads t;
proc t entry L {
L:
  skip;
  a := 1;
  skip;
  print(a);
  return;
}|}
  in
  let p' = apply Opt.Cleanup.pass p in
  Alcotest.(check int) "skips removed" 2
    (List.length (fn_block p' "t" "L").Ast.instrs)

(* ------------------------------------------------------------------ *)
(* Pass infrastructure *)

let test_compose_and_fixpoint () =
  let p =
    parse
      {|threads t;
proc t entry L {
L:
  a := 1;
  b := a + 1;
  c := b + 1;
  print(c);
  return;
}|}
  in
  (* the dataflow analysis already reaches its fixpoint in one round
     on a chain, so iterating converges immediately and stays put *)
  let one = apply Opt.Constprop.pass p in
  let fix = apply Opt.Constprop.pass_fix p in
  Alcotest.(check bool) "one round suffices on a chain" true
    (equal_prog one fix);
  Alcotest.(check bool) "fixpoint of the fixpoint is stable" true
    (equal_prog fix (apply Opt.Constprop.pass_fix fix));
  match (fn_block fix "t" "L").Ast.instrs with
  | [ _; _; Ast.Assign ("c", Ast.Val 3); Ast.Print (Ast.Val 3) ] -> ()
  | _ -> Alcotest.failf "fixpoint incomplete:@.%s" (Pp.program_to_string fix)

let test_passes_preserve_interface () =
  (* threads and atomics are preserved verbatim by every pass *)
  let passes =
    [ Opt.Constprop.pass; Opt.Dce.pass; Opt.Cse.pass; Opt.Copyprop.pass;
      Opt.Linv.pass; Opt.Licm.pass; Opt.Cleanup.pass ]
  in
  List.iter
    (fun (t : Litmus.t) ->
      List.iter
        (fun (pass : Opt.Pass.t) ->
          let p' = apply pass t.Litmus.prog in
          Alcotest.(check bool)
            (t.Litmus.name ^ "/" ^ pass.Opt.Pass.name ^ " atomics preserved")
            true
            (Ast.VarSet.equal p'.Ast.atomics t.Litmus.prog.Ast.atomics);
          Alcotest.(check (list string))
            (t.Litmus.name ^ "/" ^ pass.Opt.Pass.name ^ " threads preserved")
            t.Litmus.prog.Ast.threads p'.Ast.threads;
          (* targets remain well-formed *)
          match Wf.check p' with
          | Ok () -> ()
          | Error es ->
              Alcotest.failf "%s/%s: target ill-formed: %a" t.Litmus.name
                pass.Opt.Pass.name
                (Format.pp_print_list Wf.pp_error)
                es)
        passes)
    Litmus.all

(* ------------------------------------------------------------------ *)
(* The headline: every pass refines on every corpus program
   (Theorem 6.6, exhaustively on the bounded behaviour sets), and
   ww-RF is preserved (Lemma 6.2). *)

let test_refinement_corpus () =
  let passes =
    [ Opt.Constprop.pass; Opt.Dce.pass; Opt.Cse.pass; Opt.Copyprop.pass;
      Opt.Linv.pass; Opt.Licm.pass; Opt.Cleanup.pass ]
  in
  List.iter
    (fun (t : Litmus.t) ->
      List.iter
        (fun (pass : Opt.Pass.t) ->
          let tgt = apply pass t.Litmus.prog in
          if not (equal_prog tgt t.Litmus.prog) then begin
            Alcotest.(check bool)
              (t.Litmus.name ^ "/" ^ pass.Opt.Pass.name ^ " refines")
              true
              (Explore.Refine.refines ~target:tgt ~source:t.Litmus.prog ());
            (* ww-RF preservation *)
            let free p =
              match Race.ww_rf p with Ok Race.Free -> true | _ -> false
            in
            if free t.Litmus.prog then
              Alcotest.(check bool)
                (t.Litmus.name ^ "/" ^ pass.Opt.Pass.name ^ " preserves ww-RF")
                true (free tgt)
          end)
        passes)
    Litmus.all

let test_vertical_composition () =
  (* LICM = CSE ∘ LInv equals running the passes in sequence, and the
     composite refines (transitivity of refinement, Sec. 2.6). *)
  let p = Litmus.fig1_foo_rlx.Litmus.prog in
  let licm = apply Opt.Licm.pass p in
  let seq = apply Opt.Cse.pass (apply Opt.Linv.pass p) in
  Alcotest.(check bool) "licm = cse ∘ linv" true (equal_prog licm seq);
  Alcotest.(check bool) "composite refines" true
    (Explore.Refine.refines ~target:licm ~source:p ())

let () =
  Alcotest.run "opt"
    [
      ( "constprop",
        [
          Alcotest.test_case "folds" `Quick test_constprop_folds;
          Alcotest.test_case "branch folding" `Quick
            test_constprop_branch_folding;
          Alcotest.test_case "acquire barrier" `Quick
            test_constprop_acquire_barrier;
          Alcotest.test_case "atomics untouched" `Quick
            test_constprop_never_touches_atomics;
        ] );
      ( "dce",
        [
          Alcotest.test_case "Fig. 16" `Quick test_dce_fig16;
          Alcotest.test_case "release barrier (Fig. 15)" `Quick
            test_dce_respects_release;
          Alcotest.test_case "across acquire" `Quick test_dce_across_acquire;
          Alcotest.test_case "across acquire CAS / release CAS" `Quick
            test_dce_across_acquire_cas;
          Alcotest.test_case "dead load/assign" `Quick
            test_dce_dead_load_and_assign;
          Alcotest.test_case "live values kept" `Quick
            test_dce_keeps_printed_values;
        ] );
      ( "cse",
        [
          Alcotest.test_case "expressions" `Quick test_cse_expressions;
          Alcotest.test_case "redundant load" `Quick test_cse_redundant_load;
          Alcotest.test_case "acquire barrier" `Quick test_cse_acquire_barrier;
          Alcotest.test_case "store forwarding" `Quick test_cse_store_forwarding;
        ] );
      ( "licm",
        [
          Alcotest.test_case "linv hoists" `Quick test_linv_hoists;
          Alcotest.test_case "acquire blocks hoisting (Fig. 1)" `Quick
            test_linv_acquire_blocks_hoist;
          Alcotest.test_case "stores block hoisting" `Quick
            test_linv_store_blocks_hoist;
          Alcotest.test_case "hoists across release writes" `Quick
            test_linv_across_release_write;
          Alcotest.test_case "full LICM" `Quick test_licm_full;
          Alcotest.test_case "invariant_loads" `Quick
            test_linv_invariant_loads_api;
          Alcotest.test_case "linv matches the rescanning form" `Quick
            test_linv_matches_rescanning;
        ] );
      ( "copyprop",
        [
          Alcotest.test_case "rewrites uses" `Quick test_copyprop_rewrites;
          Alcotest.test_case "kills on redefinition" `Quick test_copyprop_kill;
          Alcotest.test_case "cse+copyprop+dce pipeline" `Quick
            test_copyprop_then_dce_removes_cse_moves;
        ] );
      ( "infrastructure",
        [
          Alcotest.test_case "cleanup" `Quick test_cleanup;
          Alcotest.test_case "unreachable blocks" `Quick
            test_cleanup_unreachable;
          Alcotest.test_case "compose/fixpoint" `Quick test_compose_and_fixpoint;
          Alcotest.test_case "interface preserved" `Slow
            test_passes_preserve_interface;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "refinement on corpus (Thm. 6.6)" `Slow
            test_refinement_corpus;
          Alcotest.test_case "vertical composition" `Quick
            test_vertical_composition;
        ] );
    ]
