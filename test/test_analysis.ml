(* The dataflow framework: lattices, Kildall worklist, liveness with
   the Fig. 15 release rule, the constant domain with the acquire kill
   rule, available expressions, dominators and natural loops. *)

open Lang

let parse s = Parse.program_of_string s
let fn p name = Ast.FnameMap.find name p.Ast.code

(* ------------------------------------------------------------------ *)
(* Lattice *)

module FInt = Analysis.Lattice.Flat (struct
  type t = int

  let equal = Int.equal
  let pp = Format.pp_print_int
end)

let test_flat_lattice () =
  Alcotest.(check bool) "bot join x" true
    (FInt.equal (FInt.join FInt.Bot (FInt.Known 3)) (FInt.Known 3));
  Alcotest.(check bool) "same join" true
    (FInt.equal (FInt.join (FInt.Known 3) (FInt.Known 3)) (FInt.Known 3));
  Alcotest.(check bool) "diff join top" true
    (FInt.equal (FInt.join (FInt.Known 3) (FInt.Known 4)) FInt.Top);
  Alcotest.(check bool) "top absorbs" true
    (FInt.equal (FInt.join FInt.Top (FInt.Known 3)) FInt.Top);
  Alcotest.(check (option int)) "get known" (Some 3) (FInt.get (FInt.known 3));
  Alcotest.(check (option int)) "get top" None (FInt.get FInt.Top)

let flat_gen =
  QCheck.make
    ~print:(fun v -> Format.asprintf "%a" FInt.pp v)
    QCheck.Gen.(
      oneof
        [ return FInt.Bot; return FInt.Top;
          map (fun n -> FInt.Known n) (int_range 0 5) ])

let lattice_props =
  [
    QCheck.Test.make ~count:200 ~name:"flat join commutative"
      (QCheck.pair flat_gen flat_gen) (fun (a, b) ->
        FInt.equal (FInt.join a b) (FInt.join b a));
    QCheck.Test.make ~count:200 ~name:"flat join associative"
      (QCheck.triple flat_gen flat_gen flat_gen) (fun (a, b, c) ->
        FInt.equal (FInt.join (FInt.join a b) c) (FInt.join a (FInt.join b c)));
    QCheck.Test.make ~count:200 ~name:"flat join idempotent" flat_gen (fun a ->
        FInt.equal (FInt.join a a) a);
  ]

(* ------------------------------------------------------------------ *)
(* Liveness *)

let fig15_like =
  {|atomics x;
threads t;
proc t entry L {
L:
  y.na := 2;
  x.rel := 1;
  y.na := 4;
  return;
}|}

let fig16_like =
  {|threads t;
proc t entry L {
L:
  y.na := 1;
  y.na := 2;
  return;
}|}

let live_after ch =
  let res = Analysis.Liveness.analyze ch in
  res.Analysis.Liveness.after

let test_liveness_release_kill () =
  let ch = fn (parse fig15_like) "t" in
  match live_after ch "L" with
  | [ after_w1; _after_rel; _after_w2 ] ->
      (* y is live right after the first write: the release write
         revives all locations (Fig. 15's correct annotation) *)
      Alcotest.(check bool) "y live after first write" true
        (Analysis.Liveness.var_live "y" after_w1)
  | l -> Alcotest.failf "expected 3 instruction points, got %d" (List.length l)

let test_liveness_dead_store () =
  let ch = fn (parse fig16_like) "t" in
  match live_after ch "L" with
  | [ after_w1; _ ] ->
      Alcotest.(check bool) "y dead after first write (Fig. 16)" false
        (Analysis.Liveness.var_live "y" after_w1)
  | _ -> Alcotest.fail "bad shape"

let test_liveness_rlx_no_kill () =
  (* relaxed writes and acquire reads do not revive locations *)
  let p =
    parse
      {|atomics x;
threads t;
proc t entry L {
L:
  y.na := 2;
  x.rlx := 1;
  r := x.acq;
  y.na := 4;
  return;
}|}
  in
  let ch = fn p "t" in
  match live_after ch "L" with
  | [ after_w1; _; _; _ ] ->
      Alcotest.(check bool) "y dead across rlx write and acq read" false
        (Analysis.Liveness.var_live "y" after_w1)
  | _ -> Alcotest.fail "bad shape"

let test_liveness_register_chain () =
  let p =
    parse
      {|threads t;
proc t entry L {
L:
  a := 1;
  b := a + 1;
  print(b);
  return;
}|}
  in
  let ch = fn p "t" in
  let res = Analysis.Liveness.analyze ~exit_live:Analysis.Liveness.none ch in
  match res.Analysis.Liveness.after "L" with
  | [ after_a; after_b; after_print ] ->
      Alcotest.(check bool) "a live after def (used by b)" true
        (Analysis.Liveness.reg_live "a" after_a);
      Alcotest.(check bool) "b live after def" true
        (Analysis.Liveness.reg_live "b" after_b);
      Alcotest.(check bool) "a dead after b's def" false
        (Analysis.Liveness.reg_live "a" after_b);
      Alcotest.(check bool) "b dead after print" false
        (Analysis.Liveness.reg_live "b" after_print)
  | _ -> Alcotest.fail "bad shape"

let test_liveness_dead_chain () =
  (* a feeds only b; b is dead — the chain must be found dead
     (dead definitions do not generate uses) *)
  let p =
    parse
      {|threads t;
proc t entry L {
L:
  a := 1;
  b := a + 1;
  return;
}|}
  in
  let ch = fn p "t" in
  let res =
    Analysis.Liveness.analyze
      ~exit_live:Analysis.Liveness.none ch
  in
  match res.Analysis.Liveness.after "L" with
  | [ after_a; _ ] ->
      Alcotest.(check bool) "a dead (only feeds dead b)" false
        (Analysis.Liveness.reg_live "a" after_a)
  | _ -> Alcotest.fail "bad shape"

let test_liveness_loop () =
  let p =
    parse
      {|threads t;
proc t entry H {
H:
  be i < 3, B, E;
B:
  i := i + 1;
  s := s + i;
  jmp H;
E:
  print(s);
  return;
}|}
  in
  let ch = fn p "t" in
  let res = Analysis.Liveness.analyze ~exit_live:Analysis.Liveness.none ch in
  let entry = res.Analysis.Liveness.entry "H" in
  Alcotest.(check bool) "i live at header" true
    (Analysis.Liveness.reg_live "i" entry);
  Alcotest.(check bool) "s live at header" true
    (Analysis.Liveness.reg_live "s" entry)

(* ------------------------------------------------------------------ *)
(* Constant domain *)

let test_const_basic () =
  let p =
    parse
      {|threads t;
proc t entry L {
L:
  a := 2;
  b := a + 3;
  x.na := b;
  c := x.na;
  print(c);
  return;
}|}
  in
  let ch = fn p "t" in
  let res = Analysis.Constdom.analyze ch in
  match res.Analysis.Constdom.before "L" with
  | [ _; st_b; st_store; st_load; st_print ] ->
      Alcotest.(check (option int)) "a known" (Some 2)
        (Analysis.Constdom.reg_value "a" st_b);
      Alcotest.(check (option int)) "b folds" (Some 5)
        (Analysis.Constdom.eval st_store (Ast.Reg "b"));
      Alcotest.(check (option int)) "x tracked after store" (Some 5)
        (Analysis.Constdom.var_value "x" st_load);
      Alcotest.(check (option int)) "load forwards" (Some 5)
        (Analysis.Constdom.reg_value "c" st_print)
  | _ -> Alcotest.fail "bad shape"

let test_const_acquire_kills_vars () =
  let p =
    parse
      {|atomics f;
threads t;
proc t entry L {
L:
  x.na := 5;
  r := f.acq;
  c := x.na;
  return;
}|}
  in
  let ch = fn p "t" in
  let res = Analysis.Constdom.analyze ch in
  match res.Analysis.Constdom.before "L" with
  | [ _; st_acq; st_load ] ->
      Alcotest.(check (option int)) "x known before acq" (Some 5)
        (Analysis.Constdom.var_value "x" st_acq);
      Alcotest.(check (option int)) "acq kills location facts" None
        (Analysis.Constdom.var_value "x" st_load)
  | _ -> Alcotest.fail "bad shape"

let test_const_rlx_keeps_vars () =
  let p =
    parse
      {|atomics f;
threads t;
proc t entry L {
L:
  x.na := 5;
  r := f.rlx;
  f.rel := 1;
  c := x.na;
  return;
}|}
  in
  let ch = fn p "t" in
  let res = Analysis.Constdom.analyze ch in
  match res.Analysis.Constdom.before "L" with
  | [ _; _; _; st_load ] ->
      Alcotest.(check (option int))
        "rlx read and rel write keep location facts" (Some 5)
        (Analysis.Constdom.var_value "x" st_load)
  | _ -> Alcotest.fail "bad shape"

let test_const_join () =
  let p =
    parse
      {|threads t;
proc t entry A {
A:
  be c, B, C;
B:
  a := 1;
  jmp D;
C:
  a := 1;
  b := 2;
  jmp D;
D:
  print(a);
  return;
}|}
  in
  let ch = fn p "t" in
  let res = Analysis.Constdom.analyze ch in
  let st = res.Analysis.Constdom.entry "D" in
  Alcotest.(check (option int)) "a agrees on both paths" (Some 1)
    (Analysis.Constdom.reg_value "a" st);
  Alcotest.(check (option int)) "b only on one path" None
    (Analysis.Constdom.reg_value "b" st)

let test_const_call_kills () =
  let p =
    parse
      {|threads t;
proc t entry A {
A:
  a := 1;
  x.na := 2;
  call(g, B);
B:
  print(a);
  return;
}
proc g entry G {
G:
  return;
}|}
  in
  let ch = fn p "t" in
  let res = Analysis.Constdom.analyze ch in
  let st = res.Analysis.Constdom.entry "B" in
  Alcotest.(check (option int)) "registers killed at call" None
    (Analysis.Constdom.reg_value "a" st);
  Alcotest.(check (option int)) "locations killed at call" None
    (Analysis.Constdom.var_value "x" st)

(* ------------------------------------------------------------------ *)
(* Available expressions *)

let test_avail_basic () =
  let p =
    parse
      {|threads t;
proc t entry L {
L:
  a := b + c;
  d := b + c;
  e := a + 1;
  b := 0;
  f := b + c;
  return;
}|}
  in
  let ch = fn p "t" in
  let res = Analysis.Availexpr.analyze ch in
  match res.Analysis.Availexpr.before "L" with
  | [ _; st_d; _; st_killb; st_f ] ->
      let rhs = Analysis.Availexpr.Expr (Parse.expr_of_string "b + c") in
      Alcotest.(check (option string)) "b+c available in a" (Some "a")
        (Analysis.Availexpr.lookup rhs st_d);
      Alcotest.(check (option string)) "still available later" (Some "a")
        (Analysis.Availexpr.lookup rhs st_killb);
      Alcotest.(check (option string)) "killed by b := 0" None
        (Analysis.Availexpr.lookup rhs st_f)
  | _ -> Alcotest.fail "bad shape"

let test_avail_load_facts () =
  let p =
    parse
      {|atomics f;
threads t;
proc t entry L {
L:
  a := x.na;
  b := x.na;
  r := f.acq;
  c := x.na;
  return;
}|}
  in
  let ch = fn p "t" in
  let res = Analysis.Availexpr.analyze ch in
  match res.Analysis.Availexpr.before "L" with
  | [ _; st_b; st_acq; st_c ] ->
      let rhs = Analysis.Availexpr.LoadNa "x" in
      Alcotest.(check (option string)) "x.na available in a" (Some "a")
        (Analysis.Availexpr.lookup rhs st_b);
      Alcotest.(check (option string)) "still before acq" (Some "a")
        (Analysis.Availexpr.lookup rhs st_acq);
      Alcotest.(check (option string)) "acq kills load facts" None
        (Analysis.Availexpr.lookup rhs st_c)
  | _ -> Alcotest.fail "bad shape"

let test_avail_store_kills_and_forwards () =
  let p =
    parse
      {|threads t;
proc t entry L {
L:
  a := x.na;
  x.na := b;
  c := x.na;
  return;
}|}
  in
  let ch = fn p "t" in
  let res = Analysis.Availexpr.analyze ch in
  match res.Analysis.Availexpr.before "L" with
  | [ _; _; st_c ] ->
      Alcotest.(check (option string)) "store kills old fact, forwards b"
        (Some "b")
        (Analysis.Availexpr.lookup (Analysis.Availexpr.LoadNa "x") st_c)
  | _ -> Alcotest.fail "bad shape"

let test_avail_oldest_holder_survives_loop () =
  (* the LInv contract: a reload in the loop must not steal the
     preheader fact *)
  let p =
    parse
      {|threads t;
proc t entry P {
P:
  h := x.na;
  jmp H;
H:
  r := x.na;
  be r < 3, H, E;
E:
  return;
}|}
  in
  let ch = fn p "t" in
  let res = Analysis.Availexpr.analyze ch in
  match res.Analysis.Availexpr.before "H" with
  | [ st_r ] ->
      Alcotest.(check (option string)) "h survives the back edge" (Some "h")
        (Analysis.Availexpr.lookup (Analysis.Availexpr.LoadNa "x") st_r)
  | _ -> Alcotest.fail "bad shape"

(* ------------------------------------------------------------------ *)
(* Copy domain *)

let test_copy_basic () =
  let p =
    parse
      {|threads t;
proc t entry L {
L:
  a := x.na;
  b := a;
  c := b;
  a := 5;
  d := c;
  return;
}|}
  in
  let ch = fn p "t" in
  let res = Analysis.Copydom.analyze ch in
  match res.Analysis.Copydom.before "L" with
  | [ _; _; st_c; st_kill; st_d ] ->
      Alcotest.(check (option string)) "b copies a" (Some "a")
        (Analysis.Copydom.copy_of "b" st_c);
      Alcotest.(check (option string)) "chain flattened: c copies a"
        (Some "a")
        (Analysis.Copydom.copy_of "c" st_kill);
      (* redefining a kills every fact involving a *)
      Alcotest.(check (option string)) "b fact killed" None
        (Analysis.Copydom.copy_of "b" st_d);
      Alcotest.(check (option string)) "c fact killed" None
        (Analysis.Copydom.copy_of "c" st_d)
  | _ -> Alcotest.fail "bad shape"

let test_copy_join () =
  let p =
    parse
      {|threads t;
proc t entry A {
A:
  be cnd, B, C;
B:
  b := a;
  jmp D;
C:
  b := a;
  c := a;
  jmp D;
D:
  return;
}|}
  in
  let ch = fn p "t" in
  let res = Analysis.Copydom.analyze ch in
  let st = res.Analysis.Copydom.entry "D" in
  Alcotest.(check (option string)) "agreeing copy survives join" (Some "a")
    (Analysis.Copydom.copy_of "b" st);
  Alcotest.(check (option string)) "one-sided copy dropped" None
    (Analysis.Copydom.copy_of "c" st)

let test_copy_self_assign () =
  (* r := r establishes nothing (and must not loop the analysis) *)
  let p =
    parse
      {|threads t;
proc t entry L {
L:
  a := a;
  return;
}|}
  in
  let ch = fn p "t" in
  let res = Analysis.Copydom.analyze ch in
  match res.Analysis.Copydom.before "L" with
  | [ st ] ->
      Alcotest.(check (option string)) "no self fact" None
        (Analysis.Copydom.copy_of "a" st)
  | _ -> Alcotest.fail "bad shape"

(* ------------------------------------------------------------------ *)
(* Dominators and loops *)

let loopy =
  {|threads t;
proc t entry A {
A:
  jmp H;
H:
  be c, B, E;
B:
  r := x.na;
  jmp H;
E:
  return;
}|}

let test_dominators () =
  let ch = fn (parse loopy) "t" in
  let dom = Analysis.Dominator.compute ch in
  Alcotest.(check bool) "entry dominates all" true
    (List.for_all
       (fun l -> Analysis.Dominator.dominates dom "A" l)
       [ "A"; "H"; "B"; "E" ]);
  Alcotest.(check bool) "H dominates B" true
    (Analysis.Dominator.dominates dom "H" "B");
  Alcotest.(check bool) "B does not dominate H" false
    (Analysis.Dominator.dominates dom "B" "H");
  Alcotest.(check (option string)) "idom of H" (Some "A")
    (Analysis.Dominator.idom dom "H");
  Alcotest.(check (option string)) "idom of entry" None
    (Analysis.Dominator.idom dom "A")

(* Differential check against the set-based algorithm [Dominator] used
   before: dominator sets iterated to the greatest fixpoint over
   reverse postorder, the immediate dominator being the strict
   dominator with the most dominators.  Cubic, so a test oracle only. *)
module Set_dominator = struct
  open Ast

  let compute (ch : codeheap) =
    let rpo = Cfg.reverse_postorder ch in
    let preds = Cfg.predecessors ch in
    let all = VarSet.of_list rpo in
    let dom = Hashtbl.create 16 in
    Hashtbl.replace dom ch.entry (VarSet.singleton ch.entry);
    List.iter
      (fun l -> if not (String.equal l ch.entry) then Hashtbl.replace dom l all)
      rpo;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun l ->
          if not (String.equal l ch.entry) then
            let ps =
              match LabelMap.find_opt l preds with
              | Some ps -> List.filter (fun p -> VarSet.mem p all) ps
              | None -> []
            in
            let meet =
              List.fold_left
                (fun acc p ->
                  let dp = Hashtbl.find dom p in
                  match acc with
                  | None -> Some dp
                  | Some s -> Some (VarSet.inter s dp))
                None ps
            in
            let nd =
              match meet with
              | None -> VarSet.singleton l
              | Some s -> VarSet.add l s
            in
            if not (VarSet.equal nd (Hashtbl.find dom l)) then (
              Hashtbl.replace dom l nd;
              changed := true))
        rpo
    done;
    dom

  let dominates dom a b =
    match Hashtbl.find_opt dom b with
    | Some s -> VarSet.mem a s
    | None -> true

  let idom dom l =
    match Hashtbl.find_opt dom l with
    | None -> None
    | Some s ->
        VarSet.fold
          (fun d acc ->
            let size = VarSet.cardinal (Hashtbl.find dom d) in
            match acc with
            | Some (_, best) when best >= size -> acc
            | _ -> Some (d, size))
          (VarSet.remove l s) None
        |> Option.map fst
end

(* Seeded random CFGs of 1-24 blocks: random edges give irreducible
   loops, edges back into the entry and unreachable blocks; some jumps
   and calls go to labels without a block. *)
let random_dom_cfg seed =
  let st = Random.State.make [| 0xd0; seed |] in
  let n = 1 + Random.State.int st 24 in
  let target () =
    if Random.State.int st 10 = 0 then
      Printf.sprintf "M%d" (Random.State.int st 3)
    else Printf.sprintf "L%d" (Random.State.int st n)
  in
  let term () =
    match Random.State.int st 8 with
    | 0 -> Ast.Return
    | 1 -> Ast.Call ("f", target ())
    | 2 | 3 | 4 -> Ast.Jmp (target ())
    | _ -> Ast.Be (Ast.Reg "c", target (), target ())
  in
  let blocks =
    List.init n (fun i -> (Printf.sprintf "L%d" i, Ast.block [] (term ())))
  in
  let labels =
    List.map fst blocks @ [ "M0"; "M1"; "M2"; "nowhere" ]
  in
  (Ast.codeheap ~entry:"L0" blocks, labels)

let test_dominators_differential () =
  let checks = ref 0 in
  for seed = 0 to 2999 do
    let ch, labels = random_dom_cfg seed in
    let fast = Analysis.Dominator.compute ch in
    let slow = Set_dominator.compute ch in
    let fail what =
      Alcotest.failf "seed %d: %s differs on@.%a" seed what
        (Lang.Pp.pp_codeheap ~name:"t") ch
    in
    List.iter
      (fun b ->
        incr checks;
        if Analysis.Dominator.idom fast b <> Set_dominator.idom slow b then
          fail ("idom " ^ b);
        List.iter
          (fun a ->
            incr checks;
            if
              Analysis.Dominator.dominates fast a b
              <> Set_dominator.dominates slow a b
            then fail (Printf.sprintf "dominates %s %s" a b))
          labels)
      labels
  done;
  Alcotest.(check bool) "checked a few hundred thousand facts" true
    (!checks > 100_000)

let test_loops () =
  let ch = fn (parse loopy) "t" in
  match Analysis.Loops.find ch with
  | [ l ] ->
      Alcotest.(check string) "header" "H" l.Analysis.Loops.header;
      Alcotest.(check (slist string compare))
        "body" [ "B"; "H" ]
        (Ast.VarSet.elements l.Analysis.Loops.body);
      Alcotest.(check (list string)) "back edge from B" [ "B" ] l.Analysis.Loops.back_edges;
      Alcotest.(check (list string)) "outside preds" [ "A" ]
        (Analysis.Loops.preheader_preds ch l)
  | ls -> Alcotest.failf "expected 1 loop, got %d" (List.length ls)

let test_nested_loops () =
  let p =
    parse
      {|threads t;
proc t entry A {
A:
  jmp H1;
H1:
  be c1, H2, E;
H2:
  be c2, B, X;
B:
  jmp H2;
X:
  jmp H1;
E:
  return;
}|}
  in
  let ch = fn p "t" in
  let loops = Analysis.Loops.find ch in
  Alcotest.(check int) "two loops" 2 (List.length loops);
  let outer = List.find (fun l -> l.Analysis.Loops.header = "H1") loops in
  let inner = List.find (fun l -> l.Analysis.Loops.header = "H2") loops in
  Alcotest.(check bool) "inner body within outer" true
    (Ast.VarSet.subset inner.Analysis.Loops.body outer.Analysis.Loops.body)

let test_no_loops () =
  let ch = fn (parse fig16_like) "t" in
  Alcotest.(check int) "straight-line: no loops" 0
    (List.length (Analysis.Loops.find ch))

(* ------------------------------------------------------------------ *)
(* Worklist convergence on random CFGs: forward constant analysis
   terminates and produces a fixpoint (transfer of entry state is
   consistent with the recorded per-block states). *)

let random_cfg_gen =
  QCheck.Gen.(
    map
      (fun (n, edges) ->
        let n = max 1 n in
        let label i = Printf.sprintf "L%d" i in
        let blocks =
          List.init n (fun i ->
              let succs =
                List.filter_map
                  (fun (a, b) -> if a mod n = i then Some (b mod n) else None)
                  edges
              in
              let term =
                match succs with
                | [] -> Ast.Return
                | [ s ] -> Ast.Jmp (label s)
                | s1 :: s2 :: _ -> Ast.Be (Ast.Reg "c", label s1, label s2)
              in
              (label i, Ast.block [ Ast.Assign ("a", Ast.Val i) ] term))
        in
        Ast.codeheap ~entry:"L0" blocks)
      (pair (int_range 1 8)
         (list_size (int_range 0 12) (pair (int_range 0 7) (int_range 0 7)))))

let cfg_arbitrary =
  QCheck.make ~print:(fun ch ->
      Format.asprintf "%a" (Lang.Pp.pp_codeheap ~name:"t") ch)
    random_cfg_gen

let worklist_props =
  [
    QCheck.Test.make ~count:100 ~name:"const analysis is a fixpoint"
      cfg_arbitrary (fun ch ->
        let res = Analysis.Constdom.analyze ch in
        (* for every edge (l -> s), transfer(entry l) ⊑ entry s *)
        Ast.LabelMap.for_all
          (fun l b ->
            let out =
              List.fold_left
                (fun st i -> Analysis.Constdom.transfer_instr i st)
                (res.Analysis.Constdom.entry l)
                b.Ast.instrs
              |> Analysis.Constdom.transfer_term b.Ast.term
            in
            List.for_all
              (fun s ->
                let target = res.Analysis.Constdom.entry s in
                Analysis.Constdom.L.equal
                  (Analysis.Constdom.L.join out target)
                  target)
              (Cfg.successors b))
          ch.Ast.blocks);
    QCheck.Test.make ~count:100 ~name:"liveness is a fixpoint" cfg_arbitrary
      (fun ch ->
        let res = Analysis.Liveness.analyze ch in
        let u = Analysis.Liveness.universe_of ch in
        Ast.LabelMap.for_all
          (fun l b ->
            (* entry l = transfer of the block over joined successor
               entries (or the exit assumption) *)
            let out =
              match Cfg.successors b with
              | [] -> Analysis.Liveness.all u
              | succs ->
                  List.fold_left
                    (fun acc s ->
                      Analysis.Liveness.L.join acc
                        (res.Analysis.Liveness.entry s))
                    Analysis.Liveness.L.bot succs
            in
            let entry =
              List.fold_right
                (fun i st -> Analysis.Liveness.transfer_instr u i st)
                b.Ast.instrs
                (Analysis.Liveness.transfer_term u b.Ast.term out)
            in
            Analysis.Liveness.L.equal entry (res.Analysis.Liveness.entry l))
          ch.Ast.blocks);
  ]

let () =
  Alcotest.run "analysis"
    [
      ( "lattice",
        Alcotest.test_case "flat" `Quick test_flat_lattice
        :: List.map QCheck_alcotest.to_alcotest lattice_props );
      ( "liveness",
        [
          Alcotest.test_case "release revives (Fig. 15)" `Quick
            test_liveness_release_kill;
          Alcotest.test_case "dead store (Fig. 16)" `Quick
            test_liveness_dead_store;
          Alcotest.test_case "rlx/acq do not revive" `Quick
            test_liveness_rlx_no_kill;
          Alcotest.test_case "register chains" `Quick
            test_liveness_register_chain;
          Alcotest.test_case "dead chains" `Quick test_liveness_dead_chain;
          Alcotest.test_case "loop" `Quick test_liveness_loop;
        ] );
      ( "constdom",
        [
          Alcotest.test_case "basics + store/load" `Quick test_const_basic;
          Alcotest.test_case "acquire kills locations" `Quick
            test_const_acquire_kills_vars;
          Alcotest.test_case "relaxed keeps locations" `Quick
            test_const_rlx_keeps_vars;
          Alcotest.test_case "join" `Quick test_const_join;
          Alcotest.test_case "call kills" `Quick test_const_call_kills;
        ] );
      ( "availexpr",
        [
          Alcotest.test_case "expressions" `Quick test_avail_basic;
          Alcotest.test_case "load facts + acquire" `Quick test_avail_load_facts;
          Alcotest.test_case "store kills and forwards" `Quick
            test_avail_store_kills_and_forwards;
          Alcotest.test_case "oldest holder survives loops" `Quick
            test_avail_oldest_holder_survives_loop;
        ] );
      ( "copydom",
        [
          Alcotest.test_case "chains and kills" `Quick test_copy_basic;
          Alcotest.test_case "join" `Quick test_copy_join;
          Alcotest.test_case "self assignment" `Quick test_copy_self_assign;
        ] );
      ( "cfg-structures",
        [
          Alcotest.test_case "dominators" `Quick test_dominators;
          Alcotest.test_case "dominators match the set-based reference"
            `Quick test_dominators_differential;
          Alcotest.test_case "natural loop" `Quick test_loops;
          Alcotest.test_case "nested loops" `Quick test_nested_loops;
          Alcotest.test_case "no loops" `Quick test_no_loops;
        ] );
      ("worklist", List.map QCheck_alcotest.to_alcotest worklist_props);
    ]
