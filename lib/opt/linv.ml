open Lang.Ast
module Loops = Analysis.Loops

(* Accesses that forbid hoisting a non-atomic load out of the loop. *)
let blocks_hoisting = function
  | Load (_, _, Lang.Modes.Acq) -> true
  | Cas _ -> true (* conservatively: any RMW *)
  | Fence (Lang.Modes.FAcq | Lang.Modes.FSc) -> true
  | _ -> false

let invariant_loads (ch : codeheap) (loop : Loops.loop) =
  let body_blocks =
    List.filter_map
      (fun l -> LabelMap.find_opt l ch.blocks)
      (VarSet.elements loop.Loops.body)
  in
  let has_call =
    List.exists
      (fun (b : block) -> match b.term with Call _ -> true | _ -> false)
      body_blocks
  in
  let instrs = List.concat_map (fun (b : block) -> b.instrs) body_blocks in
  if has_call || List.exists blocks_hoisting instrs then []
  else
    let stored =
      List.filter_map
        (function Store (x, _, _) -> Some x | _ -> None)
        instrs
      |> VarSet.of_list
    in
    List.filter_map
      (function
        | Load (_, x, Lang.Modes.Na) when not (VarSet.mem x stored) -> Some x
        | _ -> None)
      instrs
    |> List.sort_uniq String.compare

let fresh_reg used base =
  let rec go i =
    let cand = Printf.sprintf "%s%d" base i in
    if RegSet.mem cand used then go (i + 1) else cand
  in
  go 0

let fresh_label (ch : codeheap) base =
  let rec go i =
    let cand = Printf.sprintf "%s%d" base i in
    if LabelMap.mem cand ch.blocks then go (i + 1) else cand
  in
  go 0

let retarget_term old_l new_l t =
  let rt l = if String.equal l old_l then new_l else l in
  match t with
  | Jmp l -> Jmp (rt l)
  | Be (e, l1, l2) -> Be (e, rt l1, rt l2)
  | Call (f, lret) -> Call (f, rt lret)
  | Return -> Return

(* Predecessor sets of every jump target, missing labels included:
   those are retargeted like any other when they head a loop. *)
let predecessors (ch : codeheap) =
  LabelMap.fold
    (fun l b acc ->
      List.fold_left
        (fun acc s ->
          LabelMap.update s
            (fun ps ->
              Some (VarSet.add l (Option.value ps ~default:VarSet.empty)))
            acc)
        acc (Lang.Cfg.successors b))
    ch.blocks LabelMap.empty

let preds_of preds l =
  Option.value (LabelMap.find_opt l preds) ~default:VarSet.empty

(* The used registers and the predecessor map are those of [ch] on entry
   and are kept exact across hoists, so each loop costs only its body
   and its header's predecessors. *)
let hoist_loop (used, preds, (ch : codeheap)) (loop : Loops.loop) =
  match invariant_loads ch loop with
  | [] -> (used, preds, ch)
  | vars ->
      let loads, used =
        List.fold_left
          (fun (acc, used) x ->
            let rf = fresh_reg used ("linv_" ^ x ^ "_") in
            (Load (rf, x, Lang.Modes.Na) :: acc, RegSet.add rf used))
          ([], used) vars
      in
      let h = loop.Loops.header in
      let ph = fresh_label ch ("PH_" ^ h ^ "_") in
      let ph_block = { instrs = List.rev loads; term = Jmp h } in
      (* Outside-loop edges into the header now go through the
         preheader; back edges stay direct. *)
      let outside, inside =
        VarSet.partition
          (fun p -> not (VarSet.mem p loop.Loops.body))
          (preds_of preds h)
      in
      let blocks =
        VarSet.fold
          (fun p blocks ->
            let b = LabelMap.find p blocks in
            LabelMap.add p { b with term = retarget_term h ph b.term } blocks)
          outside ch.blocks
      in
      let blocks = LabelMap.add ph ph_block blocks in
      let preds =
        preds
        |> LabelMap.add h (VarSet.add ph inside)
        |> LabelMap.add ph (VarSet.union outside (preds_of preds ph))
      in
      let entry = if String.equal ch.entry h then ph else ch.entry in
      (used, preds, { entry; blocks })

let transform ~atomics (ch : codeheap) =
  ignore atomics;
  match Loops.find ch with
  | [] -> ch
  | loops ->
      let _, _, ch =
        List.fold_left hoist_loop
          (Lang.Cfg.regs_of_codeheap ch, predecessors ch, ch)
          loops
      in
      ch

let pass = Pass.per_function "linv" transform
