type run_result = {
  trace : Ps.Event.trace;
  steps : int;
  final : Ps.Machine.world;
}

(* Promise-free: the walk samples executions, not weak behaviours. *)
let config = { Config.default with Config.promise_mode = Config.No_promises }

let run ?(seed = 0) ?(max_steps = 10_000) (p : Lang.Ast.program) =
  match Stepper.init p with
  | Error e -> Error e
  | Ok n0 ->
      let rng = Random.State.make [| seed |] in
      let hooks = Stepper.plain ~config ~program:p in
      let rec go (n : Stepper.Node.t) steps outs =
        let finish ending steps =
          let trace = { Ps.Event.outs = List.rev outs; ending } in
          Ok { trace; steps; final = n.Stepper.Node.world }
        in
        if steps >= max_steps then finish Ps.Event.Cut steps
        else if Ps.Machine.terminal n.Stepper.Node.world then
          finish Ps.Event.Done (steps + 1)
        else
          match
            Stepper.successors ~hooks ~config
              ~discipline:Stepper.Interleaving ~program:p n
          with
          | [] -> finish Ps.Event.Open (steps + 1)
          | succs ->
              let s =
                List.nth succs (Random.State.int rng (List.length succs))
              in
              let outs =
                match Stepper.emit s with Some v -> v :: outs | None -> outs
              in
              go s.Stepper.state (steps + 1) outs
      in
      go n0 0 []

let run_exn ?seed ?max_steps p =
  match run ?seed ?max_steps p with
  | Ok r -> r
  | Error e -> raise (Errors.Error (Errors.Ill_formed e))

let sample ?(seed = 0) ?max_steps ~runs p =
  let tbl = Hashtbl.create 16 in
  for i = 0 to runs - 1 do
    let r = run_exn ~seed:(seed + i) ?max_steps p in
    if r.trace.Ps.Event.ending = Ps.Event.Done then
      let outs = r.trace.Ps.Event.outs in
      Hashtbl.replace tbl outs
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl outs))
  done;
  Hashtbl.fold (fun outs n acc -> (outs, n) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
