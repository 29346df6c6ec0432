module TidMap = Ps.Machine.TidMap

type discipline = Interleaving | Non_preemptive

module Node = struct
  type t = {
    world : Ps.Machine.world;
    bit : bool;
    promised : int TidMap.t;
    (* Memoized structural hash, 0 = not yet computed.  Hashing a node
       walks the entire world (every thread's views plus the whole
       memory), so it is far too expensive to redo on every table
       probe — and published cache entries carry their hash to the
       absorbing domain for free.  The unsynchronized write is benign:
       every racing writer stores the same value. *)
    mutable hv : int;
  }

  let make ~world ~bit ~promised = { world; bit; promised; hv = 0 }

  let compare a b =
    let c = Ps.Machine.compare a.world b.world in
    if c <> 0 then c
    else
      let c = Bool.compare a.bit b.bit in
      if c <> 0 then c else TidMap.compare Int.compare a.promised b.promised

  let equal a b = a == b || compare a b = 0

  let hash n =
    if n.hv <> 0 then n.hv
    else begin
      let promised =
        TidMap.fold
          (fun tid k h -> Rat.hash_combine (Rat.hash_combine h tid) k)
          n.promised 0x6e6f
      in
      let h =
        Rat.hash_combine
          (Rat.hash_combine (Ps.Machine.hash n.world) (Bool.to_int n.bit))
          promised
      in
      let h = if h = 0 then 0x6e6f else h in
      n.hv <- h;
      h
    end
end

type kind = Thread_step | Promise_step | Reservation_step | Switch_step

type succ = {
  kind : kind;
  choice : int;
  tid : int;
  event : Ps.Event.te option;
  state : Node.t;
}

let emit s = match s.event with Some (Ps.Event.Out v) -> Some v | _ -> None

type hooks = {
  consistent : Ps.Thread.ts -> Ps.Memory.t -> bool;
  candidates :
    Ps.Thread.ts -> Ps.Memory.t -> (Lang.Ast.var * Lang.Ast.value) list;
}

let plain ~config ~program =
  let code = program.Lang.Ast.code in
  let fuel = config.Config.cert_fuel in
  {
    consistent =
      (fun ts mem ->
        Ps.Cert.consistent ~fuel ~cap:config.Config.cap_certification ~code ts
          mem);
    candidates =
      (fun ts mem ->
        match config.Config.promise_mode with
        | Config.No_promises -> []
        | Config.Syntactic -> Ps.Thread.writes_in_code ~code ts
        | Config.Semantic -> Ps.Cert.certifiable_writes ~fuel ~code ts mem);
  }

let init p =
  Result.map
    (fun world -> Node.make ~world ~bit:true ~promised:TidMap.empty)
    (Ps.Machine.init p)

let committed_stats ~config ~program (n : Node.t) =
  Ps.Cert.consistent_stats ~fuel:config.Config.cert_fuel
    ~cap:config.Config.cap_certification ~code:program.Lang.Ast.code
    (Ps.Machine.cur_ts n.world) n.world.Ps.Machine.mem

let spent (n : Node.t) =
  match TidMap.find_opt n.world.Ps.Machine.cur n.promised with
  | Some k -> k
  | None -> 0

(* [reduction.bound_promises] overrides [max_promises]: the
   bounded-promise mode is exhaustive for the bound. *)
let max_promises (config : Config.t) =
  match config.Config.reduction.Config.bound_promises with
  | Some k -> k
  | None -> config.Config.max_promises

(* Promise and reserve steps need the switch bit on (Fig. 10's first
   rule); a finished thread has nothing left to promise. *)
let may_promise discipline (n : Node.t) =
  (match discipline with Interleaving -> true | Non_preemptive -> n.bit)
  && not (Ps.Local.is_finished (Ps.Machine.cur_ts n.world).Ps.Thread.local)

let promise_spent ~config discipline n =
  may_promise discipline n && spent n >= max_promises config

let bit_after discipline (n : Node.t) te =
  match discipline with
  | Interleaving -> Some true
  | Non_preemptive -> Npsem.bit_after te ~before:n.bit

(* Outputs only from configurations where the thread is consistent. *)
let output_ok ~committed (s : Ps.Thread.step) =
  match s.Ps.Thread.event with
  | Ps.Event.Out _ -> Lazy.force committed
  | _ -> true

let all _ = true

(* The thread-level [steps] of the current thread that [keep], the
   discipline and the output gate allow, as successors of [kind];
   [choice] is the position in [steps]. *)
let lift_steps discipline ~committed (n : Node.t) kind ~promised ~keep steps =
  let cur = n.world.Ps.Machine.cur in
  let rec go i acc = function
    | [] -> List.rev acc
    | (s : Ps.Thread.step) :: rest ->
        let acc =
          match bit_after discipline n s.Ps.Thread.event with
          | Some bit when keep s && output_ok ~committed s ->
              let world =
                Ps.Machine.set_cur_ts n.world s.Ps.Thread.ts s.Ps.Thread.mem
              in
              {
                kind;
                choice = i;
                tid = cur;
                event = Some s.Ps.Thread.event;
                state = Node.make ~world ~bit ~promised;
              }
              :: acc
          | _ -> acc
        in
        go (i + 1) acc rest
  in
  go 0 [] steps

let local_successors hooks ~config ~discipline ~program ~committed
    (n : Node.t) =
  let ts = Ps.Machine.cur_ts n.world in
  let mem = n.world.Ps.Machine.mem in
  let lift = lift_steps discipline ~committed n in
  let regular =
    lift Thread_step ~promised:n.promised ~keep:all
      (Ps.Thread.steps ~code:program.Lang.Ast.code ts mem)
  in
  let promises =
    let k = spent n in
    if not (may_promise discipline n && k < max_promises config) then []
    else
      (* A promise must remain certifiable with the chosen slot;
         pruning inconsistent promise placements is sound because a τ
         machine step must end consistent. *)
      lift Promise_step
        ~promised:(TidMap.add n.world.Ps.Machine.cur (k + 1) n.promised)
        ~keep:(fun s -> hooks.consistent s.Ps.Thread.ts s.Ps.Thread.mem)
        (Ps.Thread.promise_steps ~candidates:(hooks.candidates ts mem)
           ~atomics:program.Lang.Ast.atomics ts mem)
  in
  let reservations =
    if not config.Config.reservations then []
    else
      (* One outstanding reservation per thread: reserve/cancel cycles
         otherwise defeat memoization (every cycle member is
         taint-excluded) and blow up the search. *)
      let reserve =
        (match discipline with Interleaving -> true | Non_preemptive -> n.bit)
        && List.for_all
             (fun m -> not (Ps.Message.is_reservation m))
             ts.Ps.Thread.prm
      in
      lift Reservation_step ~promised:n.promised ~keep:all
        ((if reserve then Ps.Thread.reserve_steps ts mem else [])
        @ Ps.Thread.cancel_steps ts mem)
  in
  match (promises, reservations) with
  | [], [] -> regular
  | _ -> regular @ promises @ reservations

let switch_successors ~discipline ~committed (n : Node.t) =
  let wd = n.world in
  let may =
    (match discipline with
    | Interleaving -> true
    | Non_preemptive ->
        (* The switch bit guards blocks of non-atomic accesses; a
           finished thread has no block in progress, so the machine
           may always move on from it. *)
        n.bit || Ps.Local.is_finished (Ps.Machine.cur_ts wd).Ps.Thread.local)
    && Lazy.force committed
  in
  if not may then []
  else
    TidMap.fold
      (fun tid ts' acc ->
        if
          tid <> wd.Ps.Machine.cur
          && not (Ps.Local.is_finished ts'.Ps.Thread.local)
        then
          {
            kind = Switch_step;
            choice = tid;
            tid;
            event = None;
            state =
              Node.make ~world:(Ps.Machine.switch wd tid) ~bit:true
                ~promised:n.promised;
          }
          :: acc
        else acc)
      wd.Ps.Machine.tp []
    |> List.rev

let successors ?hooks ~config ~discipline ~program (n : Node.t) =
  let hooks =
    match hooks with Some h -> h | None -> plain ~config ~program
  in
  let committed =
    lazy
      (hooks.consistent (Ps.Machine.cur_ts n.world) n.world.Ps.Machine.mem)
  in
  let local =
    local_successors hooks ~config ~discipline ~program ~committed n
  in
  match switch_successors ~discipline ~committed n with
  | [] -> local
  | sw -> local @ sw

let apply ~config ~discipline ~program n kind ~choice =
  List.find_opt
    (fun s -> s.kind = kind && s.choice = choice)
    (successors ~config ~discipline ~program n)

let drive ~config ~discipline ~program schedule =
  match init program with
  | Error _ -> None
  | Ok n0 ->
      let exception Done of succ list in
      (* Backtracking over the successor enumeration: several distinct
         machine steps can carry the same (tid, event) label — e.g.
         two readable messages with the same value — so the first
         matching candidate is not necessarily the one that lets the
         rest of the schedule complete. *)
      let rec go (n : Node.t) schedule acc =
        match schedule with
        | [] ->
            if Ps.Machine.terminal n.world then raise (Done (List.rev acc))
        | (tid, ev) :: rest ->
            let succs = successors ~config ~discipline ~program n in
            if tid = n.world.Ps.Machine.cur then
              List.iter
                (fun s ->
                  match s.event with
                  | Some e when Ps.Event.equal_te e ev ->
                      go s.state rest (s :: acc)
                  | _ -> ())
                succs
            else
              (* Insert the context switch the schedule implies.  At
                 most one switch successor targets [tid], and after it
                 the thread is current, so this cannot loop. *)
              List.iter
                (fun s ->
                  if s.kind = Switch_step && s.tid = tid then
                    go s.state schedule (s :: acc))
                succs
      in
      (try
         go n0 schedule [];
         None
       with Done trail -> Some (n0, trail))

let trail_states n0 trail = n0 :: List.map (fun s -> s.state) trail
