let bit_after te ~before =
  match Ps.Event.classify te with
  | Ps.Event.NA -> Some false
  | Ps.Event.AT -> Some true
  | Ps.Event.PRC -> (
      match te with
      | Ps.Event.Ccl -> Some before
      | _ -> if before then Some true else None)
