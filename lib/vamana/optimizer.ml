let log_src = Logs.Src.create "vamana.optimizer" ~doc:"VAMANA cost-driven optimizer"

module Log = (val Logs.src_log log_src)

type trace_entry = {
  rule : string;
  target : string;
  cost_before : int;
  cost_after : int;
}

type iteration_stat = {
  duration : float;
  considered : int;
  rejected : int;
  property_rejected : int;
  accepted : string option;
}

type outcome = {
  plan : Plan.op;
  iterations : int;
  trace : trace_entry list;
  iteration_stats : iteration_stat list;
  cost : Cost.costed;
}

let max_iterations = 16

(* Each plan is walked once: a candidate's table, computed to admit it,
   is the next iteration's table and, at the fixpoint, the outcome's. *)
let optimize ?(rules = Rewrite.cost_rules) ?stats store ~scope plan =
  let estimate plan = Cost.estimate ?stats store ~scope plan in
  let rec loop plan costed iterations trace stats_acc =
    if iterations >= max_iterations then finish plan costed iterations trace stats_acc
    else begin
      let t0 = Obs.clock () in
      let considered = ref 0 and rejected = ref 0 and property_rejected = ref 0 in
      let current_cost = Cost.total_output costed plan in
      let ordered = Cost.ordered_by_selectivity costed plan in
      let sig_before = Analysis.signature_of costed plan in
      (* most selective operator first; first admissible rewrite wins *)
      let candidate =
        List.fold_left
          (fun acc ((op : Plan.op), _) ->
            match acc with
            | Some _ -> acc
            | None ->
                List.fold_left
                  (fun acc (rule : Rewrite.rule) ->
                    match acc with
                    | Some _ -> acc
                    | None -> (
                        match rule.Rewrite.apply plan ~target:op.Plan.id with
                        | None -> None
                        | Some plan' ->
                            incr considered;
                            let plan' = Rewrite.apply_cleanup plan' in
                            let costed' = estimate plan' in
                            let cost' = Cost.total_output costed' plan' in
                            if cost' <= current_cost then begin
                              (* cost admits the rewrite; semantics must
                                 agree too — a rule that changes the
                                 plan's rewrite signature is buggy no
                                 matter how cheap its plan looks *)
                              match
                                Analysis.check_rewrite
                                  ~before:sig_before
                                  ~after:(Analysis.signature_of costed' plan')
                                  ~after_errors:(Analysis.structural_diagnostics plan')
                              with
                              | Error reason ->
                                  incr property_rejected;
                                  if Obs.active () then
                                    Obs.emit ~severity:Obs.Warn ~category:"optimizer"
                                      "rule_property_violation"
                                      [ ("rule", Obs.Str rule.Rewrite.name);
                                        ("target", Obs.Str (Plan.kind_to_string op));
                                        ("reason", Obs.Str reason) ];
                                  Log.warn (fun m ->
                                      m "rejected %s at %s: %s" rule.Rewrite.name
                                        (Plan.kind_to_string op) reason);
                                  None
                              | Ok () ->
                                  if Obs.active () then
                                    Obs.emit ~category:"optimizer" "rule_accepted"
                                      [ ("rule", Obs.Str rule.Rewrite.name);
                                        ("target", Obs.Str (Plan.kind_to_string op));
                                        ("cost_before", Obs.Int current_cost);
                                        ("cost_after", Obs.Int cost') ];
                                  Some
                                    ( plan',
                                      costed',
                                      { rule = rule.Rewrite.name;
                                        target = Plan.kind_to_string op;
                                        cost_before = current_cost;
                                        cost_after = cost' } )
                            end
                            else begin
                              incr rejected;
                              if Obs.active () then
                                Obs.emit ~severity:Obs.Debug ~category:"optimizer"
                                  "rule_rejected"
                                  [ ("rule", Obs.Str rule.Rewrite.name);
                                    ("target", Obs.Str (Plan.kind_to_string op));
                                    ("cost_before", Obs.Int current_cost);
                                    ("cost_after", Obs.Int cost') ];
                              None
                            end))
                  None rules)
          None ordered
      in
      let stat accepted =
        { duration = Obs.clock () -. t0;
          considered = !considered;
          rejected = !rejected;
          property_rejected = !property_rejected;
          accepted }
      in
      match candidate with
      | Some (plan', costed', entry) ->
          Log.debug (fun m ->
              m "applied %s at %s: cost %d -> %d" entry.rule entry.target entry.cost_before
                entry.cost_after);
          loop plan' costed' (iterations + 1) (entry :: trace)
            (stat (Some entry.rule) :: stats_acc)
      | None -> finish plan costed iterations trace (stat None :: stats_acc)
    end
  and finish plan cost iterations trace stats_acc =
    { plan; iterations; trace = List.rev trace; iteration_stats = List.rev stats_acc; cost }
  in
  let plan = Rewrite.apply_cleanup plan in
  loop plan (estimate plan) 0 [] []
