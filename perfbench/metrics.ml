(* Metric names and units, in the order they are printed.  They must
   equal BENCHMARK.json's lists (checked by [run.py --self-test]). *)

let end_to_end =
  [
    ("setup_s", "s");
    ("requests_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

let passes = List.map (fun (r : Sim.Verif.registered) -> r.name) Sim.Verif.registry

(* Times ending in [_ms]/[_us] are self time per request; plain counts
   are per request unless the name says otherwise. *)
let per_layer =
  [
    ("lang.parse_ms", "ms"); ("lang.print_ms", "ms"); ("lang.parse_mb_per_s", "MB/s");
  ]
  @ List.map (fun p -> ("opt." ^ p ^ "_ms", "ms")) passes
  @ [
      ("opt.instrs_after", "count");
      ("race.ww_rf_ms", "ms"); ("race.states", "count");
      ("sim.simcheck_ms", "ms"); ("sim.holds_pct", "%");
      ("explore.refine_ms", "ms"); ("explore.behaviors_ms", "ms");
      ("explore.nodes", "count"); ("explore.nodes_per_s", "1/s");
      ("explore.transitions_per_node", "count"); ("explore.memo_hit_pct", "%");
      ("explore.memo_size", "count"); ("explore.alloc_words_per_node", "words");
      ("explore.reduction_factor", "x"); ("explore.symmetry_folds", "count");
      ("explore.persistent_prunes", "count"); ("explore.sleep_prunes", "count");
      ("ps.cert_checks", "count"); ("ps.cert_runs", "count");
      ("ps.cert_cache_hit_pct", "%"); ("ps.cert_trivial_pct", "%");
      ("ps.cand_cache_hits", "count");
      ("litmus.check_ms", "ms");
      ("replay.witness_ms", "ms"); ("replay.record_ms", "ms");
      ("replay.session_load_ms", "ms"); ("replay.step_ms", "ms"); ("replay.steps", "count");
      ("gc.minor_collections", "count"); ("gc.major_collections", "count");
      ("gc.alloc_words_per_req", "words"); ("gc.promoted_pct", "%"); ("gc.top_heap_mb", "MB");
      ("service.rpc_warm_ms", "ms"); ("service.rpc_cold_ms", "ms");
      ("service.warm_p50_ms", "ms"); ("service.warm_p99_ms", "ms");
      ("service.cold_p50_ms", "ms"); ("service.cold_p90_ms", "ms");
      ("service.knee_rps", "1/s");
      ("service.proto_encode_us", "us"); ("service.proto_decode_us", "us");
      ("service.store_find_us", "us"); ("service.store_put_us", "us");
      ("service.compute_ms", "ms"); ("service.wait_ms", "ms");
      ("service.hit_pct", "%"); ("service.shed_pct", "%"); ("service.busy_pct", "%");
      ("loadgen.late_pct", "%"); ("loadgen.max_lag_ms", "ms");
      ("trace.overhead_pct", "%"); ("trace.uncovered_pct", "%");
    ]

let fmt v = if Float.is_finite v then Printf.sprintf "%.10g" v else "0"

(* The result line: every metric of [names], 0 for a layer the
   workload leaves idle. *)
let result_line ~correct ~attempted ~failed names values =
  let m =
    List.map
      (fun (n, u) ->
        let v = Option.value ~default:0. (List.assoc_opt n values) in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (fmt v) u)
      names
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
