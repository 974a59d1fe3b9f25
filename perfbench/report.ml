(* Metric names and units, and the per-layer metrics derived from spans.

   These two lists are the benchmark's schema: BENCHMARK.json names the
   same metrics, and the test checks every run reports each of them
   with its unit.  A per-layer metric a workload does not exercise
   reads 0 (e.g. [net.fetches] on [compile]). *)

let end_to_end =
  [ ("setup_s", "s"); ("run_s", "s"); ("alloc_mb", "MB");
    ("static_guards", "count"); ("code_instrs", "count") ]

let runtime_layer =
  [ ("runtime.guards", "count"); ("runtime.guard_hit_ratio", "ratio");
    ("runtime.compute_mcycles", "Mcycles");
    ("runtime.stall_guard_mcycles", "Mcycles");
    ("runtime.remote_faults", "count"); ("runtime.clean_faults", "count");
    ("runtime.evictions", "count"); ("runtime.prefetch_issued", "count");
    ("runtime.prefetch_accuracy", "ratio"); ("runtime.prefetch_late", "count");
    ("runtime.stall_pf_wait_mcycles", "Mcycles");
    ("runtime.stall_trap_mcycles", "Mcycles");
    ("runtime.stall_alloc_mcycles", "Mcycles"); ("runtime.retries", "count");
    ("runtime.degrade_steps", "count");
    ("runtime.stall_retry_mcycles", "Mcycles"); ("net.fetches", "count");
    ("net.fetched_mb", "MB"); ("net.batches", "count");
    ("net.batch_fill", "objects"); ("net.writebacks", "count");
    ("net.wb_batches", "count"); ("net.queue_out_mcycles", "Mcycles");
    ("net.faults_injected", "count"); ("net.reliable_fetches", "count");
    ("net.stall_proto_mcycles", "Mcycles");
    ("net.stall_wire_mcycles", "Mcycles");
    ("net.stall_queue_mcycles", "Mcycles") ]

let traced_layers =
  [ "ir"; "analysis"; "transform"; "core"; "interp"; "runtime"; "par" ]

let per_layer =
  [ ("ir.frontend_s", "s"); ("ir.instrs", "count");
    ("analysis.dsa_s", "s"); ("analysis.dsa_calls", "count");
    ("transform.pool_alloc_s", "s"); ("transform.guards_s", "s");
    ("transform.guard_elim_s", "s"); ("transform.versioning_s", "s");
    ("transform.factorize_s", "s"); ("transform.guards_removed", "count");
    ("transform.versioned_loops", "count"); ("core.compile_s", "s");
    ("interp.session_s", "s"); ("interp.exec_s", "s");
    ("interp.plain_exec_s", "s"); ("interp.instrs", "count");
    ("interp.minstr_per_s", "Minstr/s"); ("runtime.far_overhead_s", "s") ]
  @ runtime_layer
  @ [ ("serve.prepare_s", "s"); ("serve.build_s", "s");
      ("serve.alloc_mw", "Mw"); ("serve.rounds", "count");
      ("serve.busy_mcycles", "Mcycles"); ("serve.idle_mcycles", "Mcycles");
      ("serve.wait_mcycles", "Mcycles"); ("serve.stall_mcycles", "Mcycles");
      ("serve.forfeited_kcycles", "kcycles");
      ("serve.faulty_degrade_level", "count"); ("serve.pinned_kb", "KB");
      ("par.run_s", "s"); ("par.cpu_s", "s"); ("par.busy_ratio", "ratio");
      ("par.domains", "count") ]
  @ List.concat_map
      (fun l -> [ (l ^ ".self_s", "s"); (l ^ ".alloc_mw", "Mw") ])
      traced_layers
  @ [ ("obs.trace_overhead_s", "s"); ("obs.unaccounted_s", "s");
      ("obs.accounted_ratio", "ratio"); ("obs.spans", "count");
      ("e2e.sim_mcycles", "Mcycles"); ("e2e.fetched_mb", "MB");
      ("e2e.error_rate", "ratio"); ("e2e.sim_p50_kcycles", "kcycles");
      ("e2e.sim_p99_kcycles", "kcycles");
      ("e2e.sim_healthy_p99_kcycles", "kcycles");
      ("e2e.latency_samples", "count");
      ("e2e.healthy_latency_samples", "count");
      ("e2e.sim_capacity_rpmc", "req/Mcycle"); ("host.nproc", "count");
      ("host.domains", "count"); ("host.run_samples", "count");
      ("host.setup_samples", "count"); ("host.calibration_s", "s");
      ("host.peak_heap_mb", "MB") ]

(* Metrics from the traced run's spans.  [phase] holds the measured
   phase's spans ([iters] iterations, each under a "bench.iteration"
   root), [extra] those of the untimed calls made after each iteration,
   and [setup] those of the setup repetitions ([reps] of them). *)
let span_metrics ~phase ~iters ~extra ~setup ~reps =
  let per_iter x = x /. float_of_int (max 1 iters) in
  let per_rep x = x /. float_of_int (max 1 reps) in
  let name = Span.by_name phase and layer = Span.by_layer phase in
  let total n = per_iter (name n).Span.total_s in
  let setup_name = Span.by_name setup in
  let exec_s = total "interp.exec" in
  let plain_s = per_iter (Span.by_name extra "interp.plain_exec").total_s in
  let iteration = (name "bench.iteration").Span.total_s in
  let accounted =
    List.fold_left (fun a l -> a +. (layer l).Span.self_s) 0.0 traced_layers
  in
  [ ("ir.frontend_s", total "ir.frontend", "s");
    ("analysis.dsa_s", total "analysis.dsa", "s");
    ("analysis.dsa_calls", per_iter (float_of_int (name "analysis.dsa").calls),
     "count");
    ("transform.pool_alloc_s", total "transform.pool_alloc", "s");
    ("transform.guards_s", total "transform.guards", "s");
    ("transform.guard_elim_s", total "transform.guard_elim", "s");
    ("transform.versioning_s", total "transform.versioning", "s");
    ("transform.factorize_s", total "transform.factorize", "s");
    ("core.compile_s", total "core.compile", "s");
    ("interp.session_s", total "interp.session", "s");
    ("interp.exec_s", exec_s, "s");
    ("interp.plain_exec_s", plain_s, "s");
    (* Derived from two timed calls, not measured inside the runtime:
       the far-memory run minus the guard-free all-local run of the
       same program. *)
    ("runtime.far_overhead_s",
     (if plain_s > 0.0 then exec_s -. plain_s else 0.0), "s");
    ("serve.prepare_s", per_rep (setup_name "serve.prepare").total_s, "s");
    ("serve.build_s", per_rep (setup_name "serve.build").total_s, "s");
    ("serve.alloc_mw", per_rep ((Span.by_layer setup) "serve").self_w /. 1e6,
     "Mw");
    ("obs.unaccounted_s", per_iter (layer "bench").self_s, "s");
    ("obs.accounted_ratio",
     (if iteration > 0.0 then accounted /. iteration else 0.0), "ratio");
    ("obs.spans",
     per_iter (float_of_int (List.length phase)), "count") ]
  @ List.concat_map
      (fun l ->
        [ (l ^ ".self_s", per_iter (layer l).self_s, "s");
          (l ^ ".alloc_mw", per_iter (layer l).self_w /. 1e6, "Mw") ])
      traced_layers

(* Order [metrics] by [schema], filling metrics nobody reported with 0.
   A reported name or unit the schema does not list is a bug here, so
   it fails loudly. *)
let conform schema (metrics : (string * float * string) list) =
  List.iter
    (fun (n, _, u) ->
      match List.assoc_opt n schema with
      | Some u' when u' = u -> ()
      | Some u' -> failwith (Printf.sprintf "metric %s: unit %s, schema %s" n u u')
      | None -> failwith ("metric not in schema: " ^ n))
    metrics;
  List.map
    (fun (n, u) ->
      let v =
        List.fold_left
          (fun acc (n', v, _) -> if n' = n then v else acc)
          0.0 metrics
      in
      (n, v, u))
    schema
