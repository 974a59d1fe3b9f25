type t = {
  trace : Trace.t option;
  metrics : Metrics.t option;
  spans : Span.collector option;
  reporter : Reporter.t;
  tracing : bool;
  sampling : bool;
  mutable pm_armed : bool;
}

let null =
  { trace = None;
    metrics = None;
    spans = None;
    reporter = Reporter.null;
    tracing = false;
    sampling = false;
    pm_armed = false }

let create ?trace_capacity ?metrics_interval ?span_rate ?(postmortem = false)
    ?(reporter = Reporter.null) () =
  let trace = Option.map (fun capacity -> Trace.create ~capacity) trace_capacity in
  let metrics =
    Option.map (fun interval -> Metrics.create ~interval ()) metrics_interval
  in
  (* The post-mortem reads the collector: [postmortem] without an
     explicit rate records everything. *)
  let spans =
    if span_rate <> None || postmortem then Some (Span.create ?rate:span_rate ())
    else None
  in
  { trace;
    metrics;
    spans;
    reporter;
    tracing = trace <> None;
    sampling = metrics <> None;
    pm_armed = postmortem }

let tracing t = t.tracing

let sampling t = t.sampling

let emit t ev =
  match t.trace with
  | Some tr -> Trace.add tr ev
  | None -> ()

let metrics_due t ~now =
  match t.metrics with
  | Some m -> Metrics.due m ~now
  | None -> false

let trace t = t.trace

let metrics t = t.metrics

let spans t = t.spans

let reporter t = t.reporter

let take_postmortem t =
  t.pm_armed
  &&
  (t.pm_armed <- false;
   true)
