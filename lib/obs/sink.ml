type t = {
  trace : Trace.t option;
  metrics : Metrics.t option;
  spans : Span.collector option;
  recorder : Recorder.t option;
  reporter : Reporter.t;
  tracing : bool;
  sampling : bool;
  mutable pm_armed : bool;
}

let null =
  { trace = None;
    metrics = None;
    spans = None;
    recorder = None;
    reporter = Reporter.null;
    tracing = false;
    sampling = false;
    pm_armed = false }

let create ?trace_capacity ?metrics_interval ?span_rate ?recorder_capacity
    ?(postmortem = false) ?(reporter = Reporter.null) () =
  let trace = Option.map (fun capacity -> Trace.create ~capacity) trace_capacity in
  let metrics =
    Option.map (fun interval -> Metrics.create ~interval ()) metrics_interval
  in
  (* The recorder implies spans: it is fed by the collector's listener.
     [--postmortem] without an explicit rate records everything. *)
  let want_recorder = postmortem || recorder_capacity <> None in
  let spans =
    if span_rate <> None || want_recorder then
      Some (Span.create ?rate:span_rate ())
    else None
  in
  let recorder =
    if want_recorder then Some (Recorder.create ?capacity:recorder_capacity ())
    else None
  in
  (match (spans, recorder) with
  | Some c, Some r -> Span.set_listener c (Recorder.add r)
  | _ -> ());
  { trace;
    metrics;
    spans;
    recorder;
    reporter;
    tracing = trace <> None;
    sampling = metrics <> None;
    pm_armed = postmortem && recorder <> None }

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

let recorder t = t.recorder

let reporter t = t.reporter

let take_postmortem t =
  t.pm_armed
  &&
  (t.pm_armed <- false;
   true)
