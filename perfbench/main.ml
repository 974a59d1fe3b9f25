(* The repository benchmark: one workload per invocation.

     bash perfbench/run.sh --workload compile|chase|serve --seed N
                           --seconds S --trace 0|1

   Run from the repository root.  The last line of standard output is
   one JSON object: {"correct", "attempted", "failed", "metrics"}, with
   the end-to-end metrics when --trace is 0 and the per-layer metrics
   when it is 1.  The line before it records the host facts.  A traced
   run also writes its spans to .perfbench/<workload>.spans.jsonl.

   A run: prepare (references, untimed) → set up repeatedly (setup_s
   is the median) → the measured phase, which repeats the workload's
   unit of work for --seconds (run_s is the median iteration).  With
   --trace 1 the phase is split: an untraced half, whose median gives
   obs.trace_overhead_s, then a traced half, whose spans give the
   per-layer times. *)

module J = Cards_util.Json
module Wl = Perfbench.Workloads
module Span = Perfbench.Span
module Report = Perfbench.Report

let min_setup_reps = 5
let max_setup_reps = 1000
let min_iters = 3

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* ---------- host-speed calibration ---------- *)

(* The host's speed drifts by up to ~40 % over seconds, with other
   tenants of the machine: the same code's wall time varies that much
   from run to run.  So every timed unit is scaled to a reference host
   speed.  [kernel] is a fixed piece of work that runs no code of the
   repository (hashing, allocation, sorting, indirect calls); it is
   timed at most [recalibrate_s] before every unit and at the end of
   each phase, and a unit's seconds are multiplied by
   [reference_calibration_s] over the median kernel time within
   [window_s] of the unit.  The kernel runs on one domain even for
   [serve], whose two worker domains it tracks better that way than
   run on two.  A slower layer still reads slower in full; only the
   host's drift cancels.  The raw medians are in the host facts
   line. *)
let reference_calibration_s = 0.1
let recalibrate_s = 0.25
let window_s = 2.5

let ops = Array.init 64 (fun k x -> (x * (k + 3)) lxor (x lsr 3))

let kernel () =
  let t0 = Span.now () in
  let h = Hashtbl.create 1024 in
  for i = 0 to 150_000 do
    Hashtbl.replace h ((i * 7919) land 0xfffff) i
  done;
  let l = List.init 80_000 (fun i -> (i * 7919) land 0xffff) in
  let acc = ref 1 in
  for i = 0 to 4_000_000 do
    acc := ops.((i * 7) land 63) !acc
  done;
  ignore (Sys.opaque_identity (List.sort compare l, h, !acc));
  Span.now () -. t0

let calibrations = ref [] (* (midpoint, kernel seconds) *)
let last_calibration = ref neg_infinity

let calibrate () =
  let c = kernel () in
  let now = Span.now () in
  calibrations := (now -. (c /. 2.0), c) :: !calibrations;
  last_calibration := now

(* Calibrate if the last calibration is too old; true if it did. *)
let maybe_calibrate () =
  Span.now () -. !last_calibration >= recalibrate_s
  && (calibrate (); true)

(* A timed unit: when it ran, and its raw seconds. *)
type sample = { t0 : float; t1 : float; raw : float }

let timed f =
  let t0 = Span.now () in
  let v = f () in
  let t1 = Span.now () in
  (v, { t0; t1; raw = t1 -. t0 })

(* Seconds at the reference speed. *)
let scaled s =
  let near =
    List.filter_map
      (fun (t, c) ->
        if t >= s.t0 -. window_s && t <= s.t1 +. window_s then Some c else None)
      !calibrations
  in
  s.raw *. reference_calibration_s /. median near

(* Words allocated so far, minor and major, by every domain that is
   running or has been joined. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let median_of field samples = median (List.map field samples)
let speed samples = median (List.map (fun s -> scaled s /. s.raw) samples)

let usage () =
  prerr_endline
    "usage: main --workload compile|chase|serve --seed N --seconds S \
     --trace 0|1 [--small] [--domains D]";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref false and small = ref false and domains = ref 0 in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | "--small" :: rest -> small := true; parse rest
    | "--domains" :: d :: rest -> domains := int_of_string d; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload Wl.names) then usage ();
  let nproc = Domain.recommended_domain_count () in
  let domains =
    if !workload <> "serve" then 1
    else if !domains > 0 then !domains
    else min 2 nproc
  in
  let size = if !small then Wl.Small else Wl.Full in
  let w = Wl.make ~root:"." ~size ~seed:!seed ~domains !workload in
  let traced = !trace in
  let attempted = ref 0 and failed = ref 0 in
  w.prepare ~traced;
  (* Set-up, repeated for a tenth of the measured time (at most a
     second): it ranges from a fraction of a millisecond ([compile]
     only builds its corpus' source text) to a tenth of a second
     ([serve]), and a median over many repetitions keeps the short
     ones steady. *)
  let setup_budget = Float.min 1.0 (!seconds /. 10.0) in
  let setup_samples =
    let t_start = Span.now () in
    let rec go rep acc =
      if
        rep >= max_setup_reps
        || (rep >= min_setup_reps && Span.now () -. t_start >= setup_budget)
      then acc
      else begin
        if maybe_calibrate () || rep = 0 then Gc.compact ();
        Span.enabled := traced;
        Span.rid := rep;
        let (), s = timed (fun () -> Span.with_ "bench.setup" w.setup) in
        Span.enabled := false;
        go (rep + 1) (s :: acc)
      end
    in
    let samples = go 0 [] in
    calibrate ();
    samples
  in
  let setup_spans = Span.take () in
  (* The measured phase.  Each iteration starts from a compacted heap,
     so one iteration's garbage is not collected on the next one's
     time. *)
  let phase ~traced ~budget =
    let samples = ref [] and allocs = ref [] in
    let spans = ref [] and extra = ref [] in
    let t_start = Span.now () in
    let iters = ref 0 in
    while !iters < min_iters || Span.now () -. t_start < budget do
      ignore (maybe_calibrate ());
      Gc.compact ();
      Span.enabled := traced;
      Span.rid := !iters;
      let w0 = allocated_words () in
      (match
         timed (fun () ->
             Span.with_ "bench.iteration" (fun () -> w.iterate ~traced))
       with
       | (), s ->
         allocs := (allocated_words () -. w0) :: !allocs;
         samples := s :: !samples;
         spans := List.rev_append (Span.take ()) !spans;
         if traced then w.after_traced ();
         extra := List.rev_append (Span.take ()) !extra;
         Span.enabled := false;
         let a, f = w.check () in
         attempted := !attempted + a;
         failed := !failed + f
       | exception e ->
         Span.enabled := false;
         ignore (Span.take ());
         Printf.eprintf "perfbench: %s iteration %d failed: %s\n%!" w.name
           !iters (Printexc.to_string e);
         incr attempted;
         incr failed);
      incr iters
    done;
    calibrate ();
    (!samples, !allocs, List.rev !spans, List.rev !extra)
  in
  let untraced_budget = if traced then !seconds /. 2.0 else !seconds in
  let samples, allocs, _, _ = phase ~traced:false ~budget:untraced_budget in
  let alloc_mb = median allocs *. float_of_int (Sys.word_size / 8) /. 1e6 in
  let traced_run =
    if traced then Some (phase ~traced:true ~budget:(!seconds /. 2.0)) else None
  in
  let setup_s = median_of scaled setup_samples in
  let run_s = median_of scaled samples in
  let calibration_s = median (List.map snd !calibrations) in
  let stat = Gc.quick_stat () in
  let peak_heap_mb =
    float_of_int (stat.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let setup_reps = List.length setup_samples in
  let host =
    [ ("nproc", J.Int nproc); ("ocaml", J.Str Sys.ocaml_version);
      ("profile", J.Str Perfbench.Build_info.profile);
      ("domains", J.Int domains); ("setup_samples", J.Int setup_reps);
      ("run_samples", J.Int (List.length samples));
      ("traced_samples",
       J.Int (match traced_run with Some (s, _, _, _) -> List.length s | None -> 0));
      ("calibration_s", J.Float calibration_s);
      ("reference_calibration_s", J.Float reference_calibration_s);
      ("raw_setup_s", J.Float (median_of (fun s -> s.raw) setup_samples));
      ("raw_run_s", J.Float (median_of (fun s -> s.raw) samples));
      ("peak_heap_mb", J.Float peak_heap_mb) ]
  in
  let metrics =
    match traced_run with
    | None ->
      Report.conform Report.end_to_end
        ([ ("setup_s", setup_s, "s"); ("run_s", run_s, "s");
           ("alloc_mb", alloc_mb, "MB") ]
         @ w.counts ())
    | Some (tsamples, _, phase_spans, extra) ->
      let iters = List.length tsamples in
      (* Span and layer times are raw: scale them by their phase's
         median speed, like the end-to-end times.  Only the serve
         layer's spans come from set-up. *)
      let to_reference ~setup (n, v, u) =
        if u <> "s" then (n, v, u)
        else
          (n, v *. speed (if setup n then setup_samples else tsamples), u)
      in
      let layers = List.map (to_reference ~setup:(fun _ -> false)) (w.layers ()) in
      let spans =
        Report.span_metrics ~phase:phase_spans ~iters ~extra ~setup:setup_spans
          ~reps:setup_reps
        |> List.map
             (to_reference ~setup:(String.starts_with ~prefix:"serve."))
      in
      let get n l =
        List.fold_left (fun a (n', v, _) -> if n' = n then v else a) 0.0 l
      in
      let exec_s = get "interp.exec_s" spans in
      let derived =
        [ ("interp.minstr_per_s",
           (if exec_s > 0.0 then get "interp.instrs" layers /. exec_s /. 1e6
            else 0.0),
           "Minstr/s");
          ("obs.trace_overhead_s",
           median_of scaled tsamples -. run_s, "s");
          ("e2e.error_rate",
           float_of_int !failed /. float_of_int (max 1 !attempted), "ratio");
          ("host.nproc", float_of_int nproc, "count");
          ("host.domains", float_of_int domains, "count");
          ("host.run_samples", float_of_int (List.length samples), "count");
          ("host.setup_samples", float_of_int setup_reps, "count");
          ("host.calibration_s", calibration_s, "s");
          ("host.peak_heap_mb", peak_heap_mb, "MB") ]
      in
      (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
      Span.write_jsonl
        (Printf.sprintf ".perfbench/%s.spans.jsonl" w.name)
        (setup_spans @ phase_spans @ extra);
      Report.conform Report.per_layer (layers @ spans @ derived)
  in
  print_endline (J.to_string (J.Obj [ ("host", J.Obj host) ]));
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool (!failed = 0 && !attempted > 0));
            ("attempted", J.Int !attempted); ("failed", J.Int !failed);
            ("metrics",
             J.Obj
               (List.map
                  (fun (n, v, u) ->
                    (n, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ]))
                  metrics)) ]))
