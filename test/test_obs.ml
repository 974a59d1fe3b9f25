(* Tests for the observability layer: the event ring, the
   cycle-attribution profiler's exactness invariant, epoch metrics,
   the exporters, and — critically — that observability never perturbs
   simulated time. *)

module O = Cards_obs
module R = Cards_runtime
module P = Cards.Pipeline
module W = Cards_workloads
module J = Cards_util.Json

let check = Alcotest.check

(* A pointer-chase under memory pressure: remote faults, queueing,
   prefetches and evictions all occur, so every bucket and event kind
   is exercised. *)
let chase =
  lazy
    (P.compile_source
       (W.Pointer_chase.source ~variant:"list" ~scale:2048 ~passes:2))

let pressure_cfg =
  { R.Runtime.default_config with
    policy = R.Policy.All_remotable;
    k = 0.0;
    local_bytes = 256 * 1024;
    remotable_bytes = 64 * 1024 }

let full_sink () =
  O.Sink.create ~trace_capacity:200_000 ~metrics_interval:100_000 ()

(* ---------- cycle attribution ---------- *)

let test_attribution_sums_to_total () =
  let res, rt = P.run (Lazy.force chase) pressure_cfg in
  let prof = R.Runtime.profile rt in
  check Alcotest.int "compute + Σ wall buckets = total cycles" res.cycles
    (O.Profile.attributed prof);
  (* The identity must not be vacuous: the run really faulted and the
     fault cycles really landed in per-structure buckets. *)
  let tot = R.Rt_stats.total (R.Runtime.stats rt) in
  check Alcotest.bool "remote faults occurred" true (tot.remote_faults > 0);
  let demand =
    List.fold_left
      (fun acc h ->
        let b = O.Profile.buckets prof h in
        acc + b.O.Profile.p_demand + b.O.Profile.p_queue)
      0 (O.Profile.handles prof)
  in
  check Alcotest.bool "demand/queue buckets non-empty" true (demand > 0);
  check Alcotest.bool "compute bucket non-empty" true
    (O.Profile.compute prof > 0);
  (* Fetch latencies were recorded for the faults. *)
  let hist_total = Array.fold_left ( + ) 0 (O.Profile.merged_hist prof) in
  check Alcotest.bool "latency histogram populated" true (hist_total > 0)

let test_attribution_all_pinned_is_pure_compute_and_alloc () =
  (* Everything pinned: no guards survive versioning's clean loops, no
     faults — attribution still balances, via compute + alloc alone. *)
  let res, rt = P.run (Lazy.force chase) R.Runtime.default_config in
  let prof = R.Runtime.profile rt in
  check Alcotest.int "attributed = total" res.cycles
    (O.Profile.attributed prof);
  List.iter
    (fun h ->
      let b = O.Profile.buckets prof h in
      check Alcotest.int "no demand stall when pinned" 0 b.O.Profile.p_demand;
      check Alcotest.int "no queueing when pinned" 0 b.O.Profile.p_queue)
    (O.Profile.handles prof)

(* ---------- golden --profile tables ---------- *)

(* Test data lives in the source tree: dune runs the suite from
   _build/default/test with its declared deps copied alongside, a
   direct invocation runs from the repository root. *)
let project_file rel =
  let from_test_dir = Filename.concat Filename.parent_dir_name rel in
  if Sys.file_exists from_test_dir then from_test_dir else rel

(* The two --profile tables for one faulting run: listing1 with every
   structure remotable in a 256 KiB / 64 KiB memory split and a 10%
   per-transfer fault rate ([cards run examples/minic/listing1.mc
   --policy all-remotable --local 256K --remotable 64K --fault-rate 0.1
   --profile]). *)
let profile_tables_listing1_faulty () =
  let src =
    In_channel.with_open_bin (project_file "examples/minic/listing1.mc")
      In_channel.input_all
  in
  let cfg =
    { R.Runtime.default_config with
      policy = R.Policy.All_remotable;
      local_bytes = 256 * 1024;
      remotable_bytes = 64 * 1024;
      fabric_config =
        { R.Runtime.default_config.fabric_config with
          Cards_net.Fabric.faults =
            { Cards_net.Fabric.no_faults with fault_rate = 0.1 } } }
  in
  let res, rt = P.run (P.compile_source src) cfg in
  let names = R.Runtime.ds_name rt in
  Cards_util.Table.render
    (O.Export.profile_table ~names ~total:res.cycles (R.Runtime.profile rt))
  ^ "\n"
  ^ Cards_util.Table.render
      (O.Export.attribution_table ~names (R.Runtime.attribution rt))

(* Pins both tables' content byte for byte: every bucket, every cause
   column and every row of a faulting run. *)
let test_profile_tables_golden () =
  let golden =
    In_channel.with_open_bin
      (project_file "test/golden/profile_listing1_faulty.txt")
      In_channel.input_all
  in
  check Alcotest.string "profile + attribution tables" golden
    (profile_tables_listing1_faulty ())

(* ---------- golden exporter output ---------- *)

(* Two small faulting Pointer_chase runs whose exports are pinned byte
   for byte: every structure remotable in a 16 KiB / 4 KiB memory
   split, a 20% per-transfer fault rate and a single retry before the
   reliable channel.  The map chase records demand, escalated, retry,
   prefetch, batch/member, pf-settle and pf-hit spans; the vector
   chase adds clean-fault traps and their trap-fetch children.  The
   event ring is large enough to hold every event of both runs. *)
let golden_exports ~variant ~scale =
  let cfg =
    { R.Runtime.default_config with
      policy = R.Policy.All_remotable;
      k = 0.0;
      local_bytes = 16 * 1024;
      remotable_bytes = 4 * 1024;
      retry_max = 1;
      fabric_config =
        { R.Runtime.default_config.fabric_config with
          Cards_net.Fabric.faults =
            { Cards_net.Fabric.no_faults with fault_rate = 0.2 } } }
  in
  let obs = O.Sink.create ~trace_capacity:100_000 ~span_rate:1.0 () in
  let _, rt =
    P.run ~obs
      (P.compile_source (W.Pointer_chase.source ~variant ~scale ~passes:2))
      cfg
  in
  let names = R.Runtime.ds_name rt in
  let tr = Option.get (O.Sink.trace obs) in
  let c = Option.get (O.Sink.spans obs) in
  List.map
    (fun (ext, contents) -> (Printf.sprintf "%s_faulty.%s" variant ext, contents))
    [ ("events.jsonl", O.Export.events_jsonl tr);
      ("events.json", O.Export.chrome_trace_string ~names tr);
      ("spans.jsonl", O.Export.spans_jsonl c);
      ("spans.folded", O.Export.spans_folded ~names c);
      ("spans.json", O.Export.spans_chrome_trace_string ~names c) ]

let test_exports_golden () =
  List.iter
    (fun (file, contents) ->
      let golden =
        In_channel.with_open_bin
          (project_file (Filename.concat "test/golden" file))
          In_channel.input_all
      in
      check Alcotest.string file golden contents)
    (golden_exports ~variant:"map" ~scale:8
     @ golden_exports ~variant:"vector" ~scale:4)

(* ---------- stall root-cause attribution ---------- *)

let test_stall_attribution_exact () =
  let res, rt = P.run (Lazy.force chase) pressure_cfg in
  let prof = R.Runtime.profile rt in
  let attr = R.Runtime.attribution rt in
  (* The ledger's exactness invariant: every non-compute cycle lands
     in exactly one (ds, site, cause) cell. *)
  check Alcotest.int "Σ causes = total stall cycles"
    (res.cycles - O.Profile.compute prof)
    (O.Attribution.total attr);
  (* cause_totals is a consistent decomposition of the same number. *)
  let by_cause =
    List.fold_left (fun acc (_, v) -> acc + v) 0 (O.Attribution.cause_totals attr)
  in
  check Alcotest.int "cause totals sum to total" (O.Attribution.total attr)
    by_cause;
  (* ... and so is the per-structure view. *)
  let by_ds =
    List.fold_left
      (fun acc ds ->
        List.fold_left
          (fun acc (_, v) -> acc + v)
          acc
          (O.Attribution.ds_cause_totals attr ds))
      0 (O.Attribution.ds_list attr)
  in
  check Alcotest.int "ds totals sum to total" (O.Attribution.total attr) by_ds;
  (* The run faulted under pressure: protocol, wire and queue causes
     must all be non-vacuous, and queueing is split per QP. *)
  let cause_val c = List.assoc c (O.Attribution.cause_totals attr) in
  check Alcotest.bool "protocol cycles charged" true (cause_val O.Attribution.Proto > 0);
  check Alcotest.bool "wire cycles charged" true (cause_val O.Attribution.Wire > 0);
  let queue_total =
    List.fold_left
      (fun acc (c, v) ->
        match c with O.Attribution.Queue _ -> acc + v | _ -> acc)
      0 (O.Attribution.cause_totals attr)
  in
  check Alcotest.bool "queue causes present" true
    (List.exists
       (function O.Attribution.Queue _ -> true | _ -> false)
       (O.Attribution.causes attr));
  ignore queue_total

let test_stall_attribution_sites_named () =
  let _, rt = P.run (Lazy.force chase) pressure_cfg in
  let attr = R.Runtime.attribution rt in
  let rows = O.Attribution.site_rows attr in
  check Alcotest.bool "site rows non-empty" true (rows <> []);
  (* The interpreter threads real access sites: at least one heavy row
     names a function and basic block, not "(runtime)". *)
  let named =
    List.exists
      (fun (r : O.Attribution.site_row) ->
        r.O.Attribution.r_site.O.Attribution.s_block >= 0
        && r.O.Attribution.r_site.O.Attribution.s_fn <> "(runtime)")
      rows
  in
  check Alcotest.bool "an interpreted site is named" true named;
  (* Rows are sorted heaviest first and their causes are non-zero. *)
  let rec sorted = function
    | (a : O.Attribution.site_row) :: (b :: _ as rest) ->
      a.O.Attribution.r_total >= b.O.Attribution.r_total && sorted rest
    | _ -> true
  in
  check Alcotest.bool "heaviest first" true (sorted rows);
  List.iter
    (fun (r : O.Attribution.site_row) ->
      check Alcotest.int "row causes sum to row total" r.O.Attribution.r_total
        (List.fold_left (fun acc (_, v) -> acc + v) 0 r.O.Attribution.r_causes))
    rows;
  (* Direct runtime API use (no interpreter) attributes to the unknown
     site rather than losing cycles. *)
  check Alcotest.string "unknown site label" "(runtime)"
    (O.Attribution.site_name O.Attribution.unknown_site)

let test_attribution_qp_matrix () =
  (* The exactness invariant across queue-pair count and batching —
     queue splits and batch completions must not leak cycles. *)
  List.iter
    (fun qp ->
      List.iter
        (fun batching ->
          let cfg =
            { pressure_cfg with
              R.Runtime.fabric_config =
                { pressure_cfg.R.Runtime.fabric_config with
                  Cards_net.Fabric.qp_count = qp };
              batching }
          in
          let res, rt = P.run (Lazy.force chase) cfg in
          let prof = R.Runtime.profile rt in
          let attr = R.Runtime.attribution rt in
          check Alcotest.int
            (Printf.sprintf "qp=%d batching=%b exact" qp batching)
            (res.cycles - O.Profile.compute prof)
            (O.Attribution.total attr);
          (* No Queue cause may name a QP the fabric does not have. *)
          List.iter
            (function
              | O.Attribution.Queue i ->
                check Alcotest.bool "queue index within qp_count" true
                  (i >= 0 && i < qp)
              | _ -> ())
            (O.Attribution.causes attr))
        [ true; false ])
    [ 1; 2; 4 ]

(* ---------- observability does not perturb the simulation ---------- *)

let test_sink_off_bit_identical () =
  let bare, _ = P.run (Lazy.force chase) pressure_cfg in
  let obs = full_sink () in
  let traced, rt = P.run ~obs (Lazy.force chase) pressure_cfg in
  check Alcotest.int "cycles identical with full sink" bare.cycles
    traced.cycles;
  check Alcotest.int "instructions identical" bare.instructions
    traced.instructions;
  check (Alcotest.list Alcotest.string) "output identical" bare.output
    traced.output;
  (* And the sink actually observed the run. *)
  (match O.Sink.trace obs with
   | Some tr -> check Alcotest.bool "events captured" true (O.Trace.length tr > 0)
   | None -> Alcotest.fail "sink lost its trace");
  ignore rt

(* ---------- the event ring ---------- *)

let mk_ev i =
  O.Event.make ~cycle:i ~ds:1 ~obj:i O.Event.Guard_hit

let test_ring_keeps_newest () =
  let tr = O.Trace.create ~capacity:4 in
  for i = 0 to 9 do
    O.Trace.add tr (mk_ev i)
  done;
  check Alcotest.int "length capped" 4 (O.Trace.length tr);
  check Alcotest.int "dropped counted" 6 (O.Trace.dropped tr);
  let cycles = List.map (fun (e : O.Event.t) -> e.ev_cycle) (O.Trace.to_list tr) in
  check (Alcotest.list Alcotest.int) "newest retained, oldest first"
    [ 6; 7; 8; 9 ] cycles

let test_ring_under_capacity () =
  let tr = O.Trace.create ~capacity:8 in
  for i = 0 to 2 do
    O.Trace.add tr (mk_ev i)
  done;
  check Alcotest.int "length" 3 (O.Trace.length tr);
  check Alcotest.int "nothing dropped" 0 (O.Trace.dropped tr);
  let cycles = List.map (fun (e : O.Event.t) -> e.ev_cycle) (O.Trace.to_list tr) in
  check (Alcotest.list Alcotest.int) "insertion order" [ 0; 1; 2 ] cycles

(* ---------- exporters ---------- *)

let test_chrome_trace_roundtrips () =
  let obs = full_sink () in
  let _, rt = P.run ~obs (Lazy.force chase) pressure_cfg in
  let tr = match O.Sink.trace obs with Some t -> t | None -> assert false in
  let s = O.Export.chrome_trace_string ~names:(R.Runtime.ds_name rt) tr in
  let j = J.parse s in
  let events =
    match J.member "traceEvents" j with
    | Some v -> (match J.to_list_opt v with Some l -> l | None -> [])
    | None -> []
  in
  check Alcotest.bool "traceEvents non-empty" true (List.length events > 0);
  (* Every entry is an object with the mandatory trace_event fields. *)
  List.iter
    (fun e ->
      (match J.member "ph" e with
       | Some (J.Str ph) ->
         check Alcotest.bool "known phase" true
           (List.mem ph [ "B"; "E"; "X"; "i"; "M" ])
       | _ -> Alcotest.fail "event missing ph");
      (match J.member "pid" e with
       | Some (J.Int _) -> ()
       | _ -> Alcotest.fail "event missing pid");
      match J.member "ph" e with
      | Some (J.Str "X") -> begin
        (* Duration spans need a non-negative dur. *)
        match J.member "dur" e with
        | Some v -> begin
          match J.to_number_opt v with
          | Some d -> check Alcotest.bool "dur >= 0" true (d >= 0.0)
          | None -> Alcotest.fail "dur not a number"
        end
        | None -> Alcotest.fail "X event missing dur"
      end
      | _ -> ())
    events;
  (* B/E pairs on the interpreter thread must balance (a trap could
     legitimately truncate, but this run completes normally). *)
  let depth =
    List.fold_left
      (fun acc e ->
        match (J.member "ph" e, J.member "tid" e) with
        | (Some (J.Str "B"), Some (J.Int 0)) -> acc + 1
        | (Some (J.Str "E"), Some (J.Int 0)) -> acc - 1
        | _ -> acc)
      0 events
  in
  check Alcotest.int "call stack balanced" 0 depth

let test_events_jsonl_parses () =
  let obs = full_sink () in
  let _ = P.run ~obs (Lazy.force chase) pressure_cfg in
  let tr = match O.Sink.trace obs with Some t -> t | None -> assert false in
  let lines =
    String.split_on_char '\n' (O.Export.events_jsonl tr)
    |> List.filter (fun l -> l <> "")
  in
  check Alcotest.int "one line per event" (O.Trace.length tr)
    (List.length lines);
  List.iter
    (fun line ->
      let j = J.parse line in
      match (J.member "ev" j, J.member "cycle" j) with
      | (Some (J.Str _), Some (J.Int _)) -> ()
      | _ -> Alcotest.fail "event line missing fields")
    lines

let test_profile_table_renders () =
  let res, rt = P.run (Lazy.force chase) pressure_cfg in
  let s =
    Cards_util.Table.render
      (O.Export.profile_table ~names:(R.Runtime.ds_name rt) ~total:res.cycles
         (R.Runtime.profile rt))
  in
  check Alcotest.bool "has TOTAL row" true
    (String.length s > 0
     && (let re = "TOTAL" in
         let n = String.length s and m = String.length re in
         let rec go i = i + m <= n && (String.sub s i m = re || go (i + 1)) in
         go 0));
  (* Exact attribution means no (unattributed) row. *)
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "no unattributed row" false (has "(unattributed)")

(* ---------- corrected prefetch & batch event fields ---------- *)

let test_prefetch_and_batch_events_roundtrip () =
  let obs = full_sink () in
  let _ = P.run ~obs (Lazy.force chase) pressure_cfg in
  let tr = match O.Sink.trace obs with Some t -> t | None -> assert false in
  let lines =
    String.split_on_char '\n' (O.Export.events_jsonl tr)
    |> List.filter (fun l -> l <> "")
    |> List.map J.parse
  in
  let of_kind k =
    List.filter
      (fun j ->
        match J.member "ev" j with Some (J.Str s) -> s = k | _ -> false)
      lines
  in
  let int_field name j =
    match J.member name j with
    | Some (J.Int v) -> v
    | _ -> Alcotest.fail (Printf.sprintf "missing int field %S" name)
  in
  (* Prefetch_issue renders on the *target* structure's row and names
     its origin explicitly — a cross-structure prefetch must not land
     on the origin's row with the target's object id. *)
  let issues = of_kind "prefetch_issue" in
  check Alcotest.bool "prefetch_issue events present" true (issues <> []);
  List.iter
    (fun j ->
      check Alcotest.bool "target ds valid" true (int_field "ds" j >= 0);
      check Alcotest.bool "target obj valid" true (int_field "obj" j >= 0);
      check Alcotest.bool "origin_ds valid" true (int_field "origin_ds" j >= 0);
      check Alcotest.bool "origin_obj valid" true
        (int_field "origin_obj" j >= 0))
    issues;
  (* Batch_fetch events carry the coalesced object count and payload
     bytes; under pressure at least one real (multi-object) batch goes
     out. *)
  let batches = of_kind "batch_fetch" in
  check Alcotest.bool "batch_fetch events present" true (batches <> []);
  List.iter
    (fun j ->
      check Alcotest.bool "count >= 2" true (int_field "count" j >= 2);
      check Alcotest.bool "bytes > 0" true (int_field "bytes" j > 0))
    batches

(* QP occupancy rows in the Chrome trace: each inbound queue pair gets
   its own thread row with duration spans. *)
let test_chrome_trace_qp_rows () =
  let obs = full_sink () in
  let _, rt = P.run ~obs (Lazy.force chase) pressure_cfg in
  let tr = match O.Sink.trace obs with Some t -> t | None -> assert false in
  let s = O.Export.chrome_trace_string ~names:(R.Runtime.ds_name rt) tr in
  let j = J.parse s in
  let events =
    match Option.bind (J.member "traceEvents" j) J.to_list_opt with
    | Some l -> l
    | None -> []
  in
  let qp_spans =
    List.filter
      (fun e ->
        match (J.member "name" e, J.member "ph" e) with
        | (Some (J.Str "qp_busy"), Some (J.Str "X")) -> true
        | _ -> false)
      events
  in
  check Alcotest.bool "qp_busy spans present" true (qp_spans <> []);
  List.iter
    (fun e ->
      match J.member "tid" e with
      | Some (J.Int tid) ->
        check Alcotest.bool "qp span on a qp thread row" true (tid >= 100_000)
      | _ -> Alcotest.fail "qp span missing tid")
    qp_spans;
  (* And those rows are labelled. *)
  let labelled =
    List.exists
      (fun e ->
        match (J.member "name" e, J.member "ph" e, J.member "args" e) with
        | (Some (J.Str "thread_name"), Some (J.Str "M"), Some args) -> (
          match J.member "name" args with
          | Some (J.Str n) ->
            String.length n >= 2 && String.sub n 0 2 = "qp"
          | _ -> false)
        | _ -> false)
      events
  in
  check Alcotest.bool "qp thread row named" true labelled

(* Exporters must behave on a run that produced no events and no
   latencies at all (e.g. a pure-compute program). *)
let test_exporters_on_zero_event_run () =
  let tr = O.Trace.create ~capacity:16 in
  let s = O.Export.chrome_trace_string tr in
  let j = J.parse s in
  (match Option.bind (J.member "traceEvents" j) J.to_list_opt with
   | Some evs ->
     (* Only the process-name metadata record. *)
     check Alcotest.bool "only metadata" true (List.length evs <= 1)
   | None -> Alcotest.fail "no traceEvents");
  check Alcotest.string "empty jsonl" "" (O.Export.events_jsonl tr);
  let attr = O.Attribution.create () in
  let prof = O.Profile.create attr in
  let names _ = "x" in
  ignore (Cards_util.Table.render (O.Export.latency_table prof));
  ignore (Cards_util.Table.render (O.Export.latency_percentiles_table ~names prof));
  check Alcotest.int "empty ledger total" 0 (O.Attribution.total attr);
  ignore (Cards_util.Table.render (O.Export.attribution_table ~names attr));
  ignore (Cards_util.Table.render (O.Export.attribution_sites_table ~names attr));
  ignore (Cards_util.Table.render (O.Export.profile_table ~names ~total:0 prof))

(* ---------- the bench regression gate ---------- *)

(* A schema-2 snapshot: one record per run, flat metrics, the sections
   that recorded it. *)
let snapshot ?(p99 = 7_000) ?(sections = [ "fabric"; "attr" ]) cycles fetches =
  J.Obj
    [ ("records",
       J.List
         [ J.Obj
             [ ("tag", J.Str "pc-list");
               ("sections", J.List (List.map (fun s -> J.Str s) sections));
               ("cycles", J.Int cycles);
               ("fabric.fetches", J.Int fetches);
               ("fabric.qp_queue_cycles[0]", J.Int 10);
               ("fabric.qp_queue_cycles[1]", J.Int 20) ];
           J.Obj
             [ ("tag", J.Str "serve-clean-t0-kv");
               ("sections", J.List [ J.Str "serve" ]);
               ("cycles", J.Int 182_759);
               ("p99_cycles", J.Int p99) ] ]) ]

let contains msg sub =
  let n = String.length msg and m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  go 0

let test_regress_clean_and_perturbed () =
  let base = snapshot 1_000_000 500 in
  (* Identical tree: zero violations even at zero tolerance. *)
  check Alcotest.int "unchanged snapshot passes" 0
    (List.length
       (O.Regress.compare_snapshots ~tolerance:0.0 ~baseline:base
          ~current:base ()));
  (* A 5% cycle regression breaks a 2% gate and names the metric. *)
  let worse = snapshot 1_050_000 500 in
  (match
     O.Regress.compare_snapshots ~tolerance:0.02 ~baseline:base ~current:worse ()
   with
   | [ (O.Regress.Drifted d as v) ] ->
     check Alcotest.string "record named" "pc-list" d.record;
     check Alcotest.string "metric named" "cycles" d.metric;
     check (Alcotest.float 1e-9) "baseline value" 1_000_000.0 d.baseline;
     check (Alcotest.float 1e-9) "observed value" 1_050_000.0 d.observed;
     let msg = O.Regress.format_violation v in
     check Alcotest.bool "message names record" true (contains msg "pc-list");
     check Alcotest.bool "message names metric" true (contains msg "cycles");
     check Alcotest.bool "message has baseline" true (contains msg "1000000");
     check Alcotest.bool "message has observed" true (contains msg "1050000")
   | vs -> Alcotest.failf "expected 1 drift, got %d violations" (List.length vs));
  (* The same 5% drift passes a 10% tolerance. *)
  check Alcotest.int "loose tolerance passes" 0
    (List.length
       (O.Regress.compare_snapshots ~tolerance:0.10 ~baseline:base
          ~current:worse ()));
  (* Fabric counters are gated too. *)
  let fewer = snapshot 1_000_000 400 in
  (match
     O.Regress.compare_snapshots ~tolerance:0.02 ~baseline:base ~current:fewer ()
   with
   | [ O.Regress.Drifted d ] ->
     check Alcotest.string "fabric metric" "fabric.fetches" d.metric
   | vs -> Alcotest.failf "expected 1 fabric violation, got %d" (List.length vs));
  (* A vanished record is a violation, not a silent pass. *)
  let empty = J.Obj [ ("records", J.List []) ] in
  (match
     O.Regress.compare_snapshots ~tolerance:0.02 ~baseline:base ~current:empty ()
   with
   | [ (O.Regress.Unrecorded _ as v1); (O.Regress.Unrecorded _ as v2) ] ->
     check Alcotest.bool "missing reported" true
       (contains (O.Regress.format_violation v1) "pc-list"
        && contains (O.Regress.format_violation v2) "serve-clean-t0-kv")
   | vs -> Alcotest.failf "expected 2 missing records, got %d" (List.length vs))

(* Every numeric member is gated under its own name: a per-QP entry and
   a p99 drift are reported as such, and a metric dropped from a record
   that is still there is reported missing. *)
let test_regress_named_metrics () =
  let base = snapshot 1_000_000 500 in
  check Alcotest.int "every numeric member counted" 6
    (O.Regress.compared_metrics ~baseline:base ~current:base ());
  (match
     O.Regress.compare_snapshots ~tolerance:0.02 ~baseline:base
       ~current:(snapshot ~p99:8_000 1_000_000 500) ()
   with
   | [ (O.Regress.Drifted d as v) ] ->
     check Alcotest.string "p99 record" "serve-clean-t0-kv" d.record;
     check Alcotest.string "p99 metric" "p99_cycles" d.metric;
     check Alcotest.bool "message names p99_cycles" true
       (contains (O.Regress.format_violation v) "p99_cycles")
   | vs -> Alcotest.failf "expected 1 p99 drift, got %d" (List.length vs));
  let without_qp1 =
    match O.Regress.records_of_snapshot base with
    | [ (_, J.Obj pc); (_, serve) ] ->
      J.Obj
        [ ("records",
           J.List
             [ J.Obj (List.filter (fun (k, _) -> k <> "fabric.qp_queue_cycles[1]") pc);
               serve ]) ]
    | _ -> Alcotest.fail "snapshot shape"
  in
  match
    O.Regress.compare_snapshots ~tolerance:0.02 ~baseline:base
      ~current:without_qp1 ()
  with
  | [ O.Regress.Missing m ] ->
    check Alcotest.string "per-QP metric" "fabric.qp_queue_cycles[1]" m.metric
  | vs -> Alcotest.failf "expected 1 missing metric, got %d" (List.length vs)

(* A gate that compared nothing must fail: an empty baseline, and an
   old-schema baseline whose records the gate does not read, both
   yield a violation instead of a vacuous pass. *)
let test_regress_refuses_empty_comparison () =
  let current = snapshot 1_000_000 500 in
  let old_schema =
    J.Obj
      [ ("experiments",
         J.List [ J.Obj [ ("tag", J.Str "serve-clean-t0-kv-p99"); ("p99", J.Int 5) ] ]) ]
  in
  List.iter
    (fun (what, baseline) ->
      check Alcotest.int what 1
        (List.length
           (O.Regress.compare_snapshots ~tolerance:0.02 ~baseline ~current ())))
    [ ("empty baseline fails", J.Obj []); ("old-schema baseline fails", old_schema) ]

(* A subset run gates exactly the records its sections recorded — and
   of a shared record only the metrics it reproduces — and reports a
   record one of them stopped recording even when another section still
   produces it. *)
let test_regress_subset_run () =
  let rec_ ~sections ?(critical_path = true) tag =
    J.Obj
      ([ ("tag", J.Str tag);
         ("sections", J.List (List.map (fun s -> J.Str s) sections));
         ("cycles", J.Int 1_000) ]
       @ if critical_path then [ ("critical_path_cycles", J.Int 40) ] else [])
  in
  let doc rs = J.Obj [ ("records", J.List rs) ] in
  let base =
    doc
      [ rec_ ~sections:[ "attr"; "spans" ] "pc-list";
        rec_ ~sections:[ "serve" ] ~critical_path:false "serve-clean-total" ]
  in
  (* attr alone: pc-list's cycles, not the critical path spans adds. *)
  let attr_run = doc [ rec_ ~sections:[ "attr" ] ~critical_path:false "pc-list" ] in
  check Alcotest.int "attr compares only its metrics" 1
    (O.Regress.compared_metrics ~sections:[ "attr" ] ~baseline:base
       ~current:attr_run ());
  check Alcotest.int "serve record not gated by attr" 0
    (List.length
       (O.Regress.compare_snapshots ~sections:[ "attr" ] ~baseline:base
          ~current:attr_run ()));
  (* With every recording section run, a lost metric is reported. *)
  (match
     O.Regress.compare_snapshots ~sections:[ "attr"; "spans" ] ~baseline:base
       ~current:(doc [ rec_ ~sections:[ "attr"; "spans" ] ~critical_path:false "pc-list" ])
       ()
   with
   | [ O.Regress.Missing m ] ->
     check Alcotest.string "lost metric" "critical_path_cycles" m.metric
   | vs -> Alcotest.failf "expected 1 missing metric, got %d" (List.length vs));
  (match
     O.Regress.compare_snapshots ~sections:[ "attr" ] ~baseline:base
       ~current:(doc []) ()
   with
   | [ O.Regress.Unrecorded u ] ->
     check Alcotest.string "vanished record" "pc-list" u.record;
     check (Alcotest.list Alcotest.string) "by attr" [ "attr" ] u.sections
   | vs -> Alcotest.failf "expected 1 unrecorded, got %d" (List.length vs));
  match
    O.Regress.compare_snapshots ~sections:[ "attr"; "spans" ] ~baseline:base
      ~current:(doc [ rec_ ~sections:[ "spans" ] "pc-list" ]) ()
  with
  | [ (O.Regress.Unrecorded u as v) ] ->
    check (Alcotest.list Alcotest.string) "attr stopped recording" [ "attr" ]
      u.sections;
    check Alcotest.bool "message names section" true
      (contains (O.Regress.format_violation v) "attr")
  | vs -> Alcotest.failf "expected 1 dropped section, got %d" (List.length vs)

(* ---------- epoch metrics ---------- *)

let test_metrics_sampled () =
  let obs = O.Sink.create ~metrics_interval:50_000 () in
  let _, rt = P.run ~obs (Lazy.force chase) pressure_cfg in
  let m = match O.Sink.metrics obs with Some m -> m | None -> assert false in
  check Alcotest.bool "samples recorded" true (O.Metrics.n_samples m > 0);
  let samples = O.Metrics.samples m in
  (* Cycle stamps never decrease, and cumulative counters never
     decrease per structure. *)
  let last_cycle = ref 0 in
  let last_guards = Hashtbl.create 8 in
  List.iter
    (fun (s : O.Metrics.sample) ->
      check Alcotest.bool "cycles monotone" true (s.m_cycle >= !last_cycle);
      last_cycle := s.m_cycle;
      let prev =
        match Hashtbl.find_opt last_guards s.m_ds with Some g -> g | None -> 0
      in
      check Alcotest.bool "counters monotone" true (s.m_guards >= prev);
      Hashtbl.replace last_guards s.m_ds s.m_guards)
    samples;
  (* The number of live structures matches the report. *)
  let dss = List.length (R.Runtime.report rt) in
  let seen = Hashtbl.length last_guards in
  check Alcotest.int "every structure sampled" dss seen

let test_metrics_jsonl_parses () =
  let obs = O.Sink.create ~metrics_interval:50_000 () in
  let _ = P.run ~obs (Lazy.force chase) pressure_cfg in
  let m = match O.Sink.metrics obs with Some m -> m | None -> assert false in
  let lines =
    String.split_on_char '\n' (O.Export.metrics_jsonl m)
    |> List.filter (fun l -> l <> "")
  in
  check Alcotest.int "one line per sample" (O.Metrics.n_samples m)
    (List.length lines);
  List.iter (fun l -> ignore (J.parse l)) lines

(* ---------- json codec ---------- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [ ("a", J.Int 42); ("b", J.Str "x\"y\n\\z");
        ("c", J.List [ J.Null; J.Bool true; J.Float 1.5 ]);
        ("d", J.Obj [] ) ]
  in
  let s = J.to_string v in
  check Alcotest.bool "roundtrip equal" true (J.parse s = v)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match J.parse s with
      | exception J.Parse_error _ -> ()
      | _ -> Alcotest.fail ("accepted garbage: " ^ s))
    [ "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ]

(* ---------- causal spans, critical path, flight recorder ---------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  go 0

(* Hand-built spans: the collector only checks id discipline, so unit
   tests can assemble precise graphs without a runtime behind them. *)
let mk_span col ?(kind = O.Span.Demand) ?(parent = -1) ?edge ?(ds = 1)
    ?(queued = 0) ?(proto = 0) ?(wire = 0) ?(retry = 0) ?(pf_wait = 0)
    ?(trap = 0) ?(issued = 0) ?complete ?fault () =
  let id = O.Span.fresh col in
  let stall = queued + proto + wire + retry + pf_wait + trap in
  let s =
    { O.Span.sp_id = id; sp_kind = kind; sp_parent = parent; sp_edge = edge;
      sp_ds = ds; sp_obj = id; sp_fn = "t"; sp_block = 0; sp_instr = 0;
      sp_issued = issued; sp_start = issued;
      sp_complete = (match complete with Some c -> c | None -> issued + stall);
      sp_queued = queued; sp_proto = proto; sp_wire = wire; sp_retry = retry;
      sp_pf_wait = pf_wait; sp_trap = trap; sp_qp = 0; sp_bytes = 64;
      sp_fault = fault }
  in
  O.Span.add col s;
  s

let test_span_sampling_deterministic () =
  (* Rate 1.0: every occasion; rate 0.5: exactly every other one, via
     the accumulator — no RNG, so the pattern is the same every run. *)
  let all = O.Span.create ~rate:1.0 () in
  for _ = 1 to 10 do
    check Alcotest.bool "rate 1.0 always samples" true (O.Span.sampled all)
  done;
  let none = O.Span.create ~rate:0.0 () in
  for _ = 1 to 10 do
    check Alcotest.bool "rate 0.0 never samples" false (O.Span.sampled none)
  done;
  let half = O.Span.create ~rate:0.5 () in
  let picks = List.init 8 (fun _ -> O.Span.sampled half) in
  check Alcotest.int "rate 0.5 samples half" 4
    (List.length (List.filter Fun.id picks));
  check (Alcotest.list Alcotest.bool) "alternating pattern"
    [ false; true; false; true; false; true; false; true ] picks

let test_span_inflight_registry () =
  let col = O.Span.create () in
  O.Span.note_inflight col ~ds:3 ~obj:17 ~span:42;
  check Alcotest.int "take returns the span" 42
    (O.Span.take_inflight col ~ds:3 ~obj:17);
  check Alcotest.int "take consumes" (-1)
    (O.Span.take_inflight col ~ds:3 ~obj:17);
  check Alcotest.int "absent key" (-1) (O.Span.take_inflight col ~ds:9 ~obj:9)

let test_span_well_formed_rejects_forward_edge () =
  let col = O.Span.create () in
  let a = mk_span col ~proto:10 () in
  let _b =
    mk_span col ~kind:O.Span.Retry ~parent:a.O.Span.sp_id
      ~edge:O.Span.E_retry ~retry:5 ()
  in
  check Alcotest.bool "backward edge ok" true (O.Span.well_formed col);
  (* A parent id at or above the child's is a graph bug. *)
  let bad = O.Span.create () in
  let c = mk_span bad ~proto:1 () in
  O.Span.add bad
    { c with O.Span.sp_id = c.O.Span.sp_id; sp_parent = c.O.Span.sp_id };
  check Alcotest.bool "self edge rejected" false (O.Span.well_formed bad)

let test_critical_path_synthetic_chain () =
  let col = O.Span.create () in
  (* Chain A: demand (100 proto) <- settle (50 pf-wait) = 150.
     Chain B: lone demand, 120 queued.  A must win. *)
  let a = mk_span col ~kind:O.Span.Prefetch ~proto:100 () in
  let s =
    mk_span col ~kind:O.Span.Pf_settle ~parent:a.O.Span.sp_id
      ~edge:O.Span.E_satisfy ~pf_wait:50 ~issued:100 ()
  in
  let _b = mk_span col ~queued:120 () in
  match O.Critical_path.analyze col with
  | None -> Alcotest.fail "no report"
  | Some r ->
    check Alcotest.int "chain stall" 150 r.O.Critical_path.r_chain_stall;
    check (Alcotest.list Alcotest.int) "chain ids root-first"
      [ a.O.Span.sp_id; s.O.Span.sp_id ]
      (List.map (fun sp -> sp.O.Span.sp_id) r.O.Critical_path.r_chain);
    check Alcotest.int "proto share" 100
      r.O.Critical_path.r_phases.O.Critical_path.cp_proto;
    check Alcotest.int "pf-wait share" 50
      r.O.Critical_path.r_phases.O.Critical_path.cp_pf_wait;
    check Alcotest.int "span count" 3 r.O.Critical_path.r_span_count;
    check Alcotest.int "last completion" 150 r.O.Critical_path.r_end

let test_recorder_ring_bound () =
  let rec_ = O.Recorder.create ~capacity:8 () in
  let col = O.Span.create () in
  O.Span.set_listener col (O.Recorder.add rec_);
  for _ = 1 to 100 do
    ignore (mk_span col ~proto:1 ())
  done;
  check Alcotest.int "ring bounded" 8 (O.Recorder.ring_length rec_);
  check Alcotest.int "nothing flagged" 0 (O.Recorder.flagged rec_);
  check Alcotest.int "nothing pinned" 0 (O.Recorder.pinned_count rec_)

let test_recorder_retains_flagged_chain () =
  let rec_ = O.Recorder.create ~capacity:4 () in
  let col = O.Span.create () in
  O.Span.set_listener col (O.Recorder.add rec_);
  (* Runtime order: the root id is allocated first but its span is
     added last (retries complete before the fetch they delayed), so
     the recorder must pin the retry now and the root on arrival. *)
  let root_id = O.Span.fresh col in
  let retry =
    mk_span col ~kind:O.Span.Retry ~parent:root_id ~edge:O.Span.E_retry
      ~retry:40 ~fault:"transient" ()
  in
  let root =
    { retry with
      O.Span.sp_id = root_id; sp_kind = O.Span.Escalated; sp_parent = -1;
      sp_edge = None; sp_retry = 0; sp_proto = 90; sp_fault = None }
  in
  O.Span.add col root;
  (* Flood the ring far past capacity: the flagged chain must survive. *)
  for _ = 1 to 50 do
    ignore (mk_span col ~proto:1 ())
  done;
  check Alcotest.int "ring still bounded" 4 (O.Recorder.ring_length rec_);
  check Alcotest.int "both flagged" 2 (O.Recorder.flagged rec_);
  check Alcotest.bool "chain retained in full" true
    (O.Recorder.chain_of rec_ retry = [ root; retry ]);
  (match O.Recorder.last_flagged rec_ with
   | Some s ->
     check Alcotest.int "last flagged is the escalation" root_id
       s.O.Span.sp_id
   | None -> Alcotest.fail "no flagged span");
  let report =
    O.Recorder.postmortem ~reason:"test escalation" ~degrade_level:3
      ~names:(fun _ -> "mylist") rec_
  in
  List.iter
    (fun needle ->
      check Alcotest.bool ("postmortem mentions " ^ needle) true
        (contains report needle))
    [ "test escalation"; "escalated"; "retry"; "transient"; "mylist";
      "level 3" ]

let test_sink_postmortem_one_shot () =
  let sink = O.Sink.create ~postmortem:true () in
  check Alcotest.bool "recorder present" true (O.Sink.recorder sink <> None);
  check Alcotest.bool "collector implied" true (O.Sink.spans sink <> None);
  check Alcotest.bool "armed once" true (O.Sink.take_postmortem sink);
  check Alcotest.bool "latch consumed" false (O.Sink.take_postmortem sink);
  let plain = O.Sink.create ~span_rate:1.0 () in
  check Alcotest.bool "not armed without --postmortem" false
    (O.Sink.take_postmortem plain)

let test_resilience_table_quiet_row () =
  let all_zero =
    O.Export.resilience_table ~retries:0 ~timeouts:0 ~escalations:0
      ~pf_failed:0 ~pf_suppressed:0 ~degrade_steps:0 ~recover_steps:0
      ~degrade_level:0 ()
  in
  let s = Cards_util.Table.render all_zero in
  check Alcotest.bool "quiet run says so" true
    (contains s "(no faults observed)");
  let busy =
    O.Export.resilience_table ~retries:3 ~timeouts:0 ~escalations:0
      ~pf_failed:0 ~pf_suppressed:0 ~degrade_steps:0 ~recover_steps:0
      ~degrade_level:0 ()
  in
  let s = Cards_util.Table.render busy in
  check Alcotest.bool "busy run does not" false
    (contains s "(no faults observed)")

let test_span_chrome_export_flow_events () =
  let col = O.Span.create () in
  let a = mk_span col ~kind:O.Span.Prefetch ~proto:10 () in
  ignore
    (mk_span col ~kind:O.Span.Pf_settle ~parent:a.O.Span.sp_id
       ~edge:O.Span.E_satisfy ~pf_wait:5 ~issued:10 ());
  let s = O.Export.spans_chrome_trace_string ~names:(fun _ -> "ds") col in
  let j = J.parse s in
  let events =
    match J.member "traceEvents" j with
    | Some v -> (match J.to_list_opt v with Some l -> l | None -> [])
    | None -> []
  in
  let phases ph =
    List.filter (fun e -> J.member "ph" e = Some (J.Str ph)) events
  in
  check Alcotest.int "one X per span" 2 (List.length (phases "X"));
  check Alcotest.int "flow start per edge" 1 (List.length (phases "s"));
  check Alcotest.int "flow finish per edge" 1 (List.length (phases "f"))

(* ---------- what-if virtual speedups ---------- *)

let wi_predict ~total col sc = O.Whatif.predict ~total col sc

let wi_scenario ?scope factors =
  O.Whatif.scenario_of_factors ~id:"t" ~label:"test" ?scope factors

let test_whatif_single_chain () =
  (* One demand span: queued 10, proto 100, wire 50.  The identity
     replay must reproduce the totals bit-for-bit; halving proto must
     save exactly 50 cycles. *)
  let col = O.Span.create () in
  ignore (mk_span col ~queued:10 ~proto:100 ~wire:50 ());
  let total = 1000 in
  let id = wi_predict ~total col O.Whatif.identity in
  check Alcotest.int "identity predicts baseline" total id.O.Whatif.p_cycles;
  check Alcotest.int "identity saves nothing" 0 id.O.Whatif.p_saved;
  check Alcotest.int "identity chain = span stall" 160
    id.O.Whatif.p_chain_stall;
  let half =
    wi_predict ~total col
      (wi_scenario { O.Whatif.unit_factors with O.Whatif.f_proto = 0.5 })
  in
  check Alcotest.int "proto x0.5 saves half the proto" 50
    half.O.Whatif.p_saved;
  check Alcotest.int "predicted cycles drop by the saving" (total - 50)
    half.O.Whatif.p_cycles;
  (* Scoping: the span is on ds 1, so a ds-2 scope changes nothing. *)
  let other =
    wi_predict ~total col
      (wi_scenario ~scope:(O.Whatif.Ds 2)
         { O.Whatif.unit_factors with O.Whatif.f_proto = 0.5 })
  in
  check Alcotest.int "other-structure scope saves nothing" 0
    other.O.Whatif.p_saved

let test_whatif_diamond_batch_members () =
  (* Batch (proto 30, wire 40) fanning into two E_member prefetches
     completing at cumulative-serialization offsets (50, 70), and a
     settle at access time 60 waiting 10 cycles for the second member.
     Free wire pulls the member's landing back to cycle 30, so the
     settle wait vanishes entirely. *)
  let col = O.Span.create () in
  let b = mk_span col ~kind:O.Span.Batch ~proto:30 ~wire:40 () in
  let _m1 =
    mk_span col ~kind:O.Span.Prefetch ~parent:b.O.Span.sp_id
      ~edge:O.Span.E_member ~complete:50 ()
  in
  let m2 =
    mk_span col ~kind:O.Span.Prefetch ~parent:b.O.Span.sp_id
      ~edge:O.Span.E_member ~complete:70 ()
  in
  ignore
    (mk_span col ~kind:O.Span.Pf_settle ~parent:m2.O.Span.sp_id
       ~edge:O.Span.E_satisfy ~pf_wait:10 ~issued:60 ());
  let total = 500 in
  let id = wi_predict ~total col O.Whatif.identity in
  check Alcotest.int "identity exact through member completions" total
    id.O.Whatif.p_cycles;
  let free_wire =
    wi_predict ~total col
      (wi_scenario { O.Whatif.unit_factors with O.Whatif.f_wire = 0.0 })
  in
  check Alcotest.int "free wire erases the settle wait" 10
    free_wire.O.Whatif.p_saved

let test_whatif_retry_chain () =
  (* Runtime order: the demand root's id is allocated before its retry
     children, but its span is added after them.  A fault-free fabric
     (retry x0) must recover exactly the summed retry cycles. *)
  let col = O.Span.create () in
  let root_id = O.Span.fresh col in
  let r1 =
    mk_span col ~kind:O.Span.Retry ~parent:root_id ~edge:O.Span.E_retry
      ~retry:40 ~fault:"transient" ()
  in
  ignore
    (mk_span col ~kind:O.Span.Retry ~parent:root_id ~edge:O.Span.E_retry
       ~retry:40 ~fault:"transient" ());
  O.Span.add col
    { r1 with
      O.Span.sp_id = root_id; sp_parent = -1; sp_edge = None;
      sp_kind = O.Span.Demand; sp_retry = 0; sp_proto = 100; sp_issued = 80;
      sp_start = 80; sp_complete = 180; sp_fault = None };
  let total = 400 in
  let id = wi_predict ~total col O.Whatif.identity in
  check Alcotest.int "identity exact across retries" total
    id.O.Whatif.p_cycles;
  let no_retry =
    wi_predict ~total col
      (wi_scenario { O.Whatif.unit_factors with O.Whatif.f_retry = 0.0 })
  in
  check Alcotest.int "retry x0 recovers both backoffs" 80
    no_retry.O.Whatif.p_saved

(* Property over real runs: for every config in a small matrix, the
   identity replay of the recorded span graph reproduces both the
   measured cycle count and the critical-path analyzer's chain cost
   exactly. *)
let test_whatif_identity_matches_real_runs () =
  List.iter
    (fun (qp, rate) ->
      let cfg =
        { pressure_cfg with
          R.Runtime.fabric_config =
            { pressure_cfg.R.Runtime.fabric_config with
              Cards_net.Fabric.qp_count = qp;
              faults =
                { Cards_net.Fabric.no_faults with
                  Cards_net.Fabric.fault_rate = rate; fault_seed = 11 } } }
      in
      let obs = O.Sink.create ~span_rate:1.0 () in
      let res, _ = P.run ~obs (Lazy.force chase) cfg in
      let col = Option.get (O.Sink.spans obs) in
      let id = wi_predict ~total:res.cycles col O.Whatif.identity in
      check Alcotest.int
        (Printf.sprintf "identity exact (qp %d, rate %.1f)" qp rate)
        res.cycles id.O.Whatif.p_cycles;
      match O.Critical_path.analyze col with
      | Some r ->
        check Alcotest.int
          (Printf.sprintf "chain cost matches analyzer (qp %d, rate %.1f)" qp
             rate)
          r.O.Critical_path.r_chain_stall id.O.Whatif.p_chain_stall
      | None -> Alcotest.fail "no spans recorded")
    [ (1, 0.0); (2, 0.0); (2, 0.2) ]

(* Differential: every executable catalog scenario re-runs the program
   with the runtime knob actually changed, and the perturbation is
   timing-only — outputs bit-identical; the identity scenario's re-run
   reproduces the whole result record. *)
let test_whatif_validation_runs_bit_identical () =
  let obs = O.Sink.create ~span_rate:1.0 () in
  let res, rt = P.run ~obs (Lazy.force chase) pressure_cfg in
  let col = Option.get (O.Sink.spans obs) in
  let scenarios = O.Whatif.catalog ~names:(R.Runtime.ds_name rt) col in
  check Alcotest.bool "catalog has per-structure scenarios" true
    (List.exists
       (fun (sc : O.Whatif.scenario) -> sc.sc_scope <> O.Whatif.Global)
       scenarios);
  List.iter
    (fun (sc : O.Whatif.scenario) ->
      match R.Runtime.whatif_config pressure_cfg sc.sc_exec with
      | None -> Alcotest.failf "scenario %s is not executable" sc.sc_id
      | Some cfg' ->
        let res', _ = P.run (Lazy.force chase) cfg' in
        check (Alcotest.list Alcotest.string)
          (sc.sc_id ^ ": outputs bit-identical") res.output res'.output;
        if sc.sc_id = "identity" then
          check Alcotest.bool "identity re-run fully identical" true
            (res' = res))
    scenarios

let test_spans_folded_lines () =
  let col = O.Span.create () in
  let a = mk_span col ~proto:100 () in
  ignore
    (mk_span col ~kind:O.Span.Retry ~parent:a.O.Span.sp_id
       ~edge:O.Span.E_retry ~retry:25 ());
  ignore
    (mk_span col ~kind:O.Span.Retry ~parent:a.O.Span.sp_id
       ~edge:O.Span.E_retry ~retry:25 ());
  let s = O.Export.spans_folded ~names:(fun _ -> "my list") col in
  let lines = String.split_on_char '\n' (String.trim s) in
  (* Two distinct stacks: the demand alone, and the (aggregated) retry
     frames under it. *)
  check Alcotest.int "two aggregated stacks" 2 (List.length lines);
  check Alcotest.bool "demand stack carries its stall" true
    (List.exists (fun l -> l = "demand:my_list:t@0.0 100") lines);
  check Alcotest.bool "retries aggregate under the demand" true
    (List.exists
       (fun l -> l = "demand:my_list:t@0.0;retry:my_list:t@0.0 50")
       lines)

let test_metrics_csv_shape () =
  let obs = full_sink () in
  ignore (P.run ~obs (Lazy.force chase) pressure_cfg);
  let m = Option.get (O.Sink.metrics obs) in
  let csv = O.Export.metrics_csv m in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check Alcotest.int "header + one row per sample"
    (O.Metrics.n_samples m + 1)
    (List.length lines);
  let cols s = List.length (String.split_on_char ',' s) in
  let header = List.hd lines in
  check Alcotest.bool "fetched_bytes column present" true
    (contains header "fetched_bytes");
  List.iter
    (fun l -> check Alcotest.int "row arity matches header" (cols header)
        (cols l))
    lines

(* The zero-cost-off claim, measured: with no collector installed the
   guard paths must not allocate a single extra word.  Each loop is
   timed as the delta between N and 2N iterations, which cancels
   whatever boxing the measurement harness itself does. *)
let minor_words_per_iter f n =
  let delta k =
    let w0 = Gc.minor_words () in
    for _ = 1 to k do f () done;
    Gc.minor_words () -. w0
  in
  ignore (delta n);
  (* warm every lazy path first *)
  let d1 = delta n in
  let d2 = delta (2 * n) in
  (d2 -. d1) /. float_of_int n

let test_spans_off_allocation_free () =
  let mk_rt obs =
    let rt =
      R.Runtime.create ?obs
        { R.Runtime.default_config with
          policy = R.Policy.All_remotable; k = 0.0;
          local_bytes = 1024 * 1024; remotable_bytes = 512 * 1024;
          prefetch_mode = R.Runtime.Pf_none }
        [| R.Static_info.default ~sid:0 |]
    in
    let h = R.Runtime.ds_init rt ~sid:0 in
    let a = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
    R.Runtime.guard rt ~write:false a;
    (rt, a)
  in
  let n = 10_000 in
  (* [Gc.minor_words] itself boxes a float per probe; the N-vs-2N
     delta cancels it up to sub-word float noise, hence the epsilon. *)
  let eps = 0.01 in
  (* Unmanaged custody checks allocate nothing at all. *)
  let null_rt, _ = mk_rt None in
  let unmanaged =
    minor_words_per_iter (fun () -> R.Runtime.guard null_rt ~write:false 64) n
  in
  check Alcotest.bool "unmanaged guard allocates nothing" true
    (Float.abs unmanaged < eps);
  (* Managed guard hits: whatever the resident path allocates today, a
     sink without a span collector must add nothing to it. *)
  let base_rt, base_a = mk_rt None in
  let base =
    minor_words_per_iter
      (fun () -> R.Runtime.guard base_rt ~write:false base_a) n
  in
  let off_rt, off_a = mk_rt (Some (O.Sink.create ())) in
  let off =
    minor_words_per_iter
      (fun () -> R.Runtime.guard off_rt ~write:false off_a) n
  in
  check Alcotest.bool "span-less sink adds no allocation" true
    (Float.abs (off -. base) < eps);
  check Alcotest.bool "hit path near allocation-free" true (base <= 3.0)

let suite =
  [ Alcotest.test_case "attribution sums to total" `Quick
      test_attribution_sums_to_total;
    Alcotest.test_case "attribution balances when pinned" `Quick
      test_attribution_all_pinned_is_pure_compute_and_alloc;
    Alcotest.test_case "stall ledger exact" `Quick test_stall_attribution_exact;
    Alcotest.test_case "stall sites named" `Quick
      test_stall_attribution_sites_named;
    Alcotest.test_case "stall ledger exact across qp matrix" `Quick
      test_attribution_qp_matrix;
    Alcotest.test_case "chrome trace qp rows" `Quick test_chrome_trace_qp_rows;
    Alcotest.test_case "exporters on zero-event run" `Quick
      test_exporters_on_zero_event_run;
    Alcotest.test_case "regression gate" `Quick test_regress_clean_and_perturbed;
    Alcotest.test_case "regression gate named metrics" `Quick test_regress_named_metrics;
    Alcotest.test_case "regression gate refuses empty comparison" `Quick
      test_regress_refuses_empty_comparison;
    Alcotest.test_case "regression gate subset run" `Quick test_regress_subset_run;
    Alcotest.test_case "full sink is cycle-identical" `Quick
      test_sink_off_bit_identical;
    Alcotest.test_case "ring keeps newest" `Quick test_ring_keeps_newest;
    Alcotest.test_case "ring under capacity" `Quick test_ring_under_capacity;
    Alcotest.test_case "chrome trace round-trips" `Quick
      test_chrome_trace_roundtrips;
    Alcotest.test_case "events jsonl parses" `Quick test_events_jsonl_parses;
    Alcotest.test_case "prefetch & batch events round-trip" `Quick
      test_prefetch_and_batch_events_roundtrip;
    Alcotest.test_case "profile table renders" `Quick
      test_profile_table_renders;
    Alcotest.test_case "profile tables golden" `Quick
      test_profile_tables_golden;
    Alcotest.test_case "exports golden" `Quick test_exports_golden;
    Alcotest.test_case "metrics sampled" `Quick test_metrics_sampled;
    Alcotest.test_case "metrics jsonl parses" `Quick test_metrics_jsonl_parses;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "span sampling deterministic" `Quick
      test_span_sampling_deterministic;
    Alcotest.test_case "span inflight registry" `Quick
      test_span_inflight_registry;
    Alcotest.test_case "span well-formedness" `Quick
      test_span_well_formed_rejects_forward_edge;
    Alcotest.test_case "critical path on a synthetic chain" `Quick
      test_critical_path_synthetic_chain;
    Alcotest.test_case "recorder ring bounded" `Quick test_recorder_ring_bound;
    Alcotest.test_case "recorder retains flagged chain" `Quick
      test_recorder_retains_flagged_chain;
    Alcotest.test_case "postmortem latch one-shot" `Quick
      test_sink_postmortem_one_shot;
    Alcotest.test_case "resilience table quiet row" `Quick
      test_resilience_table_quiet_row;
    Alcotest.test_case "span chrome export flow events" `Quick
      test_span_chrome_export_flow_events;
    Alcotest.test_case "whatif single chain" `Quick test_whatif_single_chain;
    Alcotest.test_case "whatif diamond batch members" `Quick
      test_whatif_diamond_batch_members;
    Alcotest.test_case "whatif retry chain" `Quick test_whatif_retry_chain;
    Alcotest.test_case "whatif identity matches real runs" `Quick
      test_whatif_identity_matches_real_runs;
    Alcotest.test_case "whatif validation bit-identical" `Quick
      test_whatif_validation_runs_bit_identical;
    Alcotest.test_case "spans folded lines" `Quick test_spans_folded_lines;
    Alcotest.test_case "metrics csv shape" `Quick test_metrics_csv_shape;
    Alcotest.test_case "spans off allocation-free" `Quick
      test_spans_off_allocation_free ]
