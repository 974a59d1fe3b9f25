(* The four workloads.  Each is a record of closures over its own state:

   - [prepare] (untimed, once): derived configuration, the independent
     reference results, and the traced run's extra checks;
   - [setup] (timed, repeated): source text to ready to run;
   - [iterate] (timed, repeated): one unit of measured work;
   - [check] (untimed, after each iteration): how many operations the
     iteration attempted and how many disagreed with the reference;
   - [after_traced] (untimed): traced-only calls kept out of the
     iteration, so traced and untraced iterations do the same work;
   - [counts]: the compiled code's size, for the end-to-end metrics;
   - [layers]: simulated per-layer counters, read after the run.

   Only [serve] takes the seed: the MiniC generators fix their data
   seeds inside lib/workloads. *)

module P = Cards.Pipeline
module Ir = Cards_ir
module R = Cards_runtime
module M = Cards_interp.Machine
module F = Cards_net.Fabric
module O = Cards_obs
module B = Cards_baselines
module S = Cards_serve.Serve
module Tn = Cards_serve.Tenant
module St = Cards_util.Stats
module W = Cards_workloads

type size = Full | Small

type metric = string * float * string

type t = {
  name : string;
  prepare : traced:bool -> unit;
  setup : unit -> unit;
  iterate : traced:bool -> unit;
  check : unit -> int * int;
  after_traced : unit -> unit;
  counts : unit -> metric list;
  layers : unit -> metric list;
}

let names = [ "compile"; "chase"; "serve" ]

let fi = float_of_int
let mc c = fi c /. 1e6
let mb b = fi b /. 1e6
let ratio a b = if b = 0 then 0.0 else fi a /. fi b

(* Size of the compiled code, summed over the programs a workload
   compiles.  Every workload compiles, so these are end-to-end metrics
   on all four. *)
let code_counts (cs : P.compiled list) =
  let sum f = List.fold_left (fun a c -> a + f c) 0 cs in
  [ ("static_guards", fi (sum (fun c -> c.P.static_guards)), "count");
    ("code_instrs", fi (sum (fun c -> Corpus.instr_count c.P.instrumented)),
     "count") ]

let compiler_counts (cs : P.compiled list) =
  let sum f = List.fold_left (fun a c -> a + f c) 0 cs in
  [ ("ir.instrs", fi (sum (fun c -> Corpus.instr_count c.P.source)), "count");
    ("transform.guards_removed", fi (sum (fun c -> c.P.guards_removed)),
     "count");
    ("transform.versioned_loops", fi (sum (fun c -> c.P.versioned_loops)),
     "count") ]

(* Runtime and fabric counters summed over the runtimes a workload
   drove.  Stall figures come from the attribution ledger. *)
let runtime_counts (rts : R.Runtime.t list) =
  let sum f = List.fold_left (fun a rt -> a + f rt) 0 rts in
  let tot f = sum (fun rt -> f (R.Rt_stats.total (R.Runtime.stats rt))) in
  let rs f = sum (fun rt -> f (R.Runtime.stats rt)) in
  let fab f = sum (fun rt -> f (R.Runtime.fabric_stats rt)) in
  let stall pick =
    sum (fun rt ->
        List.fold_left
          (fun a (c, n) -> if pick c then a + n else a)
          0
          (O.Attribution.cause_totals (R.Runtime.attribution rt)))
  in
  let guards = tot (fun d -> d.R.Rt_stats.guards) in
  let issued = tot (fun d -> d.R.Rt_stats.prefetch_issued) in
  let batches = fab (fun f -> f.F.batches) in
  [ ("runtime.guards", fi guards, "count");
    ("runtime.guard_hit_ratio",
     ratio (tot (fun d -> d.R.Rt_stats.guard_hits)) guards, "ratio");
    ("runtime.compute_mcycles",
     mc (sum (fun rt -> O.Profile.compute (R.Runtime.profile rt))), "Mcycles");
    ("runtime.stall_guard_mcycles", mc (stall (( = ) O.Attribution.Guard_exec)),
     "Mcycles");
    ("runtime.remote_faults", fi (tot (fun d -> d.R.Rt_stats.remote_faults)),
     "count");
    ("runtime.clean_faults", fi (tot (fun d -> d.R.Rt_stats.clean_faults)),
     "count");
    ("runtime.evictions", fi (tot (fun d -> d.R.Rt_stats.evictions)), "count");
    ("runtime.prefetch_issued", fi issued, "count");
    ("runtime.prefetch_accuracy",
     ratio (tot (fun d -> d.R.Rt_stats.prefetch_used)) issued, "ratio");
    ("runtime.prefetch_late", fi (tot (fun d -> d.R.Rt_stats.prefetch_late)),
     "count");
    ("runtime.stall_pf_wait_mcycles", mc (stall (( = ) O.Attribution.Pf_wait)),
     "Mcycles");
    ("runtime.stall_trap_mcycles", mc (stall (( = ) O.Attribution.Trap)),
     "Mcycles");
    ("runtime.stall_alloc_mcycles",
     mc (stall (( = ) O.Attribution.Bookkeeping)), "Mcycles");
    ("runtime.retries", fi (rs R.Rt_stats.retries), "count");
    ("runtime.degrade_steps", fi (rs R.Rt_stats.degrade_steps), "count");
    ("runtime.stall_retry_mcycles", mc (stall (( = ) O.Attribution.Retry)),
     "Mcycles");
    ("net.fetches", fi (fab (fun f -> f.F.fetches)), "count");
    ("net.fetched_mb", mb (fab (fun f -> f.F.fetched_bytes)), "MB");
    ("net.batches", fi batches, "count");
    ("net.batch_fill", ratio (fab (fun f -> f.F.batched_objects)) batches,
     "objects");
    ("net.writebacks", fi (fab (fun f -> f.F.writebacks)), "count");
    ("net.wb_batches", fi (fab (fun f -> f.F.wb_batches)), "count");
    ("net.queue_out_mcycles", mc (fab (fun f -> f.F.queue_out_cycles)),
     "Mcycles");
    ("net.faults_injected", fi (fab F.faults_injected), "count");
    ("net.reliable_fetches", fi (fab (fun f -> f.F.reliable_fetches)), "count");
    ("net.stall_proto_mcycles", mc (stall (( = ) O.Attribution.Proto)),
     "Mcycles");
    ("net.stall_wire_mcycles", mc (stall (( = ) O.Attribution.Wire)),
     "Mcycles");
    ("net.stall_queue_mcycles",
     mc (stall (function O.Attribution.Queue _ -> true | _ -> false)),
     "Mcycles") ]

(* ---------- compile ---------- *)

let compile ~root ~size =
  let small = size = Small in
  let corpus = ref [] in
  let reference = ref [||] in
  let last = ref [||] in
  let verify_failures = ref 0 in
  let jobs srcs =
    List.concat_map
      (fun (name, src) ->
        List.map (fun (oname, options) -> (name ^ "/" ^ oname, options, src))
          Corpus.option_sets)
      srcs
  in
  let prepare ~traced =
    let js = jobs (Corpus.sources ~root ~small) in
    if traced then
      List.iter (fun (name, options, src) -> Corpus.check_replay ~name ~options src) js;
    reference :=
      Array.of_list
        (List.map
           (fun (_, options, src) ->
             let c = P.compile_source ~options src in
             (match Ir.Verify.check_exn c.P.instrumented with
              | () -> ()
              | exception Failure _ -> incr verify_failures);
             c)
           js)
  in
  let setup () = corpus := jobs (Corpus.sources ~root ~small) in
  let iterate ~traced =
    last :=
      Array.of_list
        (List.mapi
           (fun i (_, options, src) ->
             Span.item := i;
             if traced then Corpus.replay ~options (Corpus.frontend src)
             else P.compile_source ~options src)
           !corpus)
  in
  let check () =
    let failed = ref !verify_failures in
    Array.iteri (fun i c -> if c <> !reference.(i) then incr failed) !last;
    verify_failures := 0;
    (Array.length !last, !failed)
  in
  { name = "compile"; prepare; setup; iterate; check;
    after_traced = ignore;
    counts = (fun () -> code_counts (Array.to_list !reference));
    layers = (fun () -> compiler_counts (Array.to_list !reference)) }

(* ---------- chase: compiled programs on a far-memory runtime ---------- *)

type program = {
  p_src : string;
  p_cfg : wss:int -> R.Runtime.config;
      (* the runtime configuration, from the program's working set *)
}

(* Working-set size from an all-local profiling run, as the bench
   harness measures it. *)
let wss_of compiled =
  Array.fold_left ( + ) 0 (B.Mira.profile compiled).B.Mira.per_sid_bytes

let exec ~name (programs : program list) =
  let programs = Array.of_list programs in
  let n = Array.length programs in
  let compiled = ref [||] in
  let cfgs = ref [||] in
  let reference = Array.make n (0, []) in
  let first_cycles = Array.make n (-1) in
  let last = Array.make n None in
  let prepare ~traced:_ =
    cfgs :=
      Array.mapi
        (fun i p ->
          let c = P.compile_source p.p_src in
          (* The independent reference: the untransformed source module
             on the reference engine with everything local. *)
          let rt = R.Runtime.create (B.Noguard.run_config ()) c.P.infos in
          let r = M.run ~engine:M.Reference c.P.source rt in
          reference.(i) <- (r.M.ret, r.M.output);
          p.p_cfg ~wss:(wss_of c))
        programs
  in
  (* A run consumes its runtime, so each iteration builds its own;
     set-up is the compile. *)
  let setup () =
    compiled :=
      Array.map
        (fun p ->
          Span.with_ "core.compile_source" (fun () -> P.compile_source p.p_src))
        programs
  in
  let iterate ~traced =
    Array.iteri
      (fun i c ->
        Span.item := i;
        let rt =
          Span.with_ "runtime.create" (fun () ->
              R.Runtime.create !cfgs.(i) c.P.infos)
        in
        let r =
          if traced then begin
            let s =
              Span.with_ "interp.session" (fun () ->
                  M.session c.P.instrumented rt)
            in
            let r = Span.with_ "interp.exec" (fun () -> M.call s "main" []) in
            (* A session call reports deltas; the whole-program cycle
               count is the runtime clock. *)
            { r with M.cycles = R.Runtime.now rt }
          end
          else M.run c.P.instrumented rt
        in
        last.(i) <- Some (r, rt))
      !compiled
  in
  let check () =
    let failed = ref 0 in
    Array.iteri
      (fun i l ->
        match l with
        | None -> incr failed
        | Some ((r : M.result), _) ->
          if first_cycles.(i) < 0 then first_cycles.(i) <- r.cycles;
          (* Wrong output, or simulated time that does not repeat
             exactly (traced or not), is a failure. *)
          if (r.ret, r.output) <> reference.(i) || r.cycles <> first_cycles.(i)
          then incr failed)
      last;
    (n, !failed)
  in
  (* The same program, guard-free and all-local: the interpreter's
     cost without the far-memory runtime. *)
  let after_traced () =
    Array.iteri
      (fun i c ->
        Span.item := i;
        let rt = R.Runtime.create (B.Noguard.run_config ()) c.P.infos in
        let s = M.session c.P.plain rt in
        ignore (Span.with_ "interp.plain_exec" (fun () -> M.call s "main" [])))
      !compiled
  in
  let runs () = Array.to_list last |> List.filter_map Fun.id in
  let layers () =
    let rs = runs () in
    let cycles = List.fold_left (fun a ((r : M.result), _) -> a + r.cycles) 0 rs in
    let instrs =
      List.fold_left (fun a ((r : M.result), _) -> a + r.instructions) 0 rs
    in
    let rts = List.map snd rs in
    let fetched =
      List.fold_left
        (fun a rt -> a + (R.Runtime.fabric_stats rt).F.fetched_bytes) 0 rts
    in
    [ ("e2e.sim_mcycles", mc cycles, "Mcycles");
      ("e2e.fetched_mb", mb fetched, "MB");
      ("interp.instrs", fi instrs, "count") ]
    @ compiler_counts (Array.to_list !compiled)
    @ runtime_counts rts
  in
  { name; prepare; setup; iterate; check; after_traced;
    counts = (fun () -> code_counts (Array.to_list !compiled)); layers }

(* fig9's pointer chases at 50 % local memory, as in the bench
   harness's attribution section. *)
let chase ~size =
  let scale s = if size = Small then s / 16 else s in
  exec ~name:"chase"
    (List.map
       (fun (variant, s) ->
         { p_src = W.Pointer_chase.source ~variant ~scale:(scale s) ~passes:2;
           p_cfg =
             (fun ~wss ->
               let local = wss / 2 in
               { R.Runtime.default_config with
                 k = 1.0; local_bytes = local; remotable_bytes = local / 4 }) })
       [ ("list", 16384); ("tree", 16384); ("hash", 8192) ])

(* ---------- serve ---------- *)

let faulty = (1, 0.20)
let base_gap = 40_000.0

(* Latency limit for the capacity search, on the healthy tenants' p99
   and on the backlog left when the last request arrives. *)
let limit_cycles = 10_000_000

let mix ~seed ~requests ~base_gap =
  S.zipf_mix ~faulty ~n:4 ~seed ~requests ~base_gap ()

let offered_rate specs =
  Array.fold_left (fun a (s : Tn.spec) -> a +. (1e6 /. s.Tn.mean_gap)) 0.0 specs

let latency ?(only = fun _ -> true) (r : S.result) =
  let acc = ref (St.create ()) in
  Array.iteri
    (fun i (tr : S.tenant_result) ->
      if only i then acc := St.merge !acc tr.S.tr_latency)
    r.S.tenants;
  !acc

let healthy i = i <> fst faulty

type probe = { gap : float; rate : float; healthy_p99 : float; ok : bool }

(* One step of the capacity search: the mix at one base gap, served
   sequentially. *)
let probe ~seed ~requests gap =
  let specs = mix ~seed ~requests ~base_gap:gap in
  let r = S.run S.default_config specs in
  let last_arrival =
    Array.fold_left
      (fun a (s : Tn.spec) ->
        List.fold_left
          (fun a (x : Cards_serve.Loadgen.arrival) -> max a x.at)
          a
          (Cards_serve.Loadgen.arrivals ~seed:s.Tn.seed ~n:s.Tn.requests
             ~mean_gap:s.Tn.mean_gap ~sample:s.Tn.sample))
      0 specs
  in
  let all_served =
    Array.for_all2
      (fun (tr : S.tenant_result) (s : Tn.spec) -> tr.S.tr_served = s.Tn.requests)
      r.S.tenants specs
  in
  let healthy_p99 = St.percentile (latency ~only:healthy r) 99.0 in
  { gap; rate = offered_rate specs; healthy_p99;
    ok =
      all_served
      && healthy_p99 <= fi limit_cycles
      && r.S.total_cycles - last_arrival <= limit_cycles }

let capacity_gaps = List.init 12 (fun i -> 48_000.0 -. (4_000.0 *. fi i))

(* Fixed-step search from the lowest offered rate up; stops at the
   first step that misses the limit.  [full] runs every step. *)
let capacity_sweep ?(full = false) ~seed ~requests () =
  let rec go acc = function
    | [] -> List.rev acc
    | g :: rest ->
      let p = probe ~seed ~requests g in
      if p.ok || full then go (p :: acc) rest else List.rev (p :: acc)
  in
  go [] capacity_gaps

let capacity sweep =
  let rec go best = function
    | p :: rest when p.ok -> go p.rate rest
    | _ -> best
  in
  go 0.0 sweep

let serve ~size ~seed ~domains =
  (* Per-tenant request counts sized so that at least ten samples lie
     beyond the p99 of the healthy tenants (kv tenants take [requests],
     analytics tenants a quarter of it). *)
  let requests = if size = Small then 40 else 480 in
  let specs = mix ~seed ~requests ~base_gap in
  let cfg = S.default_config in
  let n = Array.length specs in
  let reference = ref None in
  let built = ref [||] in
  let pin_admitted = ref 0 in
  let last = ref None in
  let par_wall = ref 0.0 and par_cpu = ref 0.0 and par_iters = ref 0 in
  let drive_rts = ref [] in
  let sweep = ref [] in
  let programs = ref [] in
  let setup () =
    let share = cfg.S.pin_budget / n in
    let preps =
      Array.mapi
        (fun i spec ->
          Span.item := i;
          Span.with_ "serve.prepare" (fun () ->
              Tn.prepare ~base:cfg.S.base ~engine:cfg.S.engine
                ~pin_share:share spec))
        specs
    in
    let adm = Cards_serve.Admission.create ~budget_bytes:cfg.S.pin_budget in
    built :=
      Array.mapi
        (fun i p ->
          Span.item := i;
          let t = Span.with_ "serve.build" (fun () -> Tn.build p) in
          if not (Cards_serve.Admission.admit adm ~bytes:(Tn.pinned_granted t))
          then failwith "serve: planner exceeded its admission share";
          t)
        preps;
    pin_admitted := Cards_serve.Admission.admitted_bytes adm
  in
  let prepare ~traced =
    (* The independent reference: the sequential serving loop. *)
    reference := Some (S.run cfg specs);
    programs :=
      Array.to_list (Array.map (fun (s : Tn.spec) -> P.compile_source s.Tn.source) specs);
    if traced then begin
      sweep := capacity_sweep ~seed ~requests ();
      List.iter
        (fun p ->
          Printf.eprintf
            "perfbench: capacity probe: base gap %.0f cycles, %.2f req/Mcycle, \
             healthy p99 %.0f cycles: %s\n%!"
            p.gap p.rate p.healthy_p99 (if p.ok then "ok" else "over limit"))
        !sweep
    end
  in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let iterate ~traced =
    let c0 = cpu () and t0 = Unix.gettimeofday () in
    last :=
      Some
        (Span.with_ "par.run" (fun () ->
             Cards_par.Engine.run ~domains cfg specs));
    if traced then begin
      par_wall := !par_wall +. (Unix.gettimeofday () -. t0);
      par_cpu := !par_cpu +. (cpu () -. c0);
      incr par_iters
    end
  in
  let ref_result () = Option.get !reference in
  let check () =
    let r = ref_result () in
    let attempted = Array.fold_left (fun a (s : Tn.spec) -> a + s.Tn.requests) 0 specs in
    match !last with
    | None -> (attempted, attempted)
    | Some got ->
      let failed = ref 0 in
      Array.iteri
        (fun i (tr : S.tenant_result) ->
          let want = r.S.tenants.(i) in
          if tr <> want then failed := !failed + specs.(i).Tn.requests
          else failed := !failed + (specs.(i).Tn.requests - tr.S.tr_served))
        got.S.tenants;
      (* Whole-result equality: schedule-level fields too. *)
      if !failed = 0 && got <> r then incr failed;
      (attempted, !failed)
  in
  (* Traced only: drive the tenants the last setup built through the
     sequential loop, to read their runtimes' counters.  It must
     reproduce the reference exactly. *)
  let after_traced () =
    if !drive_rts = [] then begin
      let tenants = !built in
      let r =
        S.drive cfg ~tenants ~pin_admitted:!pin_admitted
          ~serve:(fun i ~now -> Tn.serve_next tenants.(i) ~now)
      in
      if r <> ref_result () then
        failwith "serve: prepare/build/drive diverged from Serve.run";
      drive_rts := Array.to_list (Array.map Tn.runtime tenants)
    end
  in
  let layers () =
    let r = ref_result () in
    let all = latency r and hl = latency ~only:healthy r in
    let sum f = Array.fold_left (fun a tr -> a + f tr) 0 r.S.tenants in
    let iters = fi (max 1 !par_iters) in
    let wall = !par_wall /. iters and cpu = !par_cpu /. iters in
    [ ("e2e.sim_mcycles", mc r.S.busy_cycles, "Mcycles");
      ("e2e.fetched_mb", mb r.S.fabric.F.fetched_bytes, "MB");
      ("e2e.sim_p50_kcycles", St.percentile all 50.0 /. 1e3, "kcycles");
      ("e2e.sim_p99_kcycles", St.percentile all 99.0 /. 1e3, "kcycles");
      ("e2e.sim_healthy_p99_kcycles", St.percentile hl 99.0 /. 1e3, "kcycles");
      ("e2e.latency_samples", fi (St.count all), "count");
      ("e2e.healthy_latency_samples", fi (St.count hl), "count");
      ("e2e.sim_capacity_rpmc", capacity !sweep, "req/Mcycle");
      ("serve.rounds", fi r.S.rounds, "count");
      ("serve.busy_mcycles", mc r.S.busy_cycles, "Mcycles");
      ("serve.idle_mcycles", mc r.S.idle_cycles, "Mcycles");
      ("serve.wait_mcycles", mc (sum (fun tr -> tr.S.tr_wait_cycles)), "Mcycles");
      ("serve.stall_mcycles", mc (sum (fun tr -> tr.S.tr_stall_cycles)),
       "Mcycles");
      ("serve.forfeited_kcycles", fi r.S.forfeited /. 1e3, "kcycles");
      ("serve.faulty_degrade_level",
       fi r.S.tenants.(fst faulty).S.tr_degrade_level, "count");
      ("serve.pinned_kb", fi r.S.pin_admitted /. 1024.0, "KB");
      ("par.run_s", wall, "s");
      ("par.cpu_s", cpu, "s");
      ("par.busy_ratio",
       (if wall > 0.0 then cpu /. (wall *. fi domains) else 0.0), "ratio");
      ("par.domains", fi domains, "count") ]
    @ compiler_counts !programs
    @ runtime_counts !drive_rts
  in
  { name = "serve"; prepare; setup; iterate; check; after_traced;
    counts = (fun () -> code_counts !programs); layers }

let make ~root ~size ~seed ~domains = function
  | "compile" -> compile ~root ~size
  | "chase" -> chase ~size
  | "serve" -> serve ~size ~seed ~domains
  | w -> invalid_arg ("unknown workload " ^ w)
