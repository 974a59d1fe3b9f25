(* The serving layer's test battery.

   1. The tenant-isolation differential oracle: across the whole
      resilience matrix (queue pairs {1,2,4} x batching {on,off} x
      fault rate {0, 5%, 20%} on the faulty tenant), every tenant's
      program output, per-request service records, service cycles,
      stall cycles, fabric counters, pinned grant and degradation
      level must be bit-identical between the shared DRR-scheduled
      run and a solo run on a private fabric under the same admission
      share — contention moves latency, never results.  The full
      matrix is registered Slow (check.sh forces it on); the nastiest
      cell (1 qp, no batching, 20% faults) stays in the quick tier.

   2. Scheduler properties (qcheck): DRR credit conservation over
      random pending/cost traces, starvation-freedom under
      adversarial Zipf-skewed costs, and admission control never
      admitting past the budget over random admit/release sequences.

   3. Load-generator determinism: the same seed reproduces the exact
      arrival sequence, and two whole serving runs of the same mix
      agree bit for bit — the property that makes the serve records
      of BENCH.json gateable at all.

   4. Per-tenant latency merging: the bucket-wise Stats merge the
      ALL row uses equals the histogram of the concatenated samples
      exactly, and its percentiles stay within the documented 1/32
      relative bucket error of the true nearest-rank values. *)

module R = Cards_runtime
module F = Cards_net.Fabric
module S = Cards_serve.Serve
module Tn = Cards_serve.Tenant
module Drr = Cards_serve.Drr
module Adm = Cards_serve.Admission
module Lg = Cards_serve.Loadgen
module U = Cards_util

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* Small serving workloads so the full matrix stays affordable: a
   256-key kv store and a 120-trip analytics column store. *)
let small_kv ~name ~seed ~fault_rate =
  { Tn.name;
    source = Cards_workloads.Kv.source ~keys:256 ~nbuckets:64;
    seed; requests = 16; mean_gap = 20_000.0;
    sample = Lg.kv_sample ~keys:256 ~nbuckets:64; fault_rate }

let small_an ~name ~seed ~fault_rate =
  { Tn.name;
    source = Cards_workloads.Analytics.source_server ~trips:120;
    seed; requests = 8; mean_gap = 200_000.0;
    sample = Lg.analytics_sample; fault_rate }

let cell_config ~qp ~batching =
  { S.default_config with
    S.base =
      { S.default_config.S.base with
        R.Runtime.batching;
        fabric_config =
          { S.default_config.S.base.R.Runtime.fabric_config with
            F.qp_count = qp } } }

(* ---------- 1. the isolation differential oracle ---------- *)

(* One cell: a 2-tenant mix (kv + analytics, the analytics tenant
   carrying the cell's fault rate) against each tenant run solo under
   the same admission share.  Also asserts the exact serving-clock
   and fabric decompositions on the shared run. *)
let isolation_cell ~qp ~batching ~rate =
  let cell = Printf.sprintf "qp=%d batching=%b rate=%.2f" qp batching rate in
  let cfg = cell_config ~qp ~batching in
  let specs =
    [| small_kv ~name:"kv" ~seed:11 ~fault_rate:0.0;
       small_an ~name:"an" ~seed:23 ~fault_rate:rate |]
  in
  let shared = S.run cfg specs in
  (* Exact decompositions on the shared run. *)
  let busy =
    Array.fold_left (fun acc tr -> acc + tr.S.tr_service_cycles) 0
      shared.S.tenants
  in
  check Alcotest.int (cell ^ ": busy = sum of service") busy
    shared.S.busy_cycles;
  check Alcotest.int (cell ^ ": clock = busy + idle")
    (shared.S.busy_cycles + shared.S.idle_cycles)
    shared.S.total_cycles;
  check Alcotest.int (cell ^ ": fetched bytes decompose")
    (Array.fold_left
       (fun acc tr -> acc + tr.S.tr_fabric.F.fetched_bytes)
       0 shared.S.tenants)
    shared.S.fabric.F.fetched_bytes;
  check Alcotest.int (cell ^ ": DRR credit conserved")
    (shared.S.granted - shared.S.charged - shared.S.forfeited)
    (Array.fold_left (fun acc tr -> acc + tr.S.tr_deficit_end) 0
       shared.S.tenants);
  (* Each tenant against its private-fabric solo run. *)
  Array.iteri
    (fun i spec ->
      let solo = S.run_solo cfg ~mix_size:(Array.length specs) spec in
      let a = shared.S.tenants.(i) and b = solo.S.tenants.(0) in
      let who what = Printf.sprintf "%s: %s %s" cell a.S.tr_name what in
      check Alcotest.int (who "served") b.S.tr_served a.S.tr_served;
      check Alcotest.(list string) (who "output") b.S.tr_output a.S.tr_output;
      check Alcotest.bool (who "records") true
        (a.S.tr_records = b.S.tr_records);
      check Alcotest.int (who "service cycles") b.S.tr_service_cycles
        a.S.tr_service_cycles;
      check Alcotest.int (who "stall cycles") b.S.tr_stall_cycles
        a.S.tr_stall_cycles;
      check Alcotest.int (who "setup cycles") b.S.tr_setup_cycles
        a.S.tr_setup_cycles;
      check Alcotest.bool (who "fabric stats") true
        (a.S.tr_fabric = b.S.tr_fabric);
      check Alcotest.int (who "pinned grant") b.S.tr_pinned_granted
        a.S.tr_pinned_granted;
      check Alcotest.int (who "degrade level") b.S.tr_degrade_level
        a.S.tr_degrade_level)
    specs

let qps = [ 1; 2; 4 ]
let batchings = [ true; false ]
let rates = [ 0.0; 0.05; 0.2 ]

let test_isolation_matrix () =
  List.iter
    (fun qp ->
      List.iter
        (fun batching ->
          List.iter (fun rate -> isolation_cell ~qp ~batching ~rate) rates)
        batchings)
    qps

let test_isolation_worst_cell () =
  isolation_cell ~qp:1 ~batching:false ~rate:0.2

(* ---------- 2. scheduler properties ---------- *)

(* DRR conservation over a random trace: arbitrary pending sets and
   arbitrary per-request costs (including zero and quantum-dwarfing
   ones) must keep granted - charged - forfeited = sum of deficits at
   every step. *)
let prop_drr_conservation =
  QCheck.Test.make ~name:"DRR conserves credit on random traces" ~count:200
    QCheck.(pair (int_range 1 8) small_int)
    (fun (n, seed) ->
      let rng = U.Rng.create (0x5eed + seed) in
      let quantum = 1 + U.Rng.int rng 10_000 in
      let d = Drr.create ~quantum n in
      let ok = ref true in
      for _ = 1 to 300 do
        let mask = U.Rng.int rng (1 lsl n) in
        let pending i = mask land (1 lsl i) <> 0 in
        (match Drr.next d ~pending with
         | Some i ->
           if not (pending i) then ok := false;
           Drr.charge d i (U.Rng.int rng (4 * quantum))
         | None -> if mask <> 0 then ok := false);
        if not (Drr.conserved d) then ok := false
      done;
      !ok)

(* Starvation-freedom under adversarial skew: every tenant always
   pending, costs Zipf-skewed so tenant 0 regularly fires requests
   dwarfing the quantum.  The bound is in replenishment rounds — the
   scheduler's unit of progress; selection counts are the wrong unit
   because many sub-quantum requests legitimately share one round.  A
   pending tenant's deficit when selected is at most one quantum, so
   after a [max_cost] charge it recovers within [max_cost/quantum]
   rounds and is served within [max_cost/quantum + 2] rounds of its
   previous turn. *)
let prop_drr_no_starvation =
  QCheck.Test.make ~name:"DRR never starves a pending tenant" ~count:100
    QCheck.(pair (int_range 2 8) small_int)
    (fun (n, seed) ->
      let rng = U.Rng.create (0xfa1 + seed) in
      let quantum = 1_000 in
      let d = Drr.create ~quantum n in
      let last_round = Array.make n 0 in
      let max_gap = Array.make n 0 in
      let max_cost = ref 1 in
      let ok = ref true in
      for _ = 1 to 2_000 do
        match Drr.next d ~pending:(fun _ -> true) with
        | None -> ok := false
        | Some i ->
          let cost =
            if i = 0 then (1 + U.Rng.zipf rng ~n:50 ~s:1.1) * quantum
            else 1 + U.Rng.int rng (quantum - 1)
          in
          max_cost := max !max_cost cost;
          Drr.charge d i cost;
          max_gap.(i) <- max max_gap.(i) (Drr.rounds d - last_round.(i));
          last_round.(i) <- Drr.rounds d
      done;
      let bound = (!max_cost / quantum) + 2 in
      for i = 0 to n - 1 do
        if max_gap.(i) > bound then ok := false;
        if Drr.rounds d - last_round.(i) > bound then ok := false
      done;
      !ok && Drr.conserved d)

(* Admission control over random admit/release sequences: the
   admitted total never exceeds the budget, a refusal happens exactly
   when the grant would overshoot, and releases restore headroom. *)
let prop_admission_budget =
  QCheck.Test.make ~name:"admission never exceeds the budget" ~count:300
    QCheck.(pair (int_range 0 100_000) small_int)
    (fun (budget, seed) ->
      let rng = U.Rng.create (0xad + seed) in
      let adm = Adm.create ~budget_bytes:budget in
      let grants = ref [] in
      let ok = ref true in
      for _ = 1 to 200 do
        (if U.Rng.bool rng || !grants = [] then begin
           let bytes = U.Rng.int rng (budget + 2) in
           let fits = Adm.admitted_bytes adm + bytes <= budget in
           let got = Adm.admit adm ~bytes in
           if got <> fits then ok := false;
           if got then grants := bytes :: !grants
         end
         else
           match !grants with
           | g :: rest ->
             Adm.release adm ~bytes:g;
             grants := rest
           | [] -> ());
        if Adm.admitted_bytes adm > budget then ok := false;
        if Adm.available adm <> budget - Adm.admitted_bytes adm then
          ok := false
      done;
      !ok)

(* ---------- 3. load-generator and whole-run determinism ---------- *)

let test_loadgen_deterministic () =
  let gen seed =
    Lg.arrivals ~seed ~n:200 ~mean_gap:5_000.0
      ~sample:(Lg.kv_sample ~keys:256 ~nbuckets:64)
  in
  let a = gen 42 and b = gen 42 in
  check Alcotest.bool "same seed, same arrivals" true (a = b);
  check Alcotest.bool "different seed, different arrivals" true
    (a <> gen 43);
  let rec increasing = function
    | x :: (y :: _ as rest) ->
      x.Lg.at < y.Lg.at && increasing rest
    | _ -> true
  in
  check Alcotest.bool "arrival times strictly increase" true (increasing a);
  check Alcotest.int "requested count" 200 (List.length a)

let test_serving_run_deterministic () =
  let cfg = S.default_config in
  let specs () =
    [| small_kv ~name:"kv" ~seed:5 ~fault_rate:0.0;
       small_an ~name:"an" ~seed:9 ~fault_rate:0.1 |]
  in
  let a = S.run cfg (specs ()) and b = S.run cfg (specs ()) in
  check Alcotest.int "serving clock" a.S.total_cycles b.S.total_cycles;
  check Alcotest.int "rounds" a.S.rounds b.S.rounds;
  check Alcotest.bool "interference matrix" true (a.S.stolen = b.S.stolen);
  Array.iteri
    (fun i (ta : S.tenant_result) ->
      let tb = b.S.tenants.(i) in
      check Alcotest.bool (ta.S.tr_name ^ " bit-identical") true
        (ta.S.tr_output = tb.S.tr_output
         && ta.S.tr_records = tb.S.tr_records
         && ta.S.tr_service_cycles = tb.S.tr_service_cycles
         && ta.S.tr_wait_cycles = tb.S.tr_wait_cycles
         && ta.S.tr_latency = tb.S.tr_latency
         && ta.S.tr_fabric = tb.S.tr_fabric))
    a.S.tenants

(* ---------- 4. per-tenant latency merging ---------- *)

(* The ALL row of the serving latency table merges per-tenant
   accumulators bucket-wise.  Against an accumulator fed the
   concatenated samples: identical histogram and count, identical
   extrema, and identical percentile answers; against the true
   nearest-rank percentile of the sorted samples: within the
   documented 1/32 relative bucket error. *)
let prop_latency_merge =
  QCheck.Test.make ~name:"bucket-wise Stats merge is exact" ~count:100
    QCheck.small_int
    (fun seed ->
      let rng = U.Rng.create (0x1a7 + seed) in
      let k = 2 + U.Rng.int rng 5 in
      let all = ref [] in
      let parts =
        Array.init k (fun _ ->
            let s = U.Stats.create () in
            let m = 1 + U.Rng.int rng 400 in
            for _ = 1 to m do
              let v = 1.0 +. U.Rng.float rng 1_000_000.0 in
              U.Stats.add s v;
              all := v :: !all
            done;
            s)
      in
      let merged =
        Array.fold_left U.Stats.merge (U.Stats.create ()) parts
      in
      let concat = U.Stats.create () in
      List.iter (U.Stats.add concat) !all;
      let sorted = Array.of_list !all in
      Array.sort compare sorted;
      let true_pct p =
        let n = Array.length sorted in
        let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
        sorted.(max 0 (min (n - 1) (rank - 1)))
      in
      U.Stats.log2_counts merged = U.Stats.log2_counts concat
      && U.Stats.count merged = U.Stats.count concat
      && U.Stats.min merged = U.Stats.min concat
      && U.Stats.max merged = U.Stats.max concat
      && List.for_all
           (fun p ->
             let m = U.Stats.percentile merged p in
             (* identical histograms answer identically... *)
             m = U.Stats.percentile concat p
             (* ...and within the documented bucket error of truth. *)
             && abs_float (m -. true_pct p) <= true_pct p /. 32.0)
           [ 50.0; 90.0; 99.0; 99.9 ])

let suite =
  [ ("isolation oracle, full matrix", `Slow, test_isolation_matrix);
    ("isolation oracle, worst cell", `Quick, test_isolation_worst_cell);
    qcheck prop_drr_conservation;
    qcheck prop_drr_no_starvation;
    qcheck prop_admission_budget;
    ("load generator is deterministic", `Quick, test_loadgen_deterministic);
    ("serving runs are deterministic", `Quick, test_serving_run_deterministic);
    qcheck prop_latency_merge ]
