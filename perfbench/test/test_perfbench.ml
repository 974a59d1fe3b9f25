(* The benchmark's own test: every workload at a reduced size, run
   through the benchmark executable and checked against its contract. *)

module J = Cards_util.Json
module Report = Perfbench.Report

let root = "../.."

let run args =
  let argv =
    Array.of_list
      ("perfbench/main.exe" :: "--small" :: "--seconds" :: "0.2" :: args)
  in
  let ic = Unix.open_process_args_in "perfbench/main.exe" argv in
  let lines = In_channel.input_lines ic in
  (match Unix.close_process_in ic with
   | Unix.WEXITED 0 -> ()
   | _ -> Alcotest.failf "%s exited non-zero" (String.concat " " args));
  J.parse (List.nth lines (List.length lines - 1))

let field k doc =
  match J.member k doc with
  | Some v -> v
  | None -> Alcotest.failf "result lacks %s" k

let metrics doc =
  match field "metrics" doc with
  | J.Obj kvs ->
    List.map
      (fun (k, v) ->
        let num = Option.get (J.to_number_opt (field "value" v)) in
        (k, num, Option.get (J.to_string_opt (field "unit" v))))
      kvs
  | _ -> Alcotest.fail "metrics is not an object"

(* The result line holds exactly the contract's keys, no failures, and
   every metric of [schema] in order, with its unit. *)
let check_result schema doc =
  (match doc with
   | J.Obj kvs ->
     Alcotest.(check (list string))
       "result keys"
       [ "correct"; "attempted"; "failed"; "metrics" ]
       (List.map fst kvs)
   | _ -> Alcotest.fail "result is not an object");
  Alcotest.(check bool) "correct" true (field "correct" doc = J.Bool true);
  Alcotest.(check bool) "no failures" true (field "failed" doc = J.Int 0);
  let ms = metrics doc in
  Alcotest.(check (list (pair string string)))
    "metric names and units" schema
    (List.map (fun (k, _, u) -> (k, u)) ms);
  ms

(* Metrics computed from simulated time and the layers' counters.  They
   are exact: for one seed they repeat bit for bit across runs and
   across domain counts, which this test asserts. *)
let simulated name =
  List.mem name
    [ "static_guards"; "code_instrs"; "ir.instrs"; "analysis.dsa_calls";
      "transform.guards_removed"; "transform.versioned_loops";
      "interp.instrs"; "obs.spans" ]
  || List.mem_assoc name Report.runtime_layer
  || String.starts_with ~prefix:"e2e." name
  || String.starts_with ~prefix:"serve." name
     && not (List.mem name [ "serve.prepare_s"; "serve.build_s"; "serve.alloc_mw" ])

let simulated_metrics ms = List.filter (fun (k, _, _) -> simulated k) ms

let check_same what a b =
  Alcotest.(check (list (triple string (float 0.0) string)))
    what (simulated_metrics a) (simulated_metrics b)

let traced ?(domains = []) w =
  let ms =
    check_result Report.per_layer
      (run ([ "--workload"; w; "--seed"; "3"; "--trace"; "1" ] @ domains))
  in
  Alcotest.(check (float 0.0))
    "error_rate" 0.0
    (List.fold_left
       (fun a (k, v, _) -> if k = "e2e.error_rate" then v else a)
       nan ms);
  ms

let workload w () =
  let e2e =
    check_result Report.end_to_end
      (run [ "--workload"; w; "--seed"; "3"; "--trace"; "0" ])
  in
  List.iter
    (fun (k, v, _) ->
      if v <= 0.0 then Alcotest.failf "end-to-end metric %s is %g" k v)
    e2e;
  let a = traced w and b = traced w in
  check_same "simulated metrics repeat" a b;
  if w = "serve" then
    check_same "domains 1 = domains 2"
      (traced ~domains:[ "--domains"; "2" ] w)
      (traced ~domains:[ "--domains"; "1" ] w)

let capacity_monotone () =
  let sweep =
    Perfbench.Workloads.capacity_sweep ~full:true ~seed:3 ~requests:40 ()
  in
  let rec go = function
    | (p : Perfbench.Workloads.probe) :: (q :: _ as rest) ->
      if q.rate <= p.rate then Alcotest.fail "offered rate not increasing";
      if q.ok && not p.ok then
        Alcotest.failf "limit met at %.2f req/Mcycle but missed at %.2f" q.rate
          p.rate;
      go rest
    | _ -> ()
  in
  go sweep

(* BENCHMARK.json names the same metrics, with the same units, as the
   executable reports. *)
let manifest () =
  let doc = J.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
  let names k =
    match J.to_list_opt (field k doc) with
    | Some l ->
      List.map
        (fun m ->
          ( Option.get (J.to_string_opt (field "name" m)),
            Option.get (J.to_string_opt (field "unit" m)) ))
        l
    | None -> Alcotest.failf "%s is not a list" k
  in
  Alcotest.(check (list (pair string string)))
    "end_to_end" Report.end_to_end (names "end_to_end");
  Alcotest.(check (list (pair string string)))
    "per_layer" Report.per_layer (names "per_layer");
  Alcotest.(check (list string))
    "workloads" Perfbench.Workloads.names
    (List.map
       (fun m -> Option.get (J.to_string_opt (field "name" m)))
       (Option.get (J.to_list_opt (field "workloads" doc))))

let () =
  Sys.chdir root;
  Alcotest.run "perfbench"
    [ ( "perfbench",
        Alcotest.test_case "manifest" `Quick manifest
        :: Alcotest.test_case "capacity search monotone" `Quick
             capacity_monotone
        :: List.map
             (fun w -> Alcotest.test_case w `Quick (workload w))
             Perfbench.Workloads.names ) ]
