(* Bench regression gate: diff a perf snapshot (the `--json` output of
   bench/main.exe — one record per distinct run, flat integer metrics)
   against a committed baseline, within a configurable relative
   tolerance.

   The simulator is deterministic, so on an unchanged tree the diff is
   exactly zero and any tolerance passes; the tolerance exists to
   absorb *intentional* small drifts (a recalibrated cost constant)
   without forcing a baseline refresh for every third decimal.  The
   comparison is two-sided — an unexplained speedup is as much a
   "your model changed" signal as a slowdown — and every violation
   names the record, the metric, and both values, so a gate failure
   reads as a diagnosis rather than a boolean. *)

module Json = Cards_util.Json

type violation =
  | Drifted of { record : string; metric : string; baseline : float; observed : float }
  | Missing of { record : string; metric : string; baseline : float }
  | Unrecorded of { record : string; sections : string list }
  | Nothing_compared

(* Every numeric member is a metric: the tag and the sections list are
   strings, so nothing needs naming here for new counters to be
   gated. *)
let metrics_of_record (r : Json.t) : (string * float) list =
  match r with
  | Json.Obj fields ->
    List.filter_map
      (fun (name, v) -> Option.map (fun x -> (name, x)) (Json.to_number_opt v))
      fields
  | _ -> []

let records_of_snapshot (doc : Json.t) : (string * Json.t) list =
  match Option.bind (Json.member "records" doc) Json.to_list_opt with
  | None -> []
  | Some rs ->
    List.filter_map
      (fun r ->
        Option.bind (Json.member "tag" r) Json.to_string_opt
        |> Option.map (fun tag -> (tag, r)))
      rs

let sections_of_record r =
  match Option.bind (Json.member "sections" r) Json.to_list_opt with
  | None -> []
  | Some ss -> List.filter_map Json.to_string_opt ss

(* The baseline records a run of [sections] must reproduce, each with
   the requested sections that recorded it, and whether all of its
   sections ran: only then must every metric reappear — in a subset
   run a shared record lacks the metrics its other sections add. *)
let gated ?sections doc =
  List.filter_map
    (fun (tag, r) ->
      let own = sections_of_record r in
      match sections with
      | None -> Some (tag, r, own, true)
      | Some _ when own = [] -> Some (tag, r, [], true)
      | Some req -> (
        match List.filter (fun s -> List.mem s req) own with
        | [] -> None
        | by -> Some (tag, r, by, List.length by = List.length own)))
    (records_of_snapshot doc)

let within ~tolerance ~baseline ~observed =
  let denom = Float.max (Float.abs baseline) 1.0 in
  Float.abs (observed -. baseline) /. denom <= tolerance

(* The number of baseline metrics compared, and the violations. *)
let diff ?(tolerance = 0.0) ?sections ~baseline ~current () =
  let cur = records_of_snapshot current in
  let check (tag, base_r, by, all_ran) =
    let base_metrics = metrics_of_record base_r in
    match List.assoc_opt tag cur with
    | None -> (List.length base_metrics, [ Unrecorded { record = tag; sections = by } ])
    | Some cur_r ->
      let cur_metrics = metrics_of_record cur_r in
      let compared =
        List.filter (fun (m, _) -> all_ran || List.mem_assoc m cur_metrics) base_metrics
      in
      let dropped =
        match List.filter (fun s -> not (List.mem s (sections_of_record cur_r))) by with
        | [] -> []
        | gone -> [ Unrecorded { record = tag; sections = gone } ]
      in
      ( List.length compared,
        dropped
        @ List.filter_map
            (fun (metric, base_v) ->
              match List.assoc_opt metric cur_metrics with
              | None -> Some (Missing { record = tag; metric; baseline = base_v })
              | Some cur_v ->
                if within ~tolerance ~baseline:base_v ~observed:cur_v then None
                else
                  Some
                    (Drifted
                       { record = tag; metric; baseline = base_v; observed = cur_v }))
            compared )
  in
  let results = List.map check (gated ?sections baseline) in
  let n = List.fold_left (fun n (k, _) -> n + k) 0 results in
  (n, if n = 0 then [ Nothing_compared ] else List.concat_map snd results)

let compare_snapshots ?tolerance ?sections ~baseline ~current () =
  snd (diff ?tolerance ?sections ~baseline ~current ())

let compared_metrics ?sections ~baseline ~current () =
  fst (diff ?sections ~baseline ~current ())

let format_violation = function
  | Drifted { record; metric; baseline; observed } ->
    let denom = Float.max (Float.abs baseline) 1.0 in
    let delta = 100.0 *. (observed -. baseline) /. denom in
    Printf.sprintf "REGRESSION %s: %s baseline %.0f observed %.0f (%+.2f%%)"
      record metric baseline observed delta
  | Missing { record; metric; baseline } ->
    Printf.sprintf "REGRESSION %s: %s missing (baseline %.0f)" record metric
      baseline
  | Unrecorded { record; sections = [] } ->
    Printf.sprintf "REGRESSION %s: record missing" record
  | Unrecorded { record; sections } ->
    Printf.sprintf "REGRESSION %s: no longer recorded by %s" record
      (String.concat ", " sections)
  | Nothing_compared ->
    "REGRESSION: the baseline holds no metric these sections gate (empty \
     file, old schema, or sections that record nothing)"

let load_file path = Json.parse (In_channel.with_open_bin path In_channel.input_all)
