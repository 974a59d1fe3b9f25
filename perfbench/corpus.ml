(* The compile corpus and the pass-by-pass replay of [Pipeline.compile].

   The corpus is every MiniC program the repository ships: the files
   under examples/minic/ plus each generator in lib/workloads at the
   size the bench harness (bench/main.ml) uses it.  Every program is
   compiled under three option sets: full CaRDS, CaRDS with layout
   factorization, and TrackFM. *)

module P = Cards.Pipeline
module Ir = Cards_ir
module A = Cards_analysis
module T = Cards_transform
module R = Cards_runtime
module W = Cards_workloads

let option_sets =
  [ ("cards", P.cards_options);
    ("factorize", { P.cards_options with factorize = true });
    ("trackfm", P.trackfm_options) ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let examples ~root =
  let dir = Filename.concat root "examples/minic" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mc")
  |> List.sort compare
  |> List.map (fun f -> ("examples/" ^ f, read_file (Filename.concat dir f)))

let chase_scales =
  [ ("array", 32768); ("vector", 16384); ("list", 16384); ("map", 4096);
    ("hash", 8192); ("tree", 16384) ]

let generated () =
  [ ("listing1", W.Listing1.source ~elems:131072 ~ntimes:10);
    ("bfs", W.Bfs.source ~nodes:30000 ~edges:150000 ~sources:2);
    ("analytics", W.Analytics.source ~trips:50000 ~query_passes:2);
    ("analytics-aos", W.Analytics.source_aos ~trips:20000 ~query_passes:2);
    ("analytics-server", W.Analytics.source_server ~trips:600);
    ("ftfdapml", W.Ftfdapml.source ~cz:16 ~cym:48 ~cxm:48 ~steps:4);
    ("kv", W.Kv.source ~keys:2048 ~nbuckets:256) ]
  @ List.map
      (fun (variant, scale) ->
        ("pc-" ^ variant, W.Pointer_chase.source ~variant ~scale ~passes:2))
      chase_scales

(* [small] keeps the shipped examples and one generator: the test's
   reduced corpus. *)
let sources ~root ~small =
  let gen = generated () in
  examples ~root
  @ (if small then List.filter (fun (n, _) -> n = "pc-list") gen else gen)

let instr_count (m : Ir.Irmod.t) =
  List.fold_left
    (fun acc f -> Ir.Func.fold_instrs f (fun n _ _ _ -> n + 1) acc)
    0 m.funcs

(* ---------- replay ---------- *)

let dsa m = Span.with_ "analysis.dsa" (fun () -> A.Dsa.analyze m)

let to_rt_class = function
  | T.Prefetch_hints.No_prefetch -> R.Static_info.No_prefetch
  | T.Prefetch_hints.Stride -> R.Static_info.Stride
  | T.Prefetch_hints.Greedy_recursive -> R.Static_info.Greedy_recursive
  | T.Prefetch_hints.Jump_pointer -> R.Static_info.Jump_pointer

(* The descriptor table and handle plan are assembled inside
   [Pipeline.compile] by private helpers; these copies rebuild them
   from the analysis layer's public functions.  [check_replay] catches
   any drift. *)
let static_table m dsa1 =
  let use, reach =
    Span.with_ "analysis.scores" (fun () ->
        (A.Scores.max_use m dsa1, A.Scores.max_reach m dsa1))
  in
  Array.of_list
    (List.map
       (fun (d : A.Dsa.desc_info) ->
         { R.Static_info.sid = d.desc_id;
           name = Printf.sprintf "%s#%d" d.desc_init_func d.desc_id;
           obj_size = T.Prefetch_hints.object_size d;
           prefetch = to_rt_class (T.Prefetch_hints.classify d);
           score_use = use.(d.desc_id);
           score_reach = reach.(d.desc_id);
           recursive = d.desc_recursive;
           elem_size = d.desc_elem_size })
       (A.Dsa.descriptors dsa1))

let handle_plan (m : Ir.Irmod.t) dsa1 =
  let sid_of = Hashtbl.create 16 in
  List.iter
    (fun (d : A.Dsa.desc_info) ->
      Hashtbl.replace sid_of (A.Dsa.canonical dsa1 d.desc_node) d.desc_id)
    (A.Dsa.descriptors dsa1);
  List.map
    (fun (f : Ir.Func.t) ->
      ( f.name,
        List.map
          (fun n ->
            Option.value ~default:(-1)
              (Hashtbl.find_opt sid_of (A.Dsa.canonical dsa1 n)))
          (A.Dsa.argnodes dsa1 f.name) ))
    m.funcs

(* [Pipeline.compile], one public pass at a time and in its order, each
   pass under its own span. *)
let replay ~(options : P.options) (m : Ir.Irmod.t) : P.compiled =
  Span.with_ "core.compile" (fun () ->
      Span.with_ "ir.verify" (fun () -> Ir.Verify.check_exn m);
      let m =
        if options.presimplify then
          Span.with_ "transform.simplify" (fun () -> T.Simplify.run m)
        else m
      in
      let m =
        if options.factorize then begin
          let d = dsa m in
          Span.with_ "transform.factorize" (fun () -> T.Factorize.run m d)
        end
        else m
      in
      let dsa1 = dsa m in
      let infos = static_table m dsa1 in
      let fn_arg_sids = handle_plan m dsa1 in
      let pooled =
        Span.with_ "transform.pool_alloc" (fun () -> T.Pool_alloc.run m dsa1)
      in
      let dsa2 = dsa pooled in
      let guarded =
        Span.with_ "transform.guards" (fun () -> T.Guards.run pooled dsa2)
      in
      let dsa3 = dsa guarded in
      let slimmed, guards_removed =
        Span.with_ "transform.guard_elim" (fun () ->
            let s =
              T.Guard_elim.run guarded dsa3 ~level:options.guard_elim_level
            in
            (s, T.Guard_elim.removed_last_run ()))
      in
      let final, versioned_loops =
        if options.versioning then begin
          let dsa4 = dsa slimmed in
          Span.with_ "transform.versioning" (fun () ->
              let v = T.Versioning.run slimmed dsa4 in
              (v, T.Versioning.versioned_loops_last_run ()))
        end
        else (slimmed, 0)
      in
      let static_guards =
        Span.with_ "transform.count_guards" (fun () ->
            T.Guards.count_guards final)
      in
      { P.source = m; plain = pooled; instrumented = final; infos;
        static_guards; guards_removed; versioned_loops; fn_arg_sids })

let frontend src = Span.with_ "ir.frontend" (fun () -> Ir.Minic.compile src)

(* Raises if the replayed sequence no longer reproduces
   [Pipeline.compile]: a reordered or extended pipeline must fail the
   benchmark rather than have it time a stale sequence. *)
let check_replay ~name ~options src =
  let m = Ir.Minic.compile src in
  if replay ~options m <> P.compile ~options m then
    failwith
      (Printf.sprintf
         "pass replay of %s no longer matches Pipeline.compile" name)
