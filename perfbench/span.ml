(* Host-time spans around the benchmark's calls into the repo's layers.

   A span is named "<layer>.<call>" after the public function it wraps
   (e.g. "analysis.dsa" around [Dsa.analyze]).  Spans nest by dynamic
   extent, so a span's parent is the span open when it started, and
   every span carries the run id (measured iteration or setup
   repetition) it belongs to and the item (program, compile job or
   tenant) it worked on.  Recording is off unless [enabled] is
   set; off, [with_] is a single branch around the call, which is how
   the untraced run measures end-to-end metrics.

   Spans are kept in memory and written out once, at the end of the
   run.  Only the calling domain records: the benchmark never calls a
   layer from more than one domain. *)

type t = {
  id : int;
  parent : int;      (* -1 for a root span *)
  name : string;
  rid : int;
  item : int;
  t0 : float;        (* Unix.gettimeofday, seconds *)
  t1 : float;
  alloc_w : float;   (* minor words allocated on this domain meanwhile *)
}

let enabled = ref false
let rid = ref 0
let item = ref 0
let recorded : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let now = Unix.gettimeofday

(* The spans recorded since the last [take], oldest first.  Ids keep
   counting, so spans taken at different times never collide. *)
let take () =
  let s = List.rev !recorded in
  recorded := [];
  s

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let rid = !rid and item = !item in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let close () =
      let t1 = now () in
      let alloc_w = Gc.minor_words () -. w0 in
      open_ids := List.tl !open_ids;
      recorded := { id; parent; name; rid; item; t0; t1; alloc_w } :: !recorded
    in
    match f () with
    | v -> close (); v
    | exception e -> close (); raise e
  end

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

type agg = {
  calls : int;
  total_s : float;   (* inclusive *)
  self_s : float;    (* minus the time covered by child spans *)
  self_w : float;    (* minor words, minus those of child spans *)
}

let zero = { calls = 0; total_s = 0.0; self_s = 0.0; self_w = 0.0 }

(* Children run strictly inside their parent on one domain, so a
   parent's self time is its duration minus its children's durations. *)
let aggregate ~key spans =
  let child_s = Hashtbl.create 256 and child_w = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let add tbl v =
          Hashtbl.replace tbl s.parent
            (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.parent))
        in
        add child_s (s.t1 -. s.t0);
        add child_w s.alloc_w
      end)
    spans;
  let out = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let k = key s.name in
      let a = Option.value ~default:zero (Hashtbl.find_opt out k) in
      let get tbl = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.id) in
      let dur = s.t1 -. s.t0 in
      Hashtbl.replace out k
        { calls = a.calls + 1;
          total_s = a.total_s +. dur;
          self_s = a.self_s +. dur -. get child_s;
          self_w = a.self_w +. s.alloc_w -. get child_w })
    spans;
  fun k -> Option.value ~default:zero (Hashtbl.find_opt out k)

let by_name spans = aggregate ~key:Fun.id spans
let by_layer spans = aggregate ~key:layer spans

let write_jsonl path spans =
  let module J = Cards_util.Json in
  let base = match spans with [] -> 0.0 | s :: _ -> s.t0 in
  let base = List.fold_left (fun b s -> Float.min b s.t0) base spans in
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (J.to_string
           (J.Obj
              [ ("id", J.Int s.id); ("parent", J.Int s.parent);
                ("name", J.Str s.name); ("rid", J.Int s.rid); ("item", J.Int s.item);
                ("start_s", J.Float (s.t0 -. base));
                ("end_s", J.Float (s.t1 -. base));
                ("alloc_mw", J.Float (s.alloc_w /. 1e6)) ]));
      output_char oc '\n')
    spans;
  close_out oc
