(* Spans for the traced run.

   Spans are taken in the benchmark's own code, around each call into a
   layer's public functions; the program under test is not
   instrumented. Each span has a name ("layer.operation"), start and
   end times, the span that encloses it and the rekey interval it
   belongs to. Spans and per-interval counts are kept in memory and
   written as JSONL when the run ends. With tracing off, [span] is a
   plain call and [count] does nothing. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* 0: no enclosing span *)
  interval : int;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let spans : span list ref = ref []
let counts : (string * int * float) list ref = ref []
let next_id = ref 1
let open_ids = ref []
let interval = ref 0

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> 0 in
    open_ids := id :: !open_ids;
    let t0 = Stat.now () in
    let close () =
      let t1 = Stat.now () in
      open_ids := List.tl !open_ids;
      spans := { id; name; parent; interval = !interval; t0; t1 } :: !spans
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

let count name v = if !enabled then counts := (name, !interval, v) :: !counts
let dur_ms s = (s.t1 -. s.t0) *. 1e3
let durations_ms name = List.filter_map (fun s -> if s.name = name then Some (dur_ms s) else None) !spans
let total_ms name = Stat.sum (durations_ms name)
let counted name = List.filter_map (fun (n, _, v) -> if n = name then Some v else None) !counts
let layer_of name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> "bench"

(* Self time per layer: each span's duration minus the part of it that
   its child spans cover, summed over the layer's spans. Sorted by
   self time, largest first. *)
let self_times () =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          (dur_ms s +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    !spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = dur_ms s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id) in
      let l = layer_of s.name in
      Hashtbl.replace by_layer l (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer l)))
    !spans;
  List.sort (fun (_, a) (_, b) -> compare b a) (List.of_seq (Hashtbl.to_seq by_layer))

let write_jsonl path ~workload ~seed ~overhead ~not_measured =
  let oc = open_out path in
  let q = Printf.sprintf "%S" in
  (* The per-layer metrics this workload has no layer for: the JSON
     result line prints them as 0. *)
  Printf.fprintf oc "{\"type\":\"not_measured\",\"workload\":%s,\"seed\":%d,\"metrics\":[%s]}\n" (q workload)
    seed
    (String.concat "," (List.map q not_measured));
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"type\":\"span\",\"id\":%d,\"name\":%s,\"parent\":%d,\"interval\":%d,\"start\":%.6f,\"end\":%.6f}\n"
        s.id (q s.name) s.parent s.interval s.t0 s.t1)
    (List.rev !spans);
  List.iter
    (fun (n, i, v) ->
      Printf.fprintf oc "{\"type\":\"count\",\"name\":%s,\"interval\":%d,\"value\":%.17g}\n" (q n) i v)
    (List.rev !counts);
  let selfs = self_times () in
  let total = Stat.sum (List.map snd selfs) in
  List.iter
    (fun (l, ms) ->
      Printf.fprintf oc
        "{\"type\":\"self_time\",\"workload\":%s,\"seed\":%d,\"layer\":%s,\"self_ms\":%.3f,\"share\":%.4f}\n"
        (q workload) seed (q l) ms
        (if total > 0.0 then ms /. total else 0.0))
    selfs;
  List.iter
    (fun (metric, untraced, traced) ->
      Printf.fprintf oc
        "{\"type\":\"overhead\",\"workload\":%s,\"seed\":%d,\"metric\":%s,\"untraced\":%.6g,\"traced\":%.6g}\n"
        (q workload) seed (q metric) untraced traced)
    overhead;
  close_out oc
