(* What one workload run hands back, and how it is printed. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let l name value = (name, value)

type ops = { kind : string; mutable attempted : int; mutable failed : int }

let ops kind = { kind; attempted = 0; failed = 0 }

let attempt o ok =
  o.attempted <- o.attempted + 1;
  if not ok then o.failed <- o.failed + 1

(* Every per-layer metric, in the order the traced run prints them.
   A workload reports the ones its layers take part in; the others
   print as "n/a" and as 0 in the JSON line (see README.md for which
   apply where). *)
let layer_metrics =
  [
    ("org.rekey_ms", "ms");
    ("org.us_per_key", "us");
    ("org.register_us", "us");
    ("org.keys_per_rekey", "count");
    ("wire.encode_ms", "ms");
    ("wire.decode_ms", "ms");
    ("wire.packets_per_rekey", "count");
    ("record.seal_ms", "ms");
    ("record.seal_us_per_kb", "us/KB");
    ("record.open_ms", "ms");
    ("record.open_us_per_kb", "us/KB");
    ("record.bytes_per_rekey", "B");
    ("member.process_us", "us");
    ("member.useful_ratio", "ratio");
    ("server.tick_ms", "ms");
    ("server.tcp_bytes_per_rekey", "B");
    ("server.mcast_bytes_per_rekey", "B");
    ("server.tickets_per_rekey", "count");
    ("server.ticket_bytes_per_rekey", "B");
    ("server.rejoin_ms", "ms");
    ("server.rejoins_0rtt", "count");
    ("server.nacks", "count");
    ("server.retx_packets", "count");
    ("server.resyncs", "count");
    ("server.soft_skips", "count");
    ("server.mcast_fallback_unicast", "count");
    ("client.first_install_ms", "ms");
    ("client.install_spread_ms", "ms");
    ("client.member_install_us", "us");
    ("client.admit_ms", "ms");
    ("client.nacks_sent", "count");
    ("client.auth_dropped", "count");
    ("client.replays_dropped", "count");
    ("gc.alloc_mb_per_rekey", "MB");
    ("gc.major_collections_per_rekey", "count");
    ("wall.rekey_p50_ms", "ms");
    ("wall.rekey_p90_ms", "ms");
    ("wall.churn_ops_per_s", "1/s");
    ("host.probe_ms", "ms");
    ("trace.overhead_pct", "%");
  ]

type t = {
  e2e : metric list;  (* untraced run: the end-to-end metrics *)
  wall : metric list;  (* its timings in wall time, for the log *)
  layer : (string * float) list;  (* traced run: the per-layer metrics *)
  ops : ops list;
  samples : (string * int) list;  (* sample count behind each percentile *)
  checks : string list;  (* every failed correctness check, for the log *)
  overhead : (string * float * float) list;  (* metric, untraced, traced *)
  notes : string list;  (* reference figures for the log *)
}

(* The measured-phase timings, from raw samples: per-rekey latencies
   and per-interval busy times, each with the reference probes around
   its interval. Reported in reference units ([Stat.at_ref]), and in
   wall time for the log. *)
let timings ~(lat_ms : Stat.sample list) ~(busy_s : Stat.sample list) ~churn_ops =
  let figures ~ms ~per_s f =
    let lat = List.map f lat_ms in
    [
      m "rekey_p50_ms" ms (Stat.median lat);
      m "rekey_p90_ms" ms (Stat.quantile lat 0.9);
      m "churn_ops_per_s" per_s (float_of_int churn_ops /. Stat.sum (List.map f busy_s));
    ]
  in
  (figures ~ms:"ref-ms" ~per_s:"1/ref-s" Stat.at_ref, figures ~ms:"ms" ~per_s:"1/s" (fun s -> s.Stat.wall))

(* The wall figures and mean probe of an untraced stretch, reported
   beside the per-layer metrics of a traced run. *)
let wall_layer ~lat_ms ~busy_s ~churn_ops =
  let _, wall = timings ~lat_ms ~busy_s ~churn_ops in
  List.map (fun x -> l ("wall." ^ x.name) x.value) wall
  @ [ l "host.probe_ms" (Stat.mean (List.map (fun s -> s.Stat.ref_ms) busy_s)) ]

(* Failed checks are kept for the log, at most [cap] of them. *)
let cap = 20

let check failures ok fmt =
  Printf.ksprintf
    (fun msg -> if (not ok) && List.length !failures < cap then failures := msg :: !failures)
    fmt

let print_human ~workload ~seed ~trace ~host_before ~host_after r =
  Printf.printf "workload %s seed %d trace %d\n" workload seed (if trace then 1 else 0);
  List.iter (fun (n, k) -> Printf.printf "  samples %-28s %d\n" n k) r.samples;
  List.iter
    (fun o -> Printf.printf "  ops %-10s attempted %6d  failed %d\n" o.kind o.attempted o.failed)
    r.ops;
  List.iter (fun x -> Printf.printf "  %-34s %14.4f %s\n" x.name x.value x.unit_) r.e2e;
  List.iter (fun x -> Printf.printf "  %-34s %14.4f %s (wall)\n" x.name x.value x.unit_) r.wall;
  if trace then
    List.iter
      (fun (name, unit_) ->
        match List.assoc_opt name r.layer with
        | Some v -> Printf.printf "  %-34s %14.4f %s\n" name v unit_
        | None -> Printf.printf "  %-34s %14s\n" name "n/a")
      layer_metrics;
  List.iter (fun n -> Printf.printf "  %s\n" n) r.notes;
  List.iter (fun c -> Printf.printf "  CHECK FAILED: %s\n" c) (List.rev r.checks);
  Printf.printf "  host_ref_ms before %.3f after %.3f\n" host_before host_after

(* No samples (a run cut short by a failure) prints as null. *)
let json_number v =
  if Float.is_nan v then "null" else if Float.is_integer v then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let print_json r ~trace =
  let metrics =
    if not trace then r.e2e
    else
      List.map
        (fun (name, unit_) ->
          m name unit_ (Option.value ~default:0.0 (List.assoc_opt name r.layer)))
        layer_metrics
  in
  let attempted = List.fold_left (fun a o -> a + o.attempted) 0 r.ops in
  let failed = List.fold_left (fun a o -> a + o.failed) 0 r.ops in
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.checks = []) attempted failed body
