(* paper-65k: the paper's Table 1 group (N = 65536, d = 4, K = 10,
   alpha = 0.8, Tp = 60 s) under TT, in process and without sockets.

   Each interval does what [Gkm_netd.Server.tick] does before it writes
   to sockets — rekey, pack the entries into packets, encode each as an
   inner REKEY message, seal it under the outgoing generation — and
   then one probe receiver opens every record, decodes it and feeds the
   entries to its [Gkm_lkh.Member]. The rekey latency of an interval is
   the time from the start of [rekey] to the probe holding the new DEK;
   churn throughput also counts the registrations and departures. The
   S->L migration of the starting population (the first
   K+1 intervals) is set-up. *)

module Organization = Gkm.Organization
module Membership = Gkm_workload.Membership
module Params = Gkm_analytic.Params
module Two_partition = Gkm_analytic.Two_partition
module Member = Gkm_lkh.Member
module Packet = Gkm_transport.Packet
module Msg = Gkm_wire.Msg
module Record = Gkm_record.Record
module Key = Gkm_crypto.Key

let p = Params.default
let capacity = Gkm_netd.Server.default_config.capacity
let org_tag = 2 (* TT's organization id on the wire *)
let setup_intervals = p.k + 1
let setups = 3
let long_probes = 4
let departed_probes = 8

(* The analytic TT cost at Table 1 and the one-keytree cost. The
   measured mean must lie within [cost_tolerance] of the first and
   below the second. *)
let analytic_tt = Two_partition.cost p Two_partition.Tt
let analytic_one = Two_partition.cost p Two_partition.One_keytree
let cost_tolerance = 0.10

(* The live server's datagram ceiling: a generation above it cannot go
   out as one multicast datagram. *)
let max_dgram =
  match Gkm_netd.Server.udp Gkm_netd.Mcast.default_group with Udp u -> u.max_dgram | Tcp -> 0

type batch = (int * Membership.cls) list * int list

let batches ~seed ~seconds =
  let cfg = Membership.of_params ~n_target:p.n ~alpha:p.alpha ~ms:p.ms ~ml:p.ml ~tp:p.tp in
  (* More intervals than any run of [seconds] gets through; a run that
     exhausts them stops early with whole intervals. *)
  let n_intervals = setup_intervals + 20 + (4 * seconds) in
  Membership.intervals cfg ~rng:(Gkm_crypto.Prng.create seed) ~n_intervals

let cls = function Membership.Short -> Gkm.Scheme.Short | Membership.Long -> Gkm.Scheme.Long

let churn (module O : Organization.S) ((joins, departs) : batch) =
  Trace.span "org.register" (fun () ->
      List.iter (fun (m, c) -> ignore (O.register ~member:m ~cls:(cls c) ~loss:0.0)) joins);
  Trace.span "org.depart" (fun () -> List.iter O.enqueue_departure departs)

(* Register the starting population and run the first K+1 intervals:
   the S->L migration of that population. *)
let build ~seed batches =
  let org = Organization.create (Organization.Scheme_cfg { kind = Tt; degree = p.d; s_period = p.k; seed }) in
  let module O = (val org) in
  let rec go i = function
    | b :: rest when i < setup_intervals ->
        churn org b;
        ignore (O.rekey ());
        go (i + 1) rest
    | rest -> rest
  in
  let rest = go 0 batches in
  (org, rest)

let member_of (module O : Organization.S) id =
  match O.member_path id with
  | [] -> invalid_arg "empty member path"
  | (leaf, key) :: _ as path ->
      let m = Member.create ~id ~leaf_node:leaf ~individual_key:key in
      Member.install_path m path;
      Member.set_root m (fst (List.nth path (List.length path - 1)));
      m

type state = {
  org : Organization.packed;
  mutable rest : batch list;
  receiver : Member.t;  (* opens every record *)
  probes : Member.t list;  (* long-lived: must hold the DEK after every interval *)
  mutable departed : Member.t list;  (* departed: must never hold a later DEK *)
  mutable label : int;  (* epoch label of the outgoing generation *)
  mutable rekey_no : int;
  (* per-interval samples *)
  mutable lat_ms : Stat.sample list;
  mutable keys : int list;
  mutable gen_bytes : int list;  (* sealed generation as one datagram *)
  mutable sealed_bytes : int list;  (* record ciphertexts *)
  mutable packets : int list;
  mutable opened : int;
  mutable useful : int;
  mutable busy_s : Stat.sample list;
  mutable churn_ops : int;
  rekeys : Report.ops;
  joins : Report.ops;
  leaves : Report.ops;
  failures : string list ref;
}

(* Long-lived probes: current members that no generated interval
   departs, lowest ids first (the ids come from the seeded workload). *)
let start org rest ~failures =
  let module O = (val org : Organization.S) in
  let leaving = Hashtbl.create 65536 in
  List.iter (fun (_, ds) -> List.iter (fun m -> Hashtbl.replace leaving m ()) ds) rest;
  let rec pick acc id =
    if List.length acc = long_probes + 1 then List.rev acc
    else if O.is_member id && not (Hashtbl.mem leaving id) then pick (member_of org id :: acc) (id + 1)
    else pick acc (id + 1)
  in
  match pick [] 0 with
  | receiver :: probes ->
      {
        org;
        rest;
        receiver;
        probes;
        departed = [];
        label = O.interval ();
        rekey_no = 0;
        lat_ms = [];
        keys = [];
        gen_bytes = [];
        sealed_bytes = [];
        packets = [];
        opened = 0;
        useful = 0;
        busy_s = [];
        churn_ops = 0;
        rekeys = Report.ops "rekey";
        joins = Report.ops "join";
        leaves = Report.ops "leave";
        failures;
      }
  | [] -> assert false

let dek_of m = match Member.group_key m with Some k -> k | None -> invalid_arg "probe without a DEK"

(* One interval: churn, rekey, encode, seal, open, decode, install. *)
let step st ((joins, departs) as batch : batch) =
  let module O = (val st.org : Organization.S) in
  let check ok fmt = Report.check st.failures ok fmt in
  (* Key a probe for one member this interval departs, before it goes. *)
  (match List.find_opt O.is_member departs with
  | Some id -> st.departed <- member_of st.org id :: List.filteri (fun i _ -> i < departed_probes - 1) st.departed
  | None -> ());
  let server_dek = Option.get (O.group_key ()) in
  let label = st.label in
  (* An interval takes most of a second, longer than the host keeps one
     speed: probe it between stages too. *)
  let ps = Stat.probes () in
  let t_churn = Stat.now () in
  let t0 = ref t_churn in
  let result =
    Trace.span "interval" (fun () ->
        churn st.org batch;
        t0 := Stat.now ();
        match Trace.span "org.rekey" O.rekey with
        | None -> Error "no rekey"
        | Some msg ->
            let inners =
              Trace.span "wire.encode" (fun () ->
                  let packets = Array.of_list (Packet.encode_entries ~capacity_bytes:capacity msg.entries) in
                  let total = Array.length packets in
                  Array.mapi
                    (fun seq packet ->
                      Msg.encode_inner
                        (Msg.Rekey
                           { rekey_no = st.rekey_no + 1; org = org_tag; epoch = msg.epoch; root = msg.root_node; seq; total; packet }))
                    packets)
            in
            ignore (Stat.probe_inside ps);
            let records =
              Trace.span "record.seal" (fun () ->
                  let seal = Record.Seal.create (Record.Epoch.of_dek ~dek:server_dek ~label) in
                  Array.map (Record.Seal.seal seal) inners)
            in
            ignore (Stat.probe_inside ps);
            let opened =
              Trace.span "record.open" (fun () ->
                  let sink = Record.Sink.create (Record.Epoch.of_dek ~dek:(dek_of st.receiver) ~label) in
                  Array.map (fun (seq, ct) -> Record.Sink.open_ sink ~seq ct) records)
            in
            let entries =
              Trace.span "wire.decode" (fun () ->
                  Array.map
                    (function
                      | Error _ -> Error "record did not open"
                      | Ok pt -> (
                          match Msg.decode_inner pt with
                          | Ok (Msg.Rekey r) -> Packet.decode_payload r.packet.payload
                          | Ok _ -> Error "not a REKEY"
                          | Error e -> Error e))
                    opened)
            in
            let useful =
              Trace.span "member.process" (fun () ->
                  let n = ref 0 in
                  Array.iter
                    (function
                      | Ok es -> List.iter (fun e -> if Member.process_entry st.receiver e then incr n) es
                      | Error _ -> ())
                    entries;
                  Member.set_root st.receiver msg.root_node;
                  !n)
            in
            Ok (msg, inners, records, opened, entries, useful))
  in
  let t1 = Stat.now () -. ps.inside_s in
  let ref_ms = Stat.close ps in
  (* A join or departure succeeds with its interval's rekey. *)
  let outcome ok =
    Report.attempt st.rekeys ok;
    List.iter (fun _ -> Report.attempt st.joins ok) joins;
    List.iter (fun _ -> Report.attempt st.leaves ok) departs
  in
  match result with
  | Error e ->
      check false "interval %d: %s" st.rekey_no e;
      outcome false
  | Ok (msg, inners, records, opened, entries, useful) ->
      st.rekey_no <- st.rekey_no + 1;
      st.label <- msg.epoch;
      let dek = Option.get (O.group_key ()) in
      let ok = ref true in
      let verify cond fmt =
        if not cond then ok := false;
        check cond fmt
      in
      Array.iteri
        (fun i r ->
          verify (match r with Ok pt -> Bytes.equal pt inners.(i) | Error _ -> false)
            "rekey %d: record %d does not open to its inner message" st.rekey_no i)
        opened;
      let all = List.concat_map (function Ok es -> es | Error _ -> []) (Array.to_list entries) in
      verify (List.length all = List.length msg.entries) "rekey %d: decoded %d of %d entries" st.rekey_no
        (List.length all) (List.length msg.entries);
      List.iter
        (fun m ->
          List.iter (fun e -> ignore (Member.process_entry m e)) all;
          Member.set_root m msg.root_node)
        (st.probes @ st.departed);
      List.iter
        (fun m ->
          verify (Option.equal Key.equal (Member.group_key m) (Some dek))
            "rekey %d: probe %d does not hold the DEK" st.rekey_no (Member.id m))
        (st.receiver :: st.probes);
      List.iter
        (fun m ->
          verify (not (Option.equal Key.equal (Member.group_key m) (Some dek)))
            "rekey %d: departed probe %d recovered the DEK" st.rekey_no (Member.id m))
        st.departed;
      outcome !ok;
      st.lat_ms <- { Stat.wall = (t1 -. !t0) *. 1e3; ref_ms } :: st.lat_ms;
      st.busy_s <- { Stat.wall = t1 -. t_churn; ref_ms } :: st.busy_s;
      st.churn_ops <- st.churn_ops + List.length joins + List.length departs;
      st.keys <- List.length msg.entries :: st.keys;
      st.packets <- Array.length inners :: st.packets;
      st.sealed_bytes <- Array.fold_left (fun a (_, ct) -> a + Bytes.length ct) 0 records :: st.sealed_bytes;
      st.gen_bytes <- Gkm_wire.Dgram.encoded_size (Array.to_list records) :: st.gen_bytes;
      st.opened <- st.opened + List.length all;
      st.useful <- st.useful + useful;
      Trace.count "org.keys" (float_of_int (List.length msg.entries));
      Trace.count "org.joins" (float_of_int (List.length joins));
      Trace.count "record.sealed_bytes" (float_of_int (List.hd st.sealed_bytes));
      Trace.count "member.useful" (float_of_int useful);
      Trace.count "member.opened" (float_of_int (List.length all))

(* Run intervals for [seconds] (or until the generated ones run out). *)
let measure st ~seconds =
  let t_end = Stat.now () +. seconds in
  let rec loop () =
    match st.rest with
    | b :: rest when Stat.now () < t_end ->
        st.rest <- rest;
        Trace.interval := st.rekey_no + 1;
        step st b;
        loop ()
    | _ -> ()
  in
  loop ()

let reset st =
  st.lat_ms <- [];
  st.keys <- [];
  st.gen_bytes <- [];
  st.sealed_bytes <- [];
  st.packets <- [];
  st.opened <- 0;
  st.useful <- 0;
  st.busy_s <- [];
  st.churn_ops <- 0

let fl = List.map float_of_int

let run ~seed ~seconds ~trace =
  let failures = ref [] in
  let all = batches ~seed ~seconds in
  let (org, rest), setup0 = Stat.time (fun () -> build ~seed all) in
  let st = start org rest ~failures in
  let seconds = float_of_int seconds in
  if not trace then begin
    measure st ~seconds;
    let heap = Stat.heap_peak_mb () in
    let mean_keys = Stat.mean (fl st.keys) in
    Report.check failures
      (Float.abs (mean_keys -. analytic_tt) <= cost_tolerance *. analytic_tt && mean_keys < analytic_one)
      "mean keys per interval %.1f: analytic TT cost %.1f (tolerance %.0f%%), one-keytree %.1f" mean_keys
      analytic_tt (100.0 *. cost_tolerance) analytic_one;
    let at_ref, wall = Report.timings ~lat_ms:st.lat_ms ~busy_s:st.busy_s ~churn_ops:st.churn_ops in
    let e2e =
      at_ref @ [ Report.m "server_bytes_per_rekey" "B" (Stat.mean (fl st.gen_bytes)); Report.m "heap_peak_mb" "MB" heap ]
    in
    let n = List.length st.lat_ms and ops = [ st.rekeys; st.joins; st.leaves ] and st_gen = st.gen_bytes in
    (* The measured group is garbage from here on: each repeat set-up
       starts from a compacted heap, as the first one did. *)
    let setup_times =
      setup0
      :: List.init (setups - 1) (fun _ ->
             Gc.compact ();
             snd (Stat.time (fun () -> build ~seed all)))
    in
    {
      Report.e2e = Report.m "setup_s" "s" (Stat.median setup_times) :: e2e;
      wall;
      layer = [];
      ops;
      notes =
        [
          Printf.sprintf "mean keys per interval %.1f (analytic TT %.1f, one-keytree %.1f)" mean_keys analytic_tt
            analytic_one;
          Printf.sprintf "sealed generation %d..%d B as one datagram (datagram ceiling %d B)"
            (List.fold_left min max_int st_gen) (List.fold_left max 0 st_gen) max_dgram;
        ];
      samples = [ ("rekey (probe receiver)", n); ("setup", List.length setup_times) ];
      checks = !failures;
      overhead = [];
    }
  end
  else begin
    (* Untraced half, then traced half on the same group. *)
    measure st ~seconds:(seconds /. 2.0);
    let untraced_p50 = Stat.median (List.map Stat.at_ref st.lat_ms) in
    let wall = Report.wall_layer ~lat_ms:st.lat_ms ~busy_s:st.busy_s ~churn_ops:st.churn_ops in
    reset st;
    Trace.enabled := true;
    let g0 = Stat.gc () in
    measure st ~seconds:(seconds /. 2.0);
    let g1 = Stat.gc () in
    Trace.enabled := false;
    let traced_p50 = Stat.median (List.map Stat.at_ref st.lat_ms) in
    let rekeys = float_of_int (List.length st.lat_ms) in
    let med name = Stat.median (Trace.durations_ms name) in
    let seal_kb = Stat.sum (Trace.counted "record.sealed_bytes") /. 1024.0 in
    let keys = Stat.sum (Trace.counted "org.keys") in
    let registers = Stat.sum (Trace.counted "org.joins") in
    let layer =
      [
        Report.l "org.rekey_ms" (med "org.rekey");
        Report.l "org.us_per_key" (Trace.total_ms "org.rekey" *. 1e3 /. keys);
        Report.l "org.register_us" (Trace.total_ms "org.register" *. 1e3 /. registers);
        Report.l "org.keys_per_rekey" (keys /. rekeys);
        Report.l "wire.encode_ms" (med "wire.encode");
        Report.l "wire.decode_ms" (med "wire.decode");
        Report.l "wire.packets_per_rekey" (Stat.mean (fl st.packets));
        Report.l "record.seal_ms" (med "record.seal");
        Report.l "record.seal_us_per_kb" (Trace.total_ms "record.seal" *. 1e3 /. seal_kb);
        Report.l "record.open_ms" (med "record.open");
        Report.l "record.open_us_per_kb" (Trace.total_ms "record.open" *. 1e3 /. seal_kb);
        Report.l "record.bytes_per_rekey" (Stat.mean (fl st.sealed_bytes));
        Report.l "member.process_us" (med "member.process" *. 1e3);
        Report.l "member.useful_ratio" (float_of_int st.useful /. float_of_int st.opened);
        Report.l "gc.alloc_mb_per_rekey" (Stat.alloc_mb g0 g1 /. rekeys);
        Report.l "gc.major_collections_per_rekey" (float_of_int (g1.major - g0.major) /. rekeys);
        Report.l "trace.overhead_pct" (100.0 *. ((traced_p50 /. untraced_p50) -. 1.0));
      ]
      @ wall
    in
    {
      Report.e2e = [];
      wall = [];
      layer;
      ops = [ st.rekeys; st.joins; st.leaves ];
      samples = [ ("rekey traced", List.length st.lat_ms) ];
      checks = !failures;
      overhead = [ ("rekey_p50_ms", untraced_p50, traced_p50) ];
      notes = [];
    }
  end
