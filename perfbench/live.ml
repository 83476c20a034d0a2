(* The live workloads: a real [Gkm_netd.Server] and its
   [Gkm_netd.Client] members on loopback, all on this thread's one
   [Gkm_netd.Loop], with the server at [domains = 1].

   The benchmark drives the rekey itself in a closed loop. Each
   interval it connects the interval's joiners and sends the previous
   joiners' LEAVEs, runs the loop until the JOINs and LEAVEs show up in
   [Server.stats], calls [Server.tick_now], and runs the loop until
   every member holds the new DEK. The server's [tp] is longer than any
   run, so its own timer never fires. The rekey latency of an interval
   is the time from [tick_now] to the last member's install.

   mcast-256 sends the generations over the UDP multicast data plane;
   unicast-128 over TCP, and after each interval drains, crash-kills
   and reconnects two members, which must come back by 0-RTT ticket. *)

module Loop = Gkm_netd.Loop
module Server = Gkm_netd.Server
module Client = Gkm_netd.Client
module Mcast = Gkm_netd.Mcast
module Msg = Gkm_wire.Msg
module Record = Gkm_record.Record
module Packet = Gkm_transport.Packet

type shape = {
  members : int;  (* long-lived members *)
  churn : int;  (* joins, and leaves of the previous joiners, per interval *)
  reconnects : int;  (* members crash-killed and reconnected after each interval *)
  udp : bool;
}

let mcast_shape = { members = 256; churn = 1; reconnects = 0; udp = true }
let unicast_shape = { members = 128; churn = 4; reconnects = 2; udp = false }

(* Longer than any run, so the server's interval timer never fires;
   10^6 s is 10^9 ms, inside HELLO_ACK's i32 millisecond field. *)
let tp = 1e6
let k = Gkm_analytic.Params.default.k
let setups = 9
let wait_limit = 10.0
let join_wave = 100

type group = {
  shape : shape;
  loop : Loop.t;
  srv : Server.t;
  mcast : Mcast.group option;
  stable : Client.t array;
  dek_rekey : int array;  (* last rekey_no each long-lived member installed *)
  dek_time : float array;  (* ... and when *)
  mutable joiners : (Client.t * float * float ref) list;  (* current joiners: connect time, admit time *)
  mutable left : (Client.t * int) list;
      (* the last [left_window] departed joiners, with the first rekey they must not hold *)
  mutable next_seed : int;
  mutable cursor : int;  (* round-robin reconnect victim *)
  failures : string list ref;
}

let wait g cond =
  let deadline = Stat.now () +. wait_limit in
  Trace.span "loop.run" (fun () -> Loop.run g.loop ~until:(fun () -> cond () || Stat.now () > deadline));
  cond ()

let connect g ~seed =
  Trace.span "client.connect" (fun () ->
      Client.connect ~loop:g.loop { (Client.config ~port:(Server.port g.srv)) with seed; mcast = g.mcast })

let all_members g = Array.for_all Client.is_member g.stable

let caught_up g =
  let r = Server.rekey_no g.srv in
  Array.for_all (fun c -> Client.is_member c && Client.last_rekey c >= r) g.stable

(* A fresh server, every long-lived member admitted, and the S->L
   migration of the whole population drained. *)
let build shape ~seed ~failures =
  let loop = Loop.create () in
  let mcast = if shape.udp then Some (Mcast.ephemeral_group ~seed) else None in
  let org = Gkm.Organization.Scheme_cfg { kind = Tt; degree = 4; s_period = k; seed } in
  let srv =
    Server.create ~loop
      {
        Server.default_config with
        port = 0;
        org;
        tp;
        domains = 1;
        ticket_seed = seed;
        transport = (match mcast with Some g -> Server.udp g | None -> Server.Tcp);
      }
  in
  let n = shape.members in
  let dek_rekey = Array.make n (-1) and dek_time = Array.make n 0.0 in
  let g =
    {
      shape;
      loop;
      srv;
      mcast;
      stable = [||];
      dek_rekey;
      dek_time;
      joiners = [];
      left = [];
      next_seed = (seed * 7919) + n;
      cursor = 0;
      failures;
    }
  in
  let clients = Array.make n None in
  let ok = ref true in
  let rec waves i =
    if i < n && !ok then begin
      let hi = min n (i + join_wave) in
      for s = i to hi - 1 do
        let c = connect g ~seed:((seed * 7919) + s) in
        Client.on_dek c (fun ~rekey_no ~fp:_ ->
            dek_rekey.(s) <- rekey_no;
            dek_time.(s) <- Stat.now ());
        clients.(s) <- Some c
      done;
      ok := wait g (fun () -> (Server.stats srv).joins >= hi);
      waves hi
    end
  in
  waves 0;
  let g = { g with stable = Array.map Option.get clients } in
  let check cond what = if not cond then Report.check failures false "set-up: %s" what in
  check !ok "JOINs did not arrive";
  Server.tick_now srv;
  check (wait g (fun () -> all_members g)) "members were not admitted";
  (* Run quiet intervals until every member has migrated to the
     L-partition (at age K) and holds the current DEK. *)
  let migrated () = (Server.stats srv).migrations >= n in
  let rec storm i =
    if i <= k + 2 && not (migrated ()) then begin
      Server.tick_now srv;
      ignore (wait g (fun () -> caught_up g));
      storm (i + 1)
    end
  in
  storm 0;
  check (migrated ()) "the S->L migration did not happen";
  check (wait g (fun () -> caught_up g)) "members did not catch up after the migration";
  g

let stop g =
  List.iter (fun (c, _, _) -> Client.kill c) g.joiners;
  Array.iter Client.kill g.stable;
  Server.stop g.srv

(* Measured-phase samples. *)
type samples = {
  mutable lat_ms : Stat.sample list;  (* tick_now to the last member's install *)
  mutable first_ms : float list;  (* tick_now to the first member's install *)
  mutable spread_ms : float list;  (* first to last install *)
  mutable admit_ms : float list;  (* connect to JOIN_ACK install *)
  mutable rejoin_ms : float list;  (* reconnect to REJOIN_ACK install *)
  mutable busy_s : Stat.sample list;  (* whole intervals *)
  mutable churn_ops : int;
  mutable first_rekey : int;
  mutable last_rekey : int;
}

let samples () =
  {
    lat_ms = [];
    first_ms = [];
    spread_ms = [];
    admit_ms = [];
    rejoin_ms = [];
    busy_s = [];
    churn_ops = 0;
    first_rekey = max_int;
    last_rekey = 0;
  }

type ops = { rekeys : Report.ops; joins : Report.ops; leaves : Report.ops; reconnects : Report.ops }

(* In the traced run, one member's records of each generation are kept
   and opened again by the benchmark after the interval, so the record,
   wire and org layers are measured on the live generations too. *)
type capture = { mutable records : (int64 * bytes) list; mutable dek : Gkm_crypto.Key.t option }

let capture = { records = []; dek = None }

let reopen ~label =
  match capture.dek with
  | None -> ()
  | Some dek ->
      let records = List.rev capture.records in
      capture.records <- [];
      let opened =
        Trace.span "record.open" (fun () ->
            let sink = Record.Sink.create (Record.Epoch.of_dek ~dek ~label) in
            List.filter_map (fun (seq, ct) -> Result.to_option (Record.Sink.open_ sink ~seq ct)) records)
      in
      let entries =
        Trace.span "wire.decode" (fun () ->
            List.concat_map
              (fun pt ->
                match Msg.decode_inner pt with
                | Ok (Msg.Rekey r) -> Result.value ~default:[] (Packet.decode_payload r.packet.payload)
                | _ -> [])
              opened)
      in
      Trace.count "record.sealed_bytes" (float_of_int (List.fold_left (fun a (_, ct) -> a + Bytes.length ct) 0 records));
      Trace.count "wire.packets" (float_of_int (List.length opened));
      Trace.count "org.keys" (float_of_int (List.length entries))

(* A departed joiner holds no DEK from the rekey that removed it on. *)
let check_left g (c, gone) =
  List.iter
    (fun (r, _) ->
      Report.check g.failures (r < gone) "departed joiner holds the DEK of rekey %d (left at %d)" r gone)
    (Client.dek_trace c)

(* Departed joiners kept for the end-of-run check; older ones are
   checked when they drop out, so the run does not hoard clients. *)
let left_window = 16

(* One closed-loop interval. *)
let interval g s ops =
  let n = g.shape.members in
  let st0 = Server.stats g.srv in
  let joins0 = st0.joins and leaves0 = st0.leaves in
  let target = Server.rekey_no g.srv + 1 in
  let label = Server.epoch g.srv in
  (* Host probes: before and after the interval, and on each side of
     the rekey itself, outside its latency. *)
  let ps = Stat.probes () in
  let t_start = Stat.now () in
  let fresh =
    List.init g.shape.churn (fun _ ->
        g.next_seed <- g.next_seed + 1;
        let c = connect g ~seed:g.next_seed in
        let admitted = ref 0.0 in
        Client.on_dek c (fun ~rekey_no:_ ~fp:_ -> if !admitted = 0.0 then admitted := Stat.now ());
        (c, Stat.now (), admitted))
  in
  let leaving = g.joiners in
  List.iter (fun (c, _, _) -> Trace.span "client.leave" (fun () -> Client.leave c)) leaving;
  let arrived =
    wait g (fun () ->
        let st = Server.stats g.srv in
        st.joins >= joins0 + g.shape.churn && st.leaves >= leaves0 + List.length leaving)
  in
  if Trace.enabled.contents then capture.dek <- Client.group_key g.stable.(0);
  let p_tick = Stat.probe_inside ps in
  (* This probe falls inside the joiners' admission: left out of it. *)
  let tick_probe_s = ps.inside_s in
  let t0 = Stat.now () in
  Trace.span "server.tick" (fun () -> Server.tick_now g.srv);
  let ticked = Server.rekey_no g.srv = target in
  let done_ =
    wait g (fun () -> caught_up g && List.for_all (fun (c, _, _) -> Client.is_member c) fresh)
  in
  let p_done = Stat.probe_inside ps in
  let ok = arrived && ticked && done_ in
  if not ok then
    Report.check g.failures false "rekey %d: %s" target
      (if not arrived then "JOIN/LEAVE did not arrive"
       else if not ticked then "tick produced no rekey"
       else "members did not install the DEK in time");
  let first = ref infinity and last = ref 0.0 in
  Array.iteri
    (fun i r ->
      if r = target then begin
        first := Float.min !first g.dek_time.(i);
        last := Float.max !last g.dek_time.(i)
      end)
    g.dek_rekey;
  List.iter (fun (_, _, a) -> last := Float.max !last !a) fresh;
  Report.attempt ops.rekeys ok;
  List.iter (fun (c, _, _) -> Report.attempt ops.joins (Client.is_member c)) fresh;
  List.iter (fun _ -> Report.attempt ops.leaves arrived) leaving;
  g.left <-
    List.filteri
      (fun i l ->
        i < left_window
        || begin
             check_left g l;
             false
           end)
      (List.map (fun (c, _, _) -> (c, target)) leaving @ g.left);
  g.joiners <- fresh;
  if ok then begin
    s.first_ms <- ((!first -. t0) *. 1e3) :: s.first_ms;
    s.spread_ms <- ((!last -. !first) *. 1e3) :: s.spread_ms;
    s.admit_ms <- List.map (fun (_, tc, a) -> (!a -. tc -. tick_probe_s) *. 1e3) fresh @ s.admit_ms;
    s.first_rekey <- min s.first_rekey target;
    s.last_rekey <- max s.last_rekey target
  end;
  if Trace.enabled.contents then reopen ~label;
  (* Crash-kill and reconnect: each victim is drained first (a PING/PONG
     barrier), so the ticket that rode along with the tick is in hand
     and the reconnect can be 0-RTT. *)
  if ok && g.shape.reconnects > 0 then begin
    let victims =
      List.init g.shape.reconnects (fun _ ->
          let v = g.cursor mod n in
          g.cursor <- g.cursor + 1;
          v)
    in
    let drained = ref 0 in
    List.iter
      (fun v ->
        let c = g.stable.(v) in
        Trace.span "client.drain" (fun () ->
            Client.drain c (fun () ->
                Client.kill c;
                incr drained)))
      victims;
    let killed = wait g (fun () -> !drained = List.length victims) in
    let st = Server.stats g.srv in
    let r0 = st.rejoins_0rtt and full0 = st.rejoins_full and resync0 = st.resyncs in
    let resyncs_before = List.map (fun v -> Client.resyncs g.stable.(v)) victims in
    let t_r = Stat.now () in
    List.iter
      (fun v ->
        g.dek_rekey.(v) <- -1;
        Trace.span "client.reconnect" (fun () -> Client.reconnect g.stable.(v)))
      victims;
    let back = wait g (fun () -> List.for_all (fun v -> Client.is_member g.stable.(v)) victims) in
    let st = Server.stats g.srv in
    let zero_rtt =
      st.rejoins_0rtt - r0 = List.length victims
      && st.rejoins_full = full0 && st.resyncs = resync0
      && List.for_all2 (fun v r -> Client.resyncs g.stable.(v) = r) victims resyncs_before
    in
    List.iter
      (fun v ->
        let ok = killed && back && zero_rtt in
        (* The REJOIN_ACK install reports its DEK through [on_dek]. *)
        if ok && g.dek_rekey.(v) >= 0 then s.rejoin_ms <- ((g.dek_time.(v) -. t_r) *. 1e3) :: s.rejoin_ms;
        Report.attempt ops.reconnects ok)
      victims;
    if not (killed && back && zero_rtt) then
      Report.check g.failures false "rekey %d: reconnect %s" target
        (if not (killed && back) then "did not complete in time" else "was not answered by a 0-RTT rejoin")
  end;
  let busy = Stat.now () -. t_start -. ps.inside_s in
  let ref_ms = Stat.close ps in
  if ok then s.lat_ms <- { Stat.wall = (!last -. t0) *. 1e3; ref_ms = (p_tick +. p_done) /. 2.0 } :: s.lat_ms;
  s.busy_s <- { Stat.wall = busy; ref_ms } :: s.busy_s;
  s.churn_ops <- s.churn_ops + List.length fresh + List.length leaving;
  ok

let measure g s ops ~seconds =
  let t_end = Stat.now () +. seconds in
  let rec go () =
    if Stat.now () < t_end then begin
      Trace.interval := Server.rekey_no g.srv + 1;
      if Trace.span "interval" (fun () -> interval g s ops) then go ()
    end
  in
  go ()

(* Every member's DEK trace over the measured rekeys equals the
   server's; no departed joiner holds a DEK from the rekey that removed
   it on. *)
let check_traces g s =
  let truth = Hashtbl.create 256 in
  List.iter (fun (r, fp) -> Hashtbl.replace truth r fp) (Server.dek_trace g.srv);
  let check ok fmt = Report.check g.failures ok fmt in
  Array.iteri
    (fun i c ->
      let seen = Hashtbl.create 256 in
      List.iter (fun (r, fp) -> Hashtbl.replace seen r fp) (Client.dek_trace c);
      for r = s.first_rekey to s.last_rekey do
        check (Hashtbl.find_opt seen r = Hashtbl.find_opt truth r && Hashtbl.mem truth r)
          "member %d: DEK of rekey %d differs from the server's" i r
      done)
    g.stable;
  List.iter
    (fun (c, _, _) ->
      List.iter
        (fun (r, fp) -> check (Hashtbl.find_opt truth r = Some fp) "joiner: DEK of rekey %d differs" r)
        (Client.dek_trace c))
    g.joiners;
  List.iter (check_left g) g.left

let server_bytes g = Server.bytes_tx g.srv + (Server.stats g.srv).mcast_bytes

let run shape ~seed ~seconds ~trace =
  if shape.udp && not (Mcast.available ()) then failwith "the kernel refused a loopback multicast join";
  let failures = ref [] in
  let g, setup0 = Stat.time (fun () -> build shape ~seed ~failures) in
  let ops =
    { rekeys = Report.ops "rekey"; joins = Report.ops "join"; leaves = Report.ops "leave"; reconnects = Report.ops "reconnect" }
  in
  let op_list = [ ops.rekeys; ops.joins; ops.leaves ] @ if shape.reconnects > 0 then [ ops.reconnects ] else [] in
  let seconds = float_of_int seconds in
  let n_samples s = [ ("rekey (every member)", List.length s.lat_ms); ("join admission", List.length s.admit_ms) ]
    @ if shape.reconnects > 0 then [ ("reconnect", List.length s.rejoin_ms) ] else []
  in
  if not trace then begin
    let s = samples () in
    let b0 = server_bytes g and r0 = (Server.stats g.srv).rekeys in
    measure g s ops ~seconds;
    let bytes = server_bytes g - b0 and rekeys = (Server.stats g.srv).rekeys - r0 in
    check_traces g s;
    let heap = Stat.heap_peak_mb () in
    stop g;
    let at_ref, wall = Report.timings ~lat_ms:s.lat_ms ~busy_s:s.busy_s ~churn_ops:s.churn_ops in
    let e2e =
      at_ref
      @ [
          Report.m "server_bytes_per_rekey" "B" (float_of_int bytes /. float_of_int rekeys);
          Report.m "heap_peak_mb" "MB" heap;
        ]
    in
    let setup_times =
      setup0
      :: List.init (setups - 1) (fun _ ->
             Gc.compact ();
             let g, dt = Stat.time (fun () -> build shape ~seed ~failures) in
             stop g;
             dt)
    in
    {
      Report.e2e = Report.m "setup_s" "s" (Stat.median setup_times) :: e2e;
      wall;
      layer = [];
      ops = op_list;
      samples = n_samples s @ [ ("setup", List.length setup_times) ];
      checks = !failures;
      overhead = [];
      notes = [];
    }
  end
  else begin
    let untraced = samples () in
    measure g untraced ops ~seconds:(seconds /. 2.0);
    let s = samples () in
    Trace.enabled := true;
    Client.on_sealed g.stable.(0) (fun ~epoch:_ ~seq ~ct ->
        if Int64.compare seq 0L >= 0 then capture.records <- (seq, ct) :: capture.records);
    (* With domains = 1 [Server.stats] is the live record: copy it. *)
    let st0 = Server.stats g.srv in
    let st0 = { st0 with rekeys = st0.rekeys } in
    let tx0 = Server.bytes_tx g.srv in
    let client_counts () =
      Array.fold_left
        (fun (a, b, c) cl -> (a + Client.nacks_sent cl, b + Client.auth_dropped cl, c + Client.replays_dropped cl))
        (0, 0, 0) g.stable
    in
    let c0 = client_counts () in
    let g0 = Stat.gc () in
    measure g s ops ~seconds:(seconds /. 2.0);
    let g1 = Stat.gc () in
    Trace.enabled := false;
    check_traces g s;
    let st = Server.stats g.srv in
    let nacks, auth, replays =
      let a, b, c = client_counts () and a0, b0, c0 = c0 in
      (a - a0, b - b0, c - c0)
    in
    stop g;
    let rekeys = float_of_int (st.rekeys - st0.rekeys) in
    let p50 s = Stat.median (List.map Stat.at_ref s.lat_ms) in
    let per x = float_of_int x /. rekeys in
    let med name = Stat.median (Trace.durations_ms name) in
    let sealed_kb = Stat.sum (Trace.counted "record.sealed_bytes") /. 1024.0 in
    let reopened = float_of_int (List.length (Trace.counted "org.keys")) in
    let rejoins =
      if shape.reconnects = 0 then []
      else
        [
          Report.l "server.rejoin_ms" (Stat.median s.rejoin_ms);
          Report.l "server.rejoins_0rtt" (float_of_int (st.rejoins_0rtt - st0.rejoins_0rtt));
        ]
    in
    let layer =
      rejoins @ [
        Report.l "org.keys_per_rekey" (Stat.sum (Trace.counted "org.keys") /. reopened);
        Report.l "wire.decode_ms" (med "wire.decode");
        Report.l "wire.packets_per_rekey" (Stat.sum (Trace.counted "wire.packets") /. reopened);
        Report.l "record.open_ms" (med "record.open");
        Report.l "record.open_us_per_kb" (Trace.total_ms "record.open" *. 1e3 /. sealed_kb);
        Report.l "record.bytes_per_rekey" (Stat.sum (Trace.counted "record.sealed_bytes") /. reopened);
        Report.l "server.tick_ms" (med "server.tick");
        Report.l "server.tcp_bytes_per_rekey" (per (Server.bytes_tx g.srv - tx0));
        Report.l "server.mcast_bytes_per_rekey" (per (st.mcast_bytes - st0.mcast_bytes));
        Report.l "server.tickets_per_rekey" (per (st.tickets_issued - st0.tickets_issued));
        Report.l "server.ticket_bytes_per_rekey" (per (st.ticket_bytes - st0.ticket_bytes));
        Report.l "server.nacks" (float_of_int (st.nacks - st0.nacks));
        Report.l "server.retx_packets" (float_of_int (st.retx_packets - st0.retx_packets));
        Report.l "server.resyncs" (float_of_int (st.resyncs - st0.resyncs));
        Report.l "server.soft_skips" (float_of_int (st.soft_skips - st0.soft_skips));
        Report.l "server.mcast_fallback_unicast"
          (float_of_int (st.mcast_fallback_unicast - st0.mcast_fallback_unicast));
        Report.l "client.first_install_ms" (Stat.median s.first_ms);
        Report.l "client.install_spread_ms" (Stat.median s.spread_ms);
        Report.l "client.member_install_us"
          (Stat.median (List.map (fun x -> x *. 1e3 /. float_of_int (shape.members - 1)) s.spread_ms));
        Report.l "client.admit_ms" (Stat.median s.admit_ms);
        Report.l "client.nacks_sent" (float_of_int nacks);
        Report.l "client.auth_dropped" (float_of_int auth);
        Report.l "client.replays_dropped" (float_of_int replays);
        Report.l "gc.alloc_mb_per_rekey" (Stat.alloc_mb g0 g1 /. rekeys);
        Report.l "gc.major_collections_per_rekey" (float_of_int (g1.major - g0.major) /. rekeys);
        Report.l "trace.overhead_pct" (100.0 *. ((p50 s /. p50 untraced) -. 1.0));
      ]
      @ Report.wall_layer ~lat_ms:untraced.lat_ms ~busy_s:untraced.busy_s ~churn_ops:untraced.churn_ops
    in
    {
      Report.e2e = [];
      wall = [];
      layer;
      ops = op_list;
      samples = n_samples s;
      checks = !failures;
      overhead = [ ("rekey_p50_ms", p50 untraced, p50 s) ];
      notes = [];
    }
  end

let run_mcast = run mcast_shape
let run_unicast = run unicast_shape
