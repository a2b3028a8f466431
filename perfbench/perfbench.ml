(* The repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               [--commit ID] [--source-digest HEX]

   Workloads: mix-nizk and mix-trap run whole Atom rounds through the node
   runtime over the simulator transport (P-256, 160-byte messages);
   ingest-tcp drives the client submission plane over loopback TCP. With
   --trace 0 the run reports end-to-end metrics with tracing off; with
   --trace 1 it reports per-layer metrics from a traced repetition, the
   registries the runtime keeps, and the cost ledger. Every run checks the
   outputs. The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
   The run exits 1 after printing it when any output check failed. *)

open Atom_core
open Common

type workload = Mix of Mix.params | Ingest of Ingest.params

let workloads =
  [
    ( "mix-nizk",
      Mix
        {
          Mix.group_name = "p256";
          group = Atom_group.Registry.p256 ();
          variant = Config.Nizk;
          users = 4;
          msg_bytes = 160;
          probe_domains = 2;
        } );
    ( "mix-trap",
      Mix
        {
          Mix.group_name = "p256";
          group = Atom_group.Registry.p256 ();
          variant = Config.Trap;
          users = 4;
          msg_bytes = 160;
          probe_domains = 1;
        } );
    ("ingest-tcp", Ingest { Ingest.rate = 100.; epoch_s = 0.5; msg_bytes = 32 });
  ]

(* Ingest sessions per run: each sets the fleet up afresh, so set-up is
   sampled this many times. *)
let ingest_sessions = 5

let variant_name = function Config.Basic -> "basic" | Config.Nizk -> "nizk" | Config.Trap -> "trap"

(* ---- JSON output ---- *)

let json_string s = "\"" ^ Atom_obs.Trace.json_escape s ^ "\""

(* JSON has no NaN or infinity; a run that produces one is reported
   incorrect, and the value prints as 0 so the line still parses. *)
let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let metrics_json (ms : metric list) =
  json_object
    (List.map
       (fun mt ->
         (mt.name, json_object [ ("value", json_number mt.value); ("unit", json_string mt.unit_) ]))
       ms)

(* ---- per-layer assembly shared by both workload kinds ---- *)

let phase_metrics prefix (evs : Trace.event list) names =
  List.map (fun p -> m (Printf.sprintf "%s.phase.%s_s" prefix p) "s" (phase_total evs p)) names

(* The critical node track: with waiting dropped, the track whose last
   work segment closes last is the node that finished the round's work,
   and its total is its busy time. *)
let critical_busy (evs : Trace.event list) : float =
  let work = List.filter (fun (ev : Trace.event) -> not (List.mem ev.Trace.name waiting_phases)) evs in
  match Trace.Breakdown.critical work with None -> 0. | Some tr -> tr.Trace.Breakdown.total

(* Median over nodes of each node's histogram p50, among nodes that
   observed anything. *)
let node_p50 (regs : Atom_obs.Metrics.t list) (name : string) : float =
  median
    (List.filter_map
       (fun r ->
         match hist r name with
         | Some h when Atom_obs.Metrics.hist_count h > 0 -> Some (Atom_obs.Metrics.hist_quantile h 50.)
         | _ -> None)
       regs)

type pool_stats = { jobs : float; chunks : float; busy_s : float }

let pool_stats obs =
  let reg = Atom_obs.Ctx.metrics obs in
  {
    jobs = counter reg "exec.pool.jobs";
    chunks = counter reg "exec.pool.chunks";
    busy_s = hist_sum [ reg ] "exec.pool.worker_busy_seconds";
  }

let no_pool = { jobs = 0.; chunks = 0.; busy_s = 0. }

type layer_inputs = {
  ops : Atom_obs.Opcount.snapshot;
  node_events : Trace.event list;
  coord_events : Trace.event list;
  node_regs : Atom_obs.Metrics.t list;
  round_s : float; (* traced *)
  overhead : float; (* traced ÷ untraced round, both host-normalized, − 1 *)
  recovery_rounds : int;
  pool : pool_stats; (* pool work of the exec probe round *)
  pool_domains : int; (* 1 = no probe round *)
  pool_round_s : float; (* the probe round's round time *)
  frames_sent : float;
  bytes_sent : float;
  engine_events : int; (* simulator only *)
  costs : metric list;
}

let layer_metrics (li : layer_inputs) : metric list =
  let cost name = (List.find (fun mt -> mt.name = name) li.costs).value in
  let node_phase = phase_total li.node_events and coord_phase = phase_total li.coord_events in
  let compute_s =
    node_phase "shuffle" +. node_phase "reenc" +. node_phase "verify" +. node_phase "ingest"
    +. coord_phase "verify" +. coord_phase "decrypt"
  in
  let predicted = cost "group.predicted_s" in
  let node_sum name = sum_counter li.node_regs name in
  opcount_metrics li.ops
  @ li.costs
  @ [
      m "exec.pool.jobs" "count" li.pool.jobs;
      m "exec.pool.chunks" "count" li.pool.chunks;
      m "exec.pool.busy_frac" "ratio"
        (if li.pool_domains > 1 then
           li.pool.busy_s /. (float_of_int li.pool_domains *. li.pool_round_s)
         else 0.);
      m "wire.frames_sent" "count" li.frames_sent;
      m "wire.bytes_sent" "bytes" li.bytes_sent;
    ]
  @ phase_metrics "rpc" li.node_events
      [ "barrier"; "recv-wait"; "verify"; "shuffle"; "reenc"; "send"; "recovery"; "ingest" ]
  @ [
      m "rpc.critical_path_s" "s" (critical_busy li.node_events);
      m "rpc.steps" "count" (node_sum "node.steps");
      m "rpc.resends" "count" (node_sum "node.resends");
      m "rpc.dups_dropped" "count" (node_sum "node.dups_dropped");
      m "rpc.bad_frames" "count" (node_sum "node.bad_frames");
      m "rpc.step_flight_p50_s" "s" (node_p50 li.node_regs "node.step_flight_s");
    ]
  @ phase_metrics "coord" li.coord_events [ "send"; "recv-wait"; "verify"; "decrypt" ]
  @ [
      m "coord.round_s" "s" li.round_s;
      m "coord.recovery_rounds" "count" (float_of_int li.recovery_rounds);
      m "ledger.explained_frac" "ratio" (if compute_s > 0. then predicted /. compute_s else 0.);
      m "ledger.residue_s" "s" (compute_s -. predicted);
      m "sim.engine_events" "count" (float_of_int li.engine_events);
      m "trace.overhead_frac" "ratio" li.overhead;
    ]

(* Epoch rounds: seal → signed bulletin over the epochs that carried posts. *)
let epoch_round_s (ss : Ingest.session list) =
  median (List.concat_map (fun s -> List.map fst s.Ingest.epoch_latencies) ss)

(* The epoch, TCP and ingest layers of a traced ingest session; 0 on the
   mix workloads, which have none of them. *)
let submission_plane (s : Ingest.session option) : metric list =
  let v f = match s with Some s -> f s | None -> 0. in
  let tcp name = v (fun s -> sum_counter s.Ingest.tcp_regs name) in
  let nodes name = v (fun s -> sum_counter s.Ingest.node_regs name) in
  [
    m "coord.epoch_mix_p50_s" "s" (v (fun s -> epoch_round_s [ s ]));
    m "coord.epochs_published" "count" (v (fun s -> float_of_int s.Ingest.epochs_published));
    m "tcp.sends" "count" (tcp "rpc.sends");
    m "tcp.bytes_out" "bytes" (tcp "rpc.bytes_out");
    m "tcp.reconnects" "count" (tcp "rpc.reconnects");
    m "tcp.send_s" "s" (v (fun s -> hist_sum s.Ingest.tcp_regs "rpc.send_seconds"));
    m "ingest.accepted" "count" (nodes "ingest.accepted");
    m "ingest.rejected" "count" (nodes "ingest.rejected");
    m "ingest.backpressure" "count" (nodes "ingest.backpressure");
    m "ingest.dedup_hits" "count" (nodes "ingest.dedup_hits");
    m "ingest.queue_depth_max" "count" (v (fun s -> float_of_int s.Ingest.queue_max));
    m "ingest.ack_p50_s" "s" (v (fun s -> quantile s.Ingest.ack_latencies 0.5));
    m "ingest.ack_p90_s" "s" (v (fun s -> quantile s.Ingest.ack_latencies 0.9));
    m "ingest.generator_lag_p99_s" "s" (v (fun s -> quantile s.Ingest.lags 0.99));
  ]

(* ---- mix workloads ---- *)

let mix_config_echo (p : Mix.params) ~seed ~seconds =
  let c = Mix.config p ~seed in
  [
    ("group", p.Mix.group_name);
    ("variant", variant_name p.Mix.variant);
    ("fleet", Printf.sprintf "%d servers, %d groups of %d, h=%d, square T=2" c.Config.n_servers
        c.Config.n_groups c.Config.group_size c.Config.h);
    ("transport", "sim");
    ("messages", string_of_int p.Mix.users);
    ("msg_bytes", string_of_int p.Mix.msg_bytes);
    ("pool_domains", "1");
    ("exec_probe_pool_domains", string_of_int p.Mix.probe_domains);
    ("offered_rate", "n/a (one batch per round)");
    ("epoch_s", "n/a");
    ("seed", string_of_int seed);
    ("seconds", Printf.sprintf "%g" seconds);
  ]

(* Lazy tables (comb tables, window caches) fill once per process, as in
   a long-running node; warm them on a throwaway seed before timing. *)
let warm_up (p : Mix.params) =
  let module G = (val p.Mix.group) in
  let module Pr = Protocol.Make (G) in
  let config = Mix.config p ~seed:0x3a3a in
  let rng = Atom_util.Rng.create 0x3a3a in
  let net = Pr.setup rng config () in
  ignore (Pr.submit rng net ~user:0 ~entry_gid:0 "warm-up")

let undelivered (p : Mix.params) (r : Mix.round) = p.Mix.users - r.Mix.delivered_ok

(* The exec layer's probe: one untimed round with a pool of
   [p.probe_domains] domains passed to every node and the coordinator.
   Measured rounds run without a pool: with a second domain, round times
   on a shared two-core host followed the neighbours' load (see
   README.md). *)
let exec_probe (p : Mix.params) ~seed : (pool_stats * float * Mix.round) option =
  if p.Mix.probe_domains <= 1 then None
  else begin
    let obs = Atom_obs.Ctx.create () in
    let pool = Atom_exec.Pool.create ~obs ~domains:p.Mix.probe_domains () in
    Fun.protect
      ~finally:(fun () -> Atom_exec.Pool.shutdown pool)
      (fun () ->
        let r = Mix.run_round ~pool ~traced:false p ~seed in
        Some (pool_stats obs, r.Mix.round_s, r))
  end

let run_mix (p : Mix.params) ~seed ~seconds ~trace : result =
  warm_up p;
  let config = Mix.config p ~seed in
  let echo = mix_config_echo p ~seed ~seconds in
  if not trace then begin
    let t0 = now () in
    (* Each repetition also times the kernel between set-up and round, so
       each of the two is scaled by the pair of slices that brackets it.
       It starts from a fully collected heap: the previous fleet's garbage
       is not collected inside its windows. *)
    let runs =
      List.map
        (fun (r, before, after) ->
          (r, (before +. r.Mix.between) /. 2., (r.Mix.between +. after) /. 2.))
        (Calibrate.repeat
           ~more:(fun i -> i < 2 || now () -. t0 < seconds)
           (fun _ ->
             Gc.full_major ();
             Mix.run_round ~between:Calibrate.factor ~traced:false p ~seed))
    in
    List.iteri
      (fun i (r, ks, kr) ->
        Printf.printf
          "round %d: setup %.4fs round %.4fs host factor %.4f/%.4f delivered %d/%d recovery sweeps %d\n"
          i r.Mix.setup_s r.Mix.round_s ks kr r.Mix.delivered_ok p.Mix.users r.Mix.recovery_rounds)
      runs;
    let rounds = List.map (fun (r, _, _) -> r) runs in
    let failed = List.fold_left (fun a r -> a + undelivered p r) 0 rounds in
    let per_round f = median (List.map (fun (r, _, kr) -> f r /. kr) runs) in
    Printf.printf "raw medians over %d rounds: setup %.3fs round %.3fs; host factor %.3f\n"
      (List.length rounds)
      (median (List.map (fun r -> r.Mix.setup_s) rounds))
      (median (List.map (fun r -> r.Mix.round_s) rounds))
      (median (List.map (fun (_, _, kr) -> kr) runs));
    {
      attempted = p.Mix.users * List.length rounds;
      failed;
      checks = List.concat_map (fun r -> r.Mix.problems) rounds;
      config = echo @ [ ("rounds", string_of_int (List.length rounds)) ];
      metrics =
        [
          m "setup_s" "s" (median (List.map (fun (r, ks, _) -> r.Mix.setup_s /. ks) runs));
          m "msgs_per_s" "1/s"
            (median
               (List.map (fun (r, _, kr) -> float_of_int r.Mix.delivered_ok *. kr /. r.Mix.round_s) runs));
          m "submit_to_bulletin_p50_s" "s" (per_round (fun r -> quantile r.Mix.latencies 0.5));
          m "submit_to_bulletin_p90_s" "s" (per_round (fun r -> quantile r.Mix.latencies 0.9));
          m "peak_heap_mb" "MB" (peak_heap_mb ());
        ];
    }
  end
  else begin
    (* One untraced round for the overhead baseline, then the traced one
       whose spans, registries and exact tallies the layers read. *)
    let runs =
      List.map Calibrate.around
        (Calibrate.repeat ~more:(fun i -> i < 2) (fun i -> Mix.run_round ~traced:(i = 1) p ~seed))
    in
    let (base, k_base), (r, k_traced) = (List.nth runs 0, List.nth runs 1) in
    let probe = exec_probe p ~seed in
    let probed = Option.to_list (Option.map (fun (_, _, pr) -> pr) probe) in
    let units_per_user = if p.Mix.variant = Config.Trap then 2 else 1 in
    let costs =
      Ledger.costs
        {
          Ledger.group = p.Mix.group;
          field = Atom_group.P256.fp;
          config;
          batch = p.Mix.users * units_per_user / config.Config.n_groups;
          epoch_posts = p.Mix.users;
          pool = None;
        }
        ~ops:r.Mix.ops
    in
    let li =
      {
        ops = r.Mix.ops;
        node_events = r.Mix.node_events;
        coord_events = r.Mix.coord_events;
        node_regs = r.Mix.node_regs;
        round_s = r.Mix.round_s;
        overhead = (r.Mix.round_s /. k_traced /. (base.Mix.round_s /. k_base)) -. 1.;
        recovery_rounds = r.Mix.recovery_rounds;
        pool = (match probe with Some (st, _, _) -> st | None -> no_pool);
        pool_domains = p.Mix.probe_domains;
        pool_round_s = (match probe with Some (_, rs, _) -> rs | None -> 0.);
        frames_sent = counter r.Mix.engine_reg "net.sends";
        bytes_sent = counter r.Mix.engine_reg "net.bytes_sent";
        engine_events = r.Mix.engine_events;
        costs;
      }
    in
    {
      attempted = p.Mix.users * (2 + List.length probed);
      failed = List.fold_left (fun a x -> a + undelivered p x) 0 (base :: r :: probed);
      checks = List.concat_map (fun x -> x.Mix.problems) (base :: r :: probed);
      config = echo;
      metrics = layer_metrics li @ submission_plane None;
    }
  end

(* ---- ingest workload ---- *)

let ingest_config_echo (p : Ingest.params) ~seed ~seconds ~sessions =
  let c = Ingest.config p ~seed in
  [
    ("group", Ingest.group_name);
    ("variant", variant_name c.Config.variant);
    ("fleet", Printf.sprintf "%d servers, %d groups of %d, h=%d, square T=2" c.Config.n_servers
        c.Config.n_groups c.Config.group_size c.Config.h);
    ("transport", "tcp loopback, one domain, one thread per server");
    ("messages", Printf.sprintf "%d per session" (int_of_float (p.Ingest.rate *. seconds /. float_of_int sessions)));
    ("msg_bytes", string_of_int p.Ingest.msg_bytes);
    ("pool_domains", "1");
    ("offered_rate", Printf.sprintf "%g/s open loop, Poisson" p.Ingest.rate);
    ("epoch_s", Printf.sprintf "%g" p.Ingest.epoch_s);
    ("seed", string_of_int seed);
    ("seconds", Printf.sprintf "%g" seconds);
  ]

let session_line (s : Ingest.session) =
  Printf.printf
    "session: setup %.3fs offered %d failed %d submit->bulletin p50 %.3fs p90 %.3fs epochs %d\n%!"
    s.Ingest.setup_s s.Ingest.offered s.Ingest.failed
    (quantile s.Ingest.latencies 0.5) (quantile s.Ingest.latencies 0.9) s.Ingest.epochs_published

let run_ingest (p : Ingest.params) ~seed ~seconds ~trace : result =
  if not trace then begin
    let load_s = seconds /. float_of_int ingest_sessions in
    let runs =
      List.map Calibrate.around
        (Calibrate.repeat
           ~more:(fun k -> k < ingest_sessions)
           (fun k ->
             let s = Ingest.run_session ~traced:false p ~seed:(seed + k) ~load_s in
             session_line s;
             s))
    in
    let ss = List.map fst runs in
    let lat = List.concat_map (fun s -> s.Ingest.latencies) ss in
    let delivered = List.fold_left (fun a s -> a + s.Ingest.offered - s.Ingest.failed) 0 ss in
    let span = List.fold_left (fun a s -> a +. s.Ingest.delivery_s) 0. ss in
    Printf.printf "raw medians over %d sessions: setup %.3fs epoch %.3fs; host factor %.3f\n"
      (List.length ss)
      (median (List.map (fun s -> s.Ingest.setup_s) ss))
      (epoch_round_s ss)
      (median (List.map snd runs));
    {
      attempted = List.fold_left (fun a s -> a + s.Ingest.offered) 0 ss;
      failed = List.fold_left (fun a s -> a + s.Ingest.failed) 0 ss;
      checks = List.concat_map (fun s -> s.Ingest.problems) ss;
      config = ingest_config_echo p ~seed ~seconds ~sessions:ingest_sessions;
      metrics =
        [
          m "setup_s" "s" (median (List.map (fun (s, k) -> s.Ingest.setup_s /. k) runs));
          m "msgs_per_s" "1/s" (float_of_int delivered /. span);
          m "submit_to_bulletin_p50_s" "s" (quantile lat 0.5);
          m "submit_to_bulletin_p90_s" "s" (quantile lat 0.9);
          m "peak_heap_mb" "MB" (peak_heap_mb ());
        ];
    }
  end
  else begin
    let load_s = seconds /. float_of_int ingest_sessions in
    let runs =
      List.map Calibrate.around
        (Calibrate.repeat
           ~more:(fun i -> i < 2)
           (fun i ->
             let s = Ingest.run_session ~traced:(i = 1) p ~seed ~load_s in
             session_line s;
             s))
    in
    let (base, k_base), (s, k_traced) = (List.nth runs 0, List.nth runs 1) in
    let config = Ingest.config p ~seed in
    let costs =
      Ledger.costs
        {
          Ledger.group = (module Ingest.G);
          field = Atom_nat.Modarith.create (Atom_group.Zp.test_params ()).Atom_group.Zp.p;
          config;
          batch = int_of_float (p.Ingest.rate *. p.Ingest.epoch_s) / config.Config.n_groups;
          epoch_posts = int_of_float (p.Ingest.rate *. p.Ingest.epoch_s);
          pool = None;
        }
        ~ops:s.Ingest.ops
    in
    let li =
      {
        ops = s.Ingest.ops;
        node_events = s.Ingest.node_events;
        coord_events = s.Ingest.coord_events;
        node_regs = s.Ingest.node_regs;
        round_s = epoch_round_s [ s ];
        overhead = (epoch_round_s [ s ] /. k_traced /. (epoch_round_s [ base ] /. k_base)) -. 1.;
        recovery_rounds = s.Ingest.recovery_rounds;
        pool = no_pool;
        pool_domains = 1;
        pool_round_s = 0.;
        frames_sent = sum_counter s.Ingest.tcp_regs "rpc.sends";
        bytes_sent = sum_counter s.Ingest.tcp_regs "rpc.bytes_out";
        engine_events = 0;
        costs;
      }
    in
    {
      attempted = base.Ingest.offered + s.Ingest.offered;
      failed = base.Ingest.failed + s.Ingest.failed;
      checks = base.Ingest.problems @ s.Ingest.problems;
      config = ingest_config_echo p ~seed ~seconds ~sessions:ingest_sessions;
      metrics = layer_metrics li @ submission_plane (Some s);
    }
  end

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 36. and trace = ref 0 in
  let commit = ref "unknown" and source_digest = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME mix-nizk | mix-trap | ingest-tcp");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--commit", Arg.Set_string commit, "ID commit echoed with the result");
      ("--source-digest", Arg.Set_string source_digest, "HEX source digest echoed with the result");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let wl =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  let traced = !trace = 1 in
  let r =
    match wl with
    | Mix p -> run_mix p ~seed:!seed ~seconds:!seconds ~trace:traced
    | Ingest p -> run_ingest p ~seed:!seed ~seconds:!seconds ~trace:traced
  in
  let host =
    [
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("commit", !commit);
      ("source_digest", !source_digest);
      ("workload", !workload);
      ("trace", string_of_int !trace);
    ]
  in
  print_endline
    (json_object
       [
         ("host", json_object (List.map (fun (k, v) -> (k, json_string v)) host));
         ("config", json_object (List.map (fun (k, v) -> (k, json_string v)) r.config));
       ]);
  List.iter (fun c -> Printf.printf "check failed: %s\n" c) r.checks;
  Printf.printf "failed_frac: %.6f (%d of %d offered messages)\n"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted)) r.failed r.attempted;
  let correct = r.failed = 0 && r.checks = [] in
  let finite = List.for_all (fun mt -> Float.is_finite mt.value) r.metrics in
  print_endline
    (json_object
       [
         ("correct", string_of_bool (correct && finite));
         ("attempted", string_of_int r.attempted);
         ("failed", string_of_int r.failed);
         ("metrics", metrics_json r.metrics);
       ]);
  if not (correct && finite) then exit 1
