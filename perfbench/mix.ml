(* The mix workloads: whole Atom rounds through [Atom_rpc.Node.Make] over
   the simulator transport, one engine process per server plus the
   coordinator, all in this process.

   The simulator moves frames in virtual time while every node runs its
   real cryptography on the wall clock, so a round's wall time is the
   fleet's serial compute (plus whatever a domain pool runs alongside).
   Each repetition builds a fresh fleet, so set-up is measured every time:
   node [Protocol.setup]s, then the coordinator's own setup, onion
   construction and single-process reference execution, up to its first
   submission frame. *)

open Atom_core
open Common
module SimT = Atom_rpc.Sim_transport
module P = Probe.Make (SimT.Check)
module Opcount = Atom_obs.Opcount

type params = {
  group_name : string;
  group : (module Atom_group.Group_intf.GROUP);
  variant : Config.variant;
  users : int;
  msg_bytes : int;
  probe_domains : int; (* traced runs: pool of the exec probe round; 1 = none *)
}

let config (p : params) ~(seed : int) : Config.t =
  {
    (Config.tiny ~variant:p.variant ~seed ()) with
    Config.n_servers = 4;
    n_groups = 2;
    group_size = 2;
    h = 1;
    topology = Config.Square 2;
    msg_bytes = p.msg_bytes;
  }

(* What one observed round leaves behind. Times are wall-clock seconds. *)
type round = {
  setup_s : float; (* fleet start → coordinator's first submission frame *)
  round_s : float; (* first submission frame → first Published frame *)
  between : float; (* what [between] returned; nan without it *)
  latencies : float list; (* per message: its group's submission frame → Published *)
  delivered_ok : int; (* expected plaintexts delivered exactly once *)
  problems : string list;
  ops : Opcount.snapshot; (* group operations inside the round window *)
  (* traced rounds only *)
  node_regs : Atom_obs.Metrics.t list;
  node_events : Trace.event list; (* phase spans clipped to the window, tid = node *)
  coord_events : Trace.event list;
  engine_reg : Atom_obs.Metrics.t;
  engine_events : int;
  recovery_rounds : int; (* stall-triggered sweeps: wasted work, 0 when fault-free *)
}

let expected_messages users = List.init users (fun i -> Printf.sprintf "anonymous message #%d" i)

(* Expected plaintexts that appear exactly once in [delivered], plus the
   number of unexpected deliveries (duplicates and strangers). *)
let tally ~(expected : string list) (delivered : string list) : int * int =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun d -> Hashtbl.replace counts d (1 + Option.value ~default:0 (Hashtbl.find_opt counts d)))
    delivered;
  let ok = List.length (List.filter (fun e -> Hashtbl.find_opt counts e = Some 1) expected) in
  (ok, List.length delivered - ok)

(* [between], when given, runs when the coordinator is about to send its
   first submission frame: after set-up has been timed and before the
   round's clock starts. The benchmark times its host-speed kernel there. *)
let run_round ?pool ?between ~(traced : bool) (p : params) ~(seed : int) : round =
  let module G = (val p.group) in
  let module Node = Atom_rpc.Node.Make (G) (P) in
  let config = config p ~seed in
  let n = config.Config.n_servers in
  let coord = n in
  let mk_obs () = if traced then Atom_obs.Ctx.create ~tracing:true () else Atom_obs.Ctx.noop in
  let node_obs = Array.init n (fun _ -> mk_obs ()) in
  let coord_obs = mk_obs () in
  let engine_obs = if traced then Atom_obs.Ctx.create () else Atom_obs.Ctx.noop in
  let clock = if traced then Some now else None in
  let t_start = now () in
  let e = Atom_sim.Engine.create ~obs:engine_obs () in
  let net = Atom_sim.Net.create e in
  let machines =
    Array.init (n + 1) (fun id ->
        Atom_sim.Machine.create e ~id ~cores:4 ~bandwidth:1e9 ~cluster:0)
  in
  let raw = SimT.fleet e net ~machines in
  let sub_sent = ref [] in
  let t_setup = ref nan and t_sub = ref nan and t_pub = ref nan in
  let between_v = ref nan in
  let ops_sub = ref Opcount.zero and ops_pub = ref Opcount.zero in
  let nodes = Array.init n (fun i -> P.wrap raw.(i)) in
  let all_entered = ref true in
  let on_send ~dst:_ ~kind =
    if kind = Atom_wire.Frame.kind_submissions then begin
      if Float.is_nan !t_sub then begin
        all_entered := Array.for_all P.entered nodes;
        t_setup := now ();
        Option.iter (fun f -> between_v := f ()) between;
        ops_sub := Opcount.snapshot ();
        t_sub := now ()
      end;
      sub_sent := now () :: !sub_sent
    end
    else if kind = Atom_wire.Frame.kind_published && Float.is_nan !t_pub then begin
      t_pub := now ();
      ops_pub := Opcount.snapshot ()
    end
  in
  let coord_t = P.wrap ~on_send raw.(coord) in
  for sid = 0 to n - 1 do
    Atom_sim.Engine.spawn e (fun () ->
        Node.run_node ~obs:node_obs.(sid) ?clock ?pool nodes.(sid) ~config ~node_id:sid ~coord
          ~recv_timeout:1.0 ~max_idle:120 ())
  done;
  let outcome = ref None in
  Atom_sim.Engine.spawn e (fun () ->
      outcome :=
        Some
          (Node.run_coordinator ~obs:coord_obs ?clock ?pool coord_t ~config ~users:p.users
             ~recv_timeout:1.0 ~max_idle:120 ()));
  ignore (Atom_sim.Engine.run e);
  let expected = expected_messages p.users in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if not !all_entered then problem "a node had not finished setup at the first submission";
  if Float.is_nan !t_sub || Float.is_nan !t_pub then problem "round never started or never published";
  let delivered_ok =
    match !outcome with
    | None ->
        problem "coordinator never completed";
        0
    | Some o ->
        Option.iter (problem "abort: %s") o.Node.cluster_abort;
        if not o.Node.matched then problem "output differs from the single-process reference";
        let ok, extra = tally ~expected o.Node.delivered in
        if extra > 0 then problem "%d unexpected or duplicate deliveries" extra;
        if o.Node.matched && o.Node.cluster_abort = None then ok else 0
  in
  let lo = !t_sub and hi = !t_pub in
  (* The coordinator ships group g's submission frame g-th, and message i
     enters at group i mod n_groups: each message waits from its own
     group's frame. *)
  let sub_times = Array.of_list (List.rev !sub_sent) in
  let latencies =
    List.init p.users (fun i ->
        let g = i mod config.Config.n_groups in
        if g < Array.length sub_times then hi -. sub_times.(g) else hi -. lo)
  in
  let clipped obs tid =
    clip_phases ~tid ~lo ~hi (Trace.events (Atom_obs.Ctx.tracer obs))
  in
  {
    setup_s = !t_setup -. t_start;
    round_s = hi -. lo;
    between = !between_v;
    latencies;
    delivered_ok;
    problems = List.rev !problems;
    ops = Opcount.diff !ops_pub !ops_sub;
    node_regs = Array.to_list (Array.map Atom_obs.Ctx.metrics node_obs);
    node_events = List.concat (List.mapi (fun i o -> clipped o i) (Array.to_list node_obs));
    coord_events = clipped coord_obs coord;
    engine_reg = Atom_obs.Ctx.metrics engine_obs;
    engine_events = Atom_sim.Engine.events_run e;
    recovery_rounds =
      (match !outcome with Some o -> o.Node.recovery_rounds | None -> 0);
  }
