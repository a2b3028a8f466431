(* The ingest workload: the client submission plane over loopback TCP.

   Four Basic-variant servers in two entry groups of two run
   [Node.run_node] with an admission policy, each on its own thread of
   this process; [run_ingest_coordinator] seals an epoch every [epoch_s]
   on another. One generator thread holds a single client endpoint with a
   connection to each entry head and submits pre-built onions open-loop:
   due times come from a seeded Poisson schedule, and every latency is
   timed from the due time, so a stalled pipeline or a late generator
   shows up in the figures instead of slowing the offered load.

   A submission counts as delivered when its ack names an epoch, the
   generator receives that epoch's bulletin announcement, the digest and
   Schnorr signature verify under the publisher key, the message is among
   its posts, and it is on no other epoch's bulletin. Nothing that was not
   accepted may be published. *)

open Atom_core
open Common
module TcpT = Atom_rpc.Tcp_transport
module P = Probe.Make (TcpT.Check)
module G = (val Atom_group.Registry.zp_test ())
module Node = Atom_rpc.Node.Make (G) (P)
module Pr = Node.Pr
module Ctrl = Atom_wire.Control
module Opcount = Atom_obs.Opcount

type params = { rate : float; epoch_s : float; msg_bytes : int }

let group_name = "zp-test"

let config (p : params) ~(seed : int) : Config.t =
  {
    (Config.tiny ~variant:Config.Basic ~seed ()) with
    Config.n_servers = 4;
    n_groups = 2;
    group_size = 2;
    h = 1;
    topology = Config.Square 2;
    msg_bytes = p.msg_bytes;
  }

(* Generous enough that a well-behaved generator is never throttled: the
   workload measures the pipeline, not the token bucket. *)
let policy = { Atom_ingest.Admission.default_policy with rate = 1e5; burst = 1e5 }

type session = {
  setup_s : float; (* session start → first due send *)
  offered : int;
  failed : int; (* not delivered exactly once, plus posts never accepted *)
  latencies : float list; (* due → verified bulletin, delivered submissions *)
  delivery_s : float; (* first due send → last verified bulletin *)
  ack_latencies : float list; (* due → accepting ack *)
  lags : float list; (* actual send − due *)
  epoch_latencies : (float * int) list; (* seal → signed bulletin, posts; non-empty epochs *)
  epochs_published : int;
  queue_max : int;
  problems : string list;
  ops : Opcount.snapshot; (* first due send → coordinator done *)
  node_regs : Atom_obs.Metrics.t list;
  node_events : Trace.event list;
  coord_events : Trace.event list;
  tcp_regs : Atom_obs.Metrics.t list; (* every endpoint's transport registry *)
  recovery_rounds : int;
}

let client_id (config : Config.t) = config.Config.n_servers + 1

(* Pre-built traffic: onions, their Submit frames and a Poisson schedule
   of due offsets, all from the workload seed. *)
type traffic = {
  msgs : string array;
  gids : int array;
  frames : string array;
  dues : float array; (* seconds after the first due send *)
}

let build_traffic (net : Pr.network) ~(seed : int) ~(count : int) ~(rate : float) ~(port : int) :
    traffic =
  let config = net.Pr.config in
  let rng = Atom_util.Rng.create (seed lxor 0x6e6e) in
  let cid = client_id config in
  let msgs = Array.init count (fun i -> Printf.sprintf "post %d.%d" seed i) in
  let gids = Array.init count (fun i -> i mod config.Config.n_groups) in
  let frames =
    Array.init count (fun i ->
        let blob =
          Pr.Wire.submission_to_bytes (Pr.submit rng net ~user:cid ~entry_gid:gids.(i) msgs.(i))
        in
        Ctrl.encode
          (Ctrl.Submit { client = cid; port; token = i; gid = gids.(i); epoch = 0; blob; pow = "" }))
  in
  let t = ref 0. in
  let dues =
    Array.init count (fun i ->
        if i > 0 then t := !t +. Atom_util.Rng.exponential rng ~mean:(1. /. rate);
        !t)
  in
  { msgs; gids; frames; dues }

let run_session ~(traced : bool) (p : params) ~(seed : int) ~(load_s : float) : session =
  let config = config p ~seed in
  let n = config.Config.n_servers in
  let coord = n in
  let cid = client_id config in
  let mk_obs () = if traced then Atom_obs.Ctx.create ~tracing:true () else Atom_obs.Ctx.noop in
  let t_start = now () in
  let node_obs = Array.init n (fun _ -> mk_obs ()) in
  let coord_obs = mk_obs () in
  let tcp_obs = Array.init (n + 2) (fun _ -> if traced then Atom_obs.Ctx.create () else Atom_obs.Ctx.noop) in
  let raw = Array.init (n + 1) (fun node_id -> TcpT.create ~obs:tcp_obs.(node_id) ~node_id ()) in
  Array.iteri
    (fun i t ->
      Array.iteri
        (fun j u -> if i <> j then TcpT.add_peer t ~node_id:j ~host:"127.0.0.1" ~port:(TcpT.port u))
        raw)
    raw;
  let eps = Array.map (fun t -> P.wrap t) raw in
  let node_threads =
    List.init n (fun sid ->
        Thread.create
          (fun () ->
            Node.run_node ~obs:node_obs.(sid) ~clock:now eps.(sid) ~config ~node_id:sid ~coord
              ~recv_timeout:0.1 ~max_idle:300 ~ingest:policy
              ~register_client:(fun ~client ~port ->
                TcpT.add_peer raw.(sid) ~node_id:client ~host:"127.0.0.1" ~port)
              ())
          ())
  in
  let collecting = Atomic.make true in
  let outcome = ref None in
  let coord_thread =
    Thread.create
      (fun () ->
        outcome :=
          Some
            (Node.run_ingest_coordinator ~obs:coord_obs ~clock:now eps.(coord) ~config
               ~recv_timeout:0.1 ~max_idle:300 ~epoch_s:p.epoch_s ~min_epochs:1
               ~keep_collecting:(fun () -> Atomic.get collecting)
               ()))
      ()
  in
  (* The generator's own view of the network: the same seed-derived setup
     every node runs, needed to build onions and to know the entry heads. *)
  let client = TcpT.create ~obs:tcp_obs.(n + 1) ~node_id:cid () in
  let net = Pr.setup (Atom_util.Rng.create config.Config.seed) config () in
  let heads = Array.map (fun g -> g.Pr.members.(0)) net.Pr.groups in
  Array.iter (fun h -> TcpT.add_peer client ~node_id:h ~host:"127.0.0.1" ~port:(TcpT.port raw.(h))) heads;
  let count = max 1 (int_of_float (p.rate *. load_s)) in
  let tr = build_traffic net ~seed ~count ~rate:p.rate ~port:(TcpT.port client) in
  let _, bulletin_pk = Node.bulletin_keypair config in
  (* Every server must be in its event loop before the first due send. *)
  while not (Array.for_all P.entered eps) do
    Thread.delay 0.002
  done;
  let t0 = now () in
  let setup_s = t0 -. t_start in
  let ops0 = Opcount.snapshot () in
  let due i = t0 +. tr.dues.(i) in
  let sent_at = Array.make count nan in
  let acked = Array.make count (-1) in
  let ack_at = Array.make count nan in
  let retry_at = Queue.create () in
  let queue_max = ref 0 and rejected = ref 0 in
  let bulletins : (int, float * string array) Hashtbl.t = Hashtbl.create 32 in
  let bad_sigs = ref 0 in
  let next = ref 0 and n_acked = ref 0 in
  let send i =
    if Float.is_nan sent_at.(i) then sent_at.(i) <- now ();
    ignore (TcpT.send client ~dst:heads.(tr.gids.(i)) tr.frames.(i))
  in
  let handle frame =
    match Ctrl.decode frame with
    | Some (Ctrl.Submit_ack { token; status; epoch; retry_ms; queue_len })
      when token >= 0 && token < count && acked.(token) < 0 ->
        queue_max := max !queue_max queue_len;
        if status = Ctrl.submit_accepted then begin
          acked.(token) <- epoch;
          ack_at.(token) <- now ();
          incr n_acked
        end
        else if status = Ctrl.submit_retry then
          Queue.add (now () +. (float_of_int (max 1 retry_ms) /. 1000.), token) retry_at
        else begin
          incr rejected;
          acked.(token) <- max_int;
          incr n_acked
        end
    | Some (Ctrl.Bulletin_announce { epoch; digest; signature; posts }) ->
        if not (Hashtbl.mem bulletins epoch) then
          if Node.BSign.verify_sealed ~pk:bulletin_pk { Bulletin.epoch; posts; digest } ~signature
          then Hashtbl.replace bulletins epoch (now (), posts)
          else incr bad_sigs
    | _ -> ()
  in
  (* Open loop: send whatever is due, otherwise listen until the next due
     time. Once every submission is acked the flush epoch may be sealed;
     the generator then stays on the line until each acked epoch's
     bulletin has arrived. *)
  let deadline = t0 +. load_s +. 20. in
  let acked_epochs () =
    Array.fold_left (fun acc e -> if e >= 0 && e < max_int && not (List.mem e acc) then e :: acc else acc) [] acked
  in
  let finished = ref false in
  while (not !finished) && now () < deadline do
    let t = now () in
    if !next < count && t >= due !next then begin
      send !next;
      incr next
    end
    else if (not (Queue.is_empty retry_at)) && fst (Queue.peek retry_at) <= t then
      send (snd (Queue.pop retry_at))
    else begin
      let wait = if !next < count then Float.max 0.0005 (due !next -. t) else 0.05 in
      (match TcpT.recv client ~timeout:(Float.min wait 0.05) with
      | Ok (_, frame) -> handle frame
      | Error _ -> ());
      if !next >= count && !n_acked >= count then begin
        Atomic.set collecting false;
        if List.for_all (Hashtbl.mem bulletins) (acked_epochs ()) then finished := true
      end
    end
  done;
  Atomic.set collecting false;
  Thread.join coord_thread;
  let t_end = now () in
  let ops = Opcount.diff (Opcount.snapshot ()) ops0 in
  List.iter Thread.join node_threads;
  (* Drain anything still in flight so no announcement is left unread,
     then release every socket. *)
  (try
     while true do
       match TcpT.recv client ~timeout:0.05 with Ok (_, f) -> handle f | Error _ -> raise Exit
     done
   with Exit -> ());
  TcpT.close client;
  Array.iter TcpT.close raw;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match !outcome with
  | None -> problem "coordinator never returned"
  | Some o -> Option.iter (problem "abort: %s") o.Node.ing_abort);
  if !bad_sigs > 0 then problem "%d bulletins failed signature or digest checks" !bad_sigs;
  if !rejected > 0 then problem "%d submissions rejected" !rejected;
  (* Where each post landed, across every verified bulletin. *)
  let placed : (string, int list) Hashtbl.t = Hashtbl.create (2 * count) in
  Hashtbl.iter
    (fun epoch (_, posts) ->
      Array.iter
        (fun post ->
          Hashtbl.replace placed post
            (epoch :: Option.value ~default:[] (Hashtbl.find_opt placed post)))
        posts)
    bulletins;
  let accepted = Hashtbl.create count in
  let latencies = ref [] and ack_latencies = ref [] and delivered = ref 0 in
  for i = 0 to count - 1 do
    let e = acked.(i) in
    if e >= 0 && e < max_int then begin
      Hashtbl.replace accepted tr.msgs.(i) ();
      ack_latencies := (ack_at.(i) -. due i) :: !ack_latencies;
      match (Hashtbl.find_opt placed tr.msgs.(i), Hashtbl.find_opt bulletins e) with
      | Some [ e' ], Some (t_b, _) when e' = e ->
          incr delivered;
          latencies := (t_b -. due i) :: !latencies
      | _ -> ()
    end
  done;
  let ghosts = Hashtbl.fold (fun post _ acc -> if Hashtbl.mem accepted post then acc else acc + 1) placed 0 in
  if ghosts > 0 then problem "%d published posts were never accepted" ghosts;
  if !delivered < count then problem "%d of %d submissions not delivered exactly once" (count - !delivered) count;
  let epochs = match !outcome with Some o -> o.Node.ing_epochs | None -> [] in
  let clipped obs tid = clip_phases ~tid ~lo:t0 ~hi:t_end (Trace.events (Atom_obs.Ctx.tracer obs)) in
  {
    setup_s;
    offered = count;
    failed = count - !delivered + ghosts;
    latencies = !latencies;
    delivery_s = Hashtbl.fold (fun _ (t_b, _) acc -> Float.max acc (t_b -. t0)) bulletins 0.;
    ack_latencies = !ack_latencies;
    lags =
      List.filter_map
        (fun i -> if Float.is_nan sent_at.(i) then None else Some (sent_at.(i) -. due i))
        (List.init count Fun.id);
    epoch_latencies =
      List.filter_map
        (fun ep ->
          let posts = Array.length ep.Node.ep_sealed.Bulletin.posts in
          if posts > 0 then Some (ep.Node.ep_latency_s, posts) else None)
        epochs;
    epochs_published = List.length epochs;
    queue_max = !queue_max;
    problems = List.rev !problems;
    ops;
    node_regs = Array.to_list (Array.map Atom_obs.Ctx.metrics node_obs);
    node_events = List.concat (List.mapi (fun i o -> clipped o i) (Array.to_list node_obs));
    coord_events = clipped coord_obs coord;
    tcp_regs = Array.to_list (Array.map Atom_obs.Ctx.metrics tcp_obs);
    recovery_rounds = (match !outcome with Some o -> o.Node.ing_recovery_rounds | None -> 0);
  }
