(* The client submission plane: admission control, intake epochs, the
   sealed-and-signed bulletin, and the end-to-end ingest cluster.

   Five angles:
   - admission: token-bucket pacing, hashcash, and the structural denials
     (oversize blobs, a full client table) — all pure clock-in functions;
   - intake: bounded epoch queues, idempotent dedup re-acks, backpressure
     and seal idempotence;
   - bulletin: canonical ordering, duplicate collapse, and signature
     forgery rejection on the sealed per-epoch output;
   - the same ingest-mode fleet over the simulator transport with an
     unclocked coordinator, deterministic down to the epoch digests;
   - a threaded TCP cluster running ingest-mode nodes, real clients and
     the pipelined-epoch coordinator: every accepted submission must land
     on the signed bulletin of exactly its acked epoch. *)

module G = (val Atom_group.Registry.zp_test ())
module TcpT = Atom_rpc.Tcp_transport
module Node = Atom_rpc.Node.Make (G) (TcpT.Check)
module Pr = Node.Pr
module Adm = Atom_ingest.Admission
module Intake = Atom_ingest.Intake
module Ctrl = Atom_wire.Control
open Atom_core

(* ---- admission ---- *)

let pol = Adm.default_policy

let test_token_bucket () =
  let a = Adm.create { pol with Adm.rate = 2.; burst = 2. } in
  let check now = Adm.check a ~now ~client:7 ~blob:"b" ~pow:"" in
  Alcotest.(check bool) "1st admitted" true (check 0. = Adm.Admit);
  Alcotest.(check bool) "2nd admitted" true (check 0. = Adm.Admit);
  (match check 0. with
  | Adm.Backoff ms -> Alcotest.(check bool) "positive retry" true (ms > 0)
  | _ -> Alcotest.fail "3rd submit over burst should backpressure");
  (* Half a second at 2/s refills one token. *)
  Alcotest.(check bool) "refilled" true (check 0.5 = Adm.Admit);
  (* A clock that jumps backwards must not mint tokens. *)
  (match check 0.1 with
  | Adm.Backoff _ -> ()
  | _ -> Alcotest.fail "backwards clock minted tokens");
  (* Buckets are per client: a fresh id starts with a full burst. *)
  Alcotest.(check bool) "other client" true
    (Adm.check a ~now:0.1 ~client:8 ~blob:"b" ~pow:"" = Adm.Admit)

let test_pow () =
  let blob = "onion-bytes" in
  let nonce = Adm.pow_solve ~bits:8 ~blob in
  Alcotest.(check bool) "solved nonce passes" true (Adm.pow_check ~bits:8 ~blob ~pow:nonce);
  Alcotest.(check bool) "nonce is blob-bound" false
    (Adm.pow_check ~bits:8 ~blob:"other-bytes" ~pow:nonce);
  Alcotest.(check bool) "bits=0 disables" true (Adm.pow_check ~bits:0 ~blob ~pow:"");
  let a = Adm.create { pol with Adm.pow_bits = 8 } in
  (match Adm.check a ~now:0. ~client:1 ~blob ~pow:"" with
  | Adm.Deny _ -> ()
  | _ -> Alcotest.fail "missing pow admitted");
  Alcotest.(check bool) "good pow admitted" true
    (Adm.check a ~now:0. ~client:1 ~blob ~pow:nonce = Adm.Admit)

let test_structural_denials () =
  let a = Adm.create { pol with Adm.max_blob = 8; max_clients = 2 } in
  (match Adm.check a ~now:0. ~client:1 ~blob:(String.make 9 'x') ~pow:"" with
  | Adm.Deny _ -> ()
  | _ -> Alcotest.fail "oversize blob admitted");
  Alcotest.(check bool) "client 1" true (Adm.check a ~now:0. ~client:1 ~blob:"b" ~pow:"" = Adm.Admit);
  Alcotest.(check bool) "client 2" true (Adm.check a ~now:0. ~client:2 ~blob:"b" ~pow:"" = Adm.Admit);
  (match Adm.check a ~now:0. ~client:3 ~blob:"b" ~pow:"" with
  | Adm.Deny reason -> Alcotest.(check string) "table bound" "client table full" reason
  | _ -> Alcotest.fail "unbounded client table");
  Alcotest.(check int) "tracked" 2 (Adm.clients_tracked a)

(* ---- intake ---- *)

let ok_validate ~epoch:_ _ = true

let test_intake_dedup_reack () =
  let ik = Intake.create ~policy:{ pol with Adm.rate = 1e6; burst = 1e6 } () in
  let validations = ref 0 in
  let validate ~epoch:_ _ =
    incr validations;
    true
  in
  (match Intake.submit ik ~now:0. ~client:1 ~blob:"blob-a" ~pow:"" ~validate with
  | Intake.Accepted { epoch = 0; _ } -> ()
  | _ -> Alcotest.fail "first submit not accepted into epoch 0");
  (* The retry of an admitted blob re-acks with the original epoch and
     never re-validates — the protocol layer's replay tracking would
     otherwise turn a lost ack into a lost message. *)
  (match Intake.submit ik ~now:0. ~client:1 ~blob:"blob-a" ~pow:"" ~validate with
  | Intake.Accepted { epoch = 0; _ } -> ()
  | _ -> Alcotest.fail "retry not re-acked");
  Alcotest.(check int) "validated once" 1 !validations;
  Alcotest.(check int) "queued once" 1 (Intake.queue_len ik);
  (* Still idempotent after the epoch seals (within the dedup window). *)
  Alcotest.(check int) "sealed count" 1 (Intake.seal ik ~epoch:0);
  (match Intake.submit ik ~now:0. ~client:1 ~blob:"blob-a" ~pow:"" ~validate with
  | Intake.Accepted { epoch = 0; _ } -> ()
  | _ -> Alcotest.fail "post-seal retry lost the original epoch");
  Alcotest.(check int) "collection advanced" 1 (Intake.epoch ik);
  (* Rejected blobs are not deduplicated: a later, valid retry of the
     same bytes must go through the full path again. *)
  (match Intake.submit ik ~now:0. ~client:1 ~blob:"blob-b" ~pow:"" ~validate:(fun ~epoch:_ _ -> false) with
  | Intake.Rejected _ -> ()
  | _ -> Alcotest.fail "invalid blob accepted");
  (match Intake.submit ik ~now:0. ~client:1 ~blob:"blob-b" ~pow:"" ~validate with
  | Intake.Accepted { epoch = 1; _ } -> ()
  | _ -> Alcotest.fail "rejected blob wrongly deduplicated")

let test_intake_backpressure_and_seal () =
  let ik = Intake.create ~policy:{ pol with Adm.rate = 1e6; burst = 1e6; queue_cap = 2 } () in
  let submit i =
    Intake.submit ik ~now:0. ~client:1 ~blob:(Printf.sprintf "blob-%d" i) ~pow:""
      ~validate:ok_validate
  in
  (match submit 0 with Intake.Accepted _ -> () | _ -> Alcotest.fail "s0");
  (match submit 1 with Intake.Accepted _ -> () | _ -> Alcotest.fail "s1");
  (match submit 2 with
  | Intake.Backpressure { retry_ms; _ } ->
      Alcotest.(check bool) "positive retry" true (retry_ms > 0)
  | _ -> Alcotest.fail "full queue admitted");
  (* Seal is idempotent and frees the next epoch's queue. *)
  Alcotest.(check int) "seal" 2 (Intake.seal ik ~epoch:0);
  Alcotest.(check int) "seal again" 2 (Intake.seal ik ~epoch:0);
  Alcotest.(check int) "epoch advanced once" 1 (Intake.epoch ik);
  (match submit 2 with
  | Intake.Accepted { epoch = 1; _ } -> ()
  | _ -> Alcotest.fail "next epoch did not accept")

(* ---- bulletin: sealed output and signatures (satellite 3) ---- *)

module BSign = Bulletin.Signer (G)

let test_bulletin_canonical () =
  let posts = [ "carol"; "alice"; "bob" ] in
  let a = Bulletin.seal ~epoch:3 posts in
  let b = Bulletin.seal ~epoch:3 (List.rev posts) in
  Alcotest.(check (array string)) "order-independent" a.Bulletin.posts b.Bulletin.posts;
  Alcotest.(check string) "same digest" a.Bulletin.digest b.Bulletin.digest;
  Alcotest.(check (array string)) "sorted" [| "alice"; "bob"; "carol" |] a.Bulletin.posts;
  (* Duplicate posts collapse: the sealed output is a set. *)
  let d = Bulletin.seal ~epoch:3 [ "bob"; "alice"; "bob"; "alice" ] in
  Alcotest.(check (array string)) "deduplicated" [| "alice"; "bob" |] d.Bulletin.posts;
  Alcotest.(check bool) "consistent" true (Bulletin.sealed_consistent a);
  (* Same posts, different epoch: different digest (the epoch is bound). *)
  let e = Bulletin.seal ~epoch:4 posts in
  Alcotest.(check bool) "epoch bound" false (String.equal a.Bulletin.digest e.Bulletin.digest)

let test_bulletin_signatures () =
  let sk, pk = BSign.keypair ~seed:42 in
  let sealed = Bulletin.seal ~epoch:5 [ "msg-1"; "msg-2"; "msg-3" ] in
  let signature = BSign.sign_sealed ~sk sealed in
  Alcotest.(check bool) "valid" true (BSign.verify_sealed ~pk sealed ~signature);
  (* Deterministic nonces: signing twice yields identical bytes. *)
  Alcotest.(check string) "deterministic" signature (BSign.sign_sealed ~sk sealed);
  (* Forgeries: a flipped signature byte, a substituted post, a shifted
     epoch, and a signature from the wrong key must all fail. *)
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
  in
  Alcotest.(check bool) "tampered signature" false
    (BSign.verify_sealed ~pk sealed ~signature:(flip signature 3));
  let forged_posts = { sealed with Bulletin.posts = [| "msg-1"; "msg-2"; "msg-X" |] } in
  Alcotest.(check bool) "tampered posts" false
    (BSign.verify_sealed ~pk forged_posts ~signature);
  let forged_epoch = { sealed with Bulletin.epoch = 6 } in
  Alcotest.(check bool) "tampered epoch" false
    (BSign.verify_sealed ~pk forged_epoch ~signature);
  let sk2, _ = BSign.keypair ~seed:43 in
  Alcotest.(check bool) "wrong key" false
    (BSign.verify_sealed ~pk sealed ~signature:(BSign.sign_sealed ~sk:sk2 sealed));
  (* A digest the posts don't hash to fails [sealed_consistent] even with
     a valid signature over it. *)
  let inconsistent = { sealed with Bulletin.digest = flip sealed.Bulletin.digest 0 } in
  Alcotest.(check bool) "inconsistent seal" false
    (BSign.verify_sealed ~pk inconsistent ~signature:(BSign.sign_sealed ~sk inconsistent))

let test_bulletin_publish_sealed () =
  let board = Bulletin.create () in
  let s0 = Bulletin.seal ~epoch:0 [ "b"; "a" ] in
  let s1 = Bulletin.seal ~epoch:1 [ "c" ] in
  Bulletin.publish_sealed board s0;
  Bulletin.publish_sealed board s1;
  Alcotest.(check (list string)) "epoch 0" [ "a"; "b" ] (Bulletin.read_round board ~round:0);
  Alcotest.(check (list string)) "epoch 1" [ "c" ] (Bulletin.read_round board ~round:1)

(* ---- end-to-end: ingest epochs over the simulator transport ---- *)

module SimT = Atom_rpc.Sim_transport
module NodeSim = Atom_rpc.Node.Make (G) (SimT.Check)

(* 4 ingest-mode servers (2 entry groups of 2) and one client process in
   the discrete-event engine, with the epoch coordinator unclocked: its
   epoch pacing counts receive timeouts instead of wall seconds. The
   client submits a first batch, waits until an entry head has rolled
   over to a later epoch, then submits a second batch and stops. Returns
   the acked (plaintext, epoch) pairs and the coordinator's outcome. *)
let sim_ingest_config =
  {
    (Config.tiny ~variant:Config.Basic ~seed:11 ()) with
    Config.n_servers = 4;
    n_groups = 2;
    group_size = 2;
    h = 1;
    topology = Config.Square 2;
  }

let run_sim_ingest () : (string * int) list * NodeSim.ingest_outcome =
  let open Atom_sim in
  let config = sim_ingest_config in
  let n = config.Config.n_servers in
  let coord = n and cid = n + 1 in
  let e = Engine.create () in
  let machines =
    Array.init (n + 2) (fun id -> Machine.create e ~id ~cores:4 ~bandwidth:1e9 ~cluster:0)
  in
  let fleet = SimT.fleet e (Net.create e) ~machines in
  for sid = 0 to n - 1 do
    Engine.spawn e (fun () ->
        NodeSim.run_node fleet.(sid) ~config ~node_id:sid ~coord ~recv_timeout:1.0
          ~max_idle:120 ~ingest:Adm.default_policy ())
  done;
  let active = ref true in
  let outcome = ref None in
  Engine.spawn e (fun () ->
      outcome :=
        Some
          (NodeSim.run_ingest_coordinator fleet.(coord) ~config ~recv_timeout:1.0 ~max_idle:120
             ~epoch_s:4.0 ~min_epochs:2
             ~keep_collecting:(fun () -> !active)
             ()));
  let net = NodeSim.Pr.setup (Atom_util.Rng.create config.Config.seed) config () in
  let heads = Array.map (fun g -> g.NodeSim.Pr.members.(0)) net.NodeSim.Pr.groups in
  let accepted = ref [] in
  Engine.spawn e (fun () ->
      let ep = fleet.(cid) in
      let rng = Atom_util.Rng.create 0x5eed in
      let send ~token ~gid blob =
        ignore
          (SimT.send ep ~dst:heads.(gid)
             (Ctrl.encode
                (Ctrl.Submit { client = cid; port = 0; token; gid; epoch = 0; blob; pow = "" })))
      in
      (* The first reply [pick] recognizes, skipping anything else. *)
      let rec await pick =
        match SimT.recv ep ~timeout:5.0 with
        | Error _ -> None
        | Ok (_, frame) -> (
            match Option.bind (Ctrl.decode frame) pick with
            | Some r -> Some r
            | None -> await pick)
      in
      let batch round =
        for i = 0 to 3 do
          let gid = i mod 2 in
          let token = (10 * round) + i in
          let msg = Printf.sprintf "sim ingest %d.%d" round i in
          send ~token ~gid
            (NodeSim.Pr.Wire.submission_to_bytes
               (NodeSim.Pr.submit rng net ~user:token ~entry_gid:gid msg));
          match
            await (function
              | Ctrl.Submit_ack { token = tk; status; epoch; _ } when tk = token ->
                  Some (status, epoch)
              | _ -> None)
          with
          | Some (status, epoch) when status = Ctrl.submit_accepted ->
              accepted := (msg, epoch) :: !accepted
          | _ -> Alcotest.failf "%s not accepted" msg
        done
      in
      batch 0;
      (* Epoch query (empty blob) until the head collects a later epoch. *)
      let rec rolled polls =
        send ~token:0 ~gid:0 "";
        match await (function Ctrl.Epoch_info { epoch; _ } -> Some epoch | _ -> None) with
        | Some ep when ep >= 1 -> ()
        | _ when polls < 50 -> rolled (polls + 1)
        | _ -> Alcotest.fail "entry head never left epoch 0"
      in
      rolled 0;
      batch 1;
      active := false);
  ignore (Engine.run e);
  match !outcome with
  | Some o -> (List.rev !accepted, o)
  | None -> Alcotest.fail "ingest coordinator never completed"

let test_sim_ingest_epochs () =
  let accepted, o = run_sim_ingest () in
  Alcotest.(check (option string)) "no abort" None o.NodeSim.ing_abort;
  Alcotest.(check int) "every submission acked" 8 (List.length accepted);
  Alcotest.(check bool) "acks span two epochs" true
    (List.exists (fun (_, e) -> e = 0) accepted && List.exists (fun (_, e) -> e > 0) accepted);
  Alcotest.(check bool) "pipelined epochs" true (List.length o.NodeSim.ing_epochs >= 2);
  let _, pk = NodeSim.bulletin_keypair sim_ingest_config in
  let posts_of ep = Array.to_list ep.NodeSim.ep_sealed.Bulletin.posts in
  List.iter
    (fun ep ->
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d signature" ep.NodeSim.ep_epoch)
        true
        (NodeSim.BSign.verify_sealed ~pk ep.NodeSim.ep_sealed ~signature:ep.NodeSim.ep_signature))
    o.NodeSim.ing_epochs;
  (* Exactly once, in the acked epoch. *)
  Alcotest.(check int) "published exactly the accepted set" (List.length accepted)
    (List.length (List.concat_map posts_of o.NodeSim.ing_epochs));
  List.iter
    (fun (msg, e) ->
      match List.find_opt (fun ep -> ep.NodeSim.ep_epoch = e) o.NodeSim.ing_epochs with
      | Some ep ->
          Alcotest.(check bool) (Printf.sprintf "%S in epoch %d" msg e) true
            (List.mem msg (posts_of ep))
      | None -> Alcotest.failf "acked epoch %d never published" e)
    accepted;
  (* Same seed, same schedule: the epochs replay digest for digest. *)
  let digests o =
    List.map
      (fun ep -> (ep.NodeSim.ep_epoch, ep.NodeSim.ep_sealed.Bulletin.digest))
      o.NodeSim.ing_epochs
  in
  let _, o2 = run_sim_ingest () in
  Alcotest.(check (list (pair int string))) "epoch digests replay" (digests o) (digests o2)

(* ---- end-to-end: ingest cluster over threaded TCP ---- *)

(* 4 ingest-mode servers (2 entry groups of 2), real client transports
   submitting over loopback, and the pipelined-epoch coordinator sealing
   on a timer. The contract under test: every accepted submission appears
   on the signed bulletin of exactly the epoch its ack named; a duplicate
   submit is re-acked idempotently; garbage is rejected and never
   published; the epoch-info query answers. *)
let test_tcp_ingest_cluster () =
  let config =
    {
      (Config.tiny ~variant:Config.Basic ~seed:9 ()) with
      Config.n_servers = 4;
      n_groups = 2;
      group_size = 2;
      h = 1;
      topology = Config.Square 2;
    }
  in
  let n = config.Config.n_servers in
  let coord = n in
  let ts = Array.init (n + 1) (fun node_id -> TcpT.create ~node_id ()) in
  Array.iteri
    (fun i t ->
      Array.iteri
        (fun j u ->
          if i <> j then TcpT.add_peer t ~node_id:j ~host:"127.0.0.1" ~port:(TcpT.port u))
        ts)
    ts;
  let t0 = Unix.gettimeofday () in
  let clock () = Unix.gettimeofday () -. t0 in
  let policy = { Adm.default_policy with Adm.rate = 1000.; burst = 1000. } in
  let node_threads =
    List.init n (fun sid ->
        Thread.create
          (fun () ->
            Node.run_node ~clock ts.(sid) ~config ~node_id:sid ~coord ~recv_timeout:0.1
              ~max_idle:300 ~ingest:policy
              ~register_client:(fun ~client ~port ->
                TcpT.add_peer ts.(sid) ~node_id:client ~host:"127.0.0.1" ~port)
              ())
          ())
  in
  let net = Pr.setup (Atom_util.Rng.create config.Config.seed) config () in
  let heads = Array.init 2 (fun gid -> net.Pr.groups.(gid).Pr.members.(0)) in
  let n_clients = 4 in
  let active = Atomic.make n_clients in
  let accepted = Array.make n_clients [] in
  let got_epoch_info = Atomic.make 0 in
  let garbage_rejected = Atomic.make 0 in
  let dedup_consistent = Atomic.make true in
  let client_threads =
    List.init n_clients (fun j ->
        Thread.create
          (fun () ->
            let cid = n + 1 + j in
            let gid = j mod 2 in
            let head = heads.(gid) in
            let ct = TcpT.create ~node_id:cid () in
            TcpT.add_peer ct ~node_id:head ~host:"127.0.0.1" ~port:(TcpT.port ts.(head));
            let rng = Atom_util.Rng.create (1000 + cid) in
            let submit_frame ~token blob =
              ignore
                (TcpT.send ct ~dst:head
                   (Ctrl.encode
                      (Ctrl.Submit
                         {
                           client = cid; port = TcpT.port ct; token; gid; epoch = 0; blob;
                           pow = "";
                         })))
            in
            (* Wait for the ack matching [token]; duplicate-submit every
               frame once so the idempotent re-ack path is always hot. *)
            let await ~token blob =
              let deadline = Unix.gettimeofday () +. 20. in
              let first = ref None in
              let again = ref None in
              while (!first = None || !again = None) && Unix.gettimeofday () < deadline do
                if !first <> None && !again = None then submit_frame ~token blob;
                match TcpT.recv ct ~timeout:0.2 with
                | Ok (_, frame) -> (
                    match Ctrl.decode frame with
                    | Some (Ctrl.Submit_ack { token = tk; status; epoch; _ }) when tk = token ->
                        if !first = None then begin
                          first := Some (status, epoch);
                          submit_frame ~token blob
                        end
                        else if !again = None then again := Some (status, epoch)
                    | Some (Ctrl.Epoch_info _) -> Atomic.incr got_epoch_info
                    | _ -> ())
                | Error _ -> if !first = None then submit_frame ~token blob
              done;
              (match (!first, !again) with
              | Some a, Some b -> if a <> b then Atomic.set dedup_consistent false
              | _ -> ());
              !first
            in
            (* Epoch-info probe: an empty blob is a query, not a submission. *)
            submit_frame ~token:99 "";
            for s = 0 to 1 do
              let msg = Printf.sprintf "ingest c%d.%d" cid s in
              let blob =
                Pr.Wire.submission_to_bytes (Pr.submit rng net ~user:cid ~entry_gid:gid msg)
              in
              submit_frame ~token:s blob;
              match await ~token:s blob with
              | Some (status, epoch) when status = Ctrl.submit_accepted ->
                  accepted.(j) <- (msg, epoch) :: accepted.(j)
              | _ -> ()
            done;
            (* One garbage blob: must be rejected, must never publish. *)
            let garbage = Atom_util.Rng.bytes rng 32 in
            submit_frame ~token:7 garbage;
            (match await ~token:7 garbage with
            | Some (status, _) when status = Ctrl.submit_rejected ->
                Atomic.incr garbage_rejected
            | _ -> ());
            Atomic.decr active;
            (* Drain announcements until shutdown so the node's fan-out
               never blocks on a gone client. *)
            let quiet = ref 0 in
            while !quiet < 8 do
              match TcpT.recv ct ~timeout:0.25 with
              | Ok _ -> quiet := 0
              | Error _ -> incr quiet
            done;
            TcpT.close ct)
          ())
  in
  let outcome =
    Node.run_ingest_coordinator ~clock ts.(coord) ~config ~recv_timeout:0.1 ~max_idle:300
      ~epoch_s:0.7 ~min_epochs:2
      ~keep_collecting:(fun () -> Atomic.get active > 0)
      ()
  in
  List.iter Thread.join node_threads;
  List.iter Thread.join client_threads;
  Array.iter TcpT.close ts;
  Alcotest.(check (option string)) "no abort" None outcome.Node.ing_abort;
  Alcotest.(check bool) "pipelined epochs" true (List.length outcome.Node.ing_epochs >= 2);
  Alcotest.(check bool) "epoch info answered" true (Atomic.get got_epoch_info >= 1);
  Alcotest.(check int) "garbage rejected everywhere" n_clients (Atomic.get garbage_rejected);
  Alcotest.(check bool) "duplicate submits re-acked identically" true
    (Atomic.get dedup_consistent);
  let all_accepted = List.concat (Array.to_list accepted) in
  Alcotest.(check int) "every submission acked" (2 * n_clients) (List.length all_accepted);
  (* Exactly-once on the signed bulletin, in the acked epoch. *)
  let _, pk = Node.bulletin_keypair config in
  let posts_of e = Array.to_list e.Node.ep_sealed.Bulletin.posts in
  List.iter
    (fun ep ->
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d signature" ep.Node.ep_epoch)
        true
        (Node.BSign.verify_sealed ~pk ep.Node.ep_sealed ~signature:ep.Node.ep_signature))
    outcome.Node.ing_epochs;
  let published = List.concat_map posts_of outcome.Node.ing_epochs in
  Alcotest.(check int) "published exactly the accepted set" (List.length all_accepted)
    (List.length published);
  List.iter
    (fun (msg, e) ->
      match List.find_opt (fun ep -> ep.Node.ep_epoch = e) outcome.Node.ing_epochs with
      | Some ep ->
          Alcotest.(check bool) (Printf.sprintf "%S in epoch %d" msg e) true
            (List.mem msg (posts_of ep))
      | None -> Alcotest.failf "acked epoch %d never sealed" e)
    all_accepted

let suite =
  ( "ingest",
    [
      Alcotest.test_case "token bucket" `Quick test_token_bucket;
      Alcotest.test_case "hashcash pow" `Quick test_pow;
      Alcotest.test_case "structural denials" `Quick test_structural_denials;
      Alcotest.test_case "intake dedup re-ack" `Quick test_intake_dedup_reack;
      Alcotest.test_case "intake backpressure + seal" `Quick test_intake_backpressure_and_seal;
      Alcotest.test_case "bulletin canonical seal" `Quick test_bulletin_canonical;
      Alcotest.test_case "bulletin signatures" `Quick test_bulletin_signatures;
      Alcotest.test_case "bulletin publish sealed" `Quick test_bulletin_publish_sealed;
      Alcotest.test_case "sim ingest epochs" `Quick test_sim_ingest_epochs;
      Alcotest.test_case "tcp ingest cluster" `Quick test_tcp_ingest_cluster;
    ] )
