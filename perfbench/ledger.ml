(* The cost ledger: per-call costs of each layer's public functions, timed
   on the workload's own parameters (field, unit width, per-group batch,
   frame and blob sizes), and the group-level prediction of a round's
   compute from its exact operation tallies.

   Costs are timed sequentially except the shuffle proofs, which take the
   workload's pool as the runtime does. *)

open Atom_core
open Common

type shape = {
  group : (module Atom_group.Group_intf.GROUP);
  field : Atom_nat.Modarith.ctx; (* the backend's base field *)
  config : Config.t;
  batch : int; (* onion units per group per hop *)
  epoch_posts : int; (* posts on one published bulletin *)
  pool : Atom_exec.Pool.t option;
}

(* Average size of the batched calls a round made, at least [floor]. *)
let avg ~floor total calls = if calls <= 0 then floor else max floor (total / calls)

let costs (s : shape) ~(ops : Atom_obs.Opcount.snapshot) : metric list =
  let module G = (val s.group) in
  let module Pr = Protocol.Make (G) in
  let module El = Pr.El in
  let module C = Atom_wire.Codec.Make (G) (El) in
  let module BSign = Bulletin.Signer (G) in
  let config = s.config in
  let rng = Atom_util.Rng.create (config.Config.seed lxor 0x1ed9e) in
  let width = Pr.unit_width config in
  (* nat: session mul/sqr on the backend field, 1000 per timed call *)
  let module M = Atom_nat.Modarith in
  let fe () = M.of_nat s.field (G.Scalar.to_nat (G.Scalar.random rng)) in
  let a = fe () and b = fe () in
  let kernel op =
    per_call_ns (fun () ->
        M.with_session s.field (fun ss ->
            let d = M.S.take ss in
            M.copy_into ~dst:d a;
            for _ = 1 to 1000 do
              op ss d
            done))
    /. 1000.
  in
  let mul_ns = kernel (fun ss d -> M.S.mul ss ~dst:d d b) in
  let sqr_ns = kernel (fun ss d -> M.S.sqr ss ~dst:d d) in
  (* group: single ops and batched ops at the round's average sizes *)
  let x = G.random rng and y = G.random rng in
  let k = G.Scalar.random rng and l = G.Scalar.random rng in
  let pow_ns = per_call_ns (fun () -> ignore (G.pow x k)) in
  let pow_gen_ns = per_call_ns (fun () -> ignore (G.pow_gen k)) in
  let pow2_ns = per_call_ns (fun () -> ignore (G.pow2 x k y l)) in
  let open Atom_obs.Opcount in
  let terms = avg ~floor:2 ops.msm_terms ops.msm_calls in
  let pairs = Array.init terms (fun _ -> (G.random rng, G.Scalar.random rng)) in
  let msm_term_ns = per_call_ns (fun () -> ignore (G.msm pairs)) /. float_of_int terms in
  let scalars_n = avg ~floor:2 ops.batch_scalars ops.batch_calls in
  let scalars = Array.init scalars_n (fun _ -> G.Scalar.random rng) in
  (* Batched exponentiations come in pairs over the same scalars: g^r by
     pow_gen_batch and pk^r by pow_batch. *)
  let batch_scalar_ns =
    per_call_ns (fun () ->
        ignore (G.pow_gen_batch scalars);
        ignore (G.pow_batch x scalars))
    /. float_of_int (2 * scalars_n)
  in
  let predicted_s =
    (float_of_int ops.pow *. pow_ns)
    +. (float_of_int ops.pow_gen *. pow_gen_ns)
    +. (float_of_int ops.pow2 *. pow2_ns)
    +. (float_of_int ops.msm_terms *. msm_term_ns)
    +. (float_of_int ops.batch_scalars *. batch_scalar_ns)
  in
  let predicted_s = predicted_s /. 1e9 in
  (* elgamal at the unit width *)
  let net_t0 = now () in
  let net = Pr.setup (Atom_util.Rng.create config.Config.seed) config () in
  let setup_s = now () -. net_t0 in
  let pk = Pr.group_pk net 0 in
  let share = G.Scalar.random rng in
  let elements = Array.init width (fun _ -> G.random rng) in
  let vec, rands = El.enc_vec rng pk elements in
  let enc_vec_ns = per_call_ns (fun () -> ignore (El.enc_vec rng pk elements)) in
  let reenc_vec_ns =
    per_call_ns (fun () -> ignore (El.reenc_vec rng ~share ~next_pk:(Some pk) vec))
  in
  let kp = El.keygen rng in
  let sealed = El.Kem.enc rng kp.El.pk (String.make config.Config.msg_bytes 'm') in
  let kem_dec_ns = per_call_ns (fun () -> ignore (El.Kem.dec kp.El.sk sealed)) in
  (* zkp at the per-group batch *)
  let context = Pr.proof_context net 0 in
  let input = Array.init s.batch (fun _ -> fst (El.enc_vec rng pk elements)) in
  let output, witness =
    match El.shuffle_vec rng pk input with Some r -> r | None -> failwith "shuffle_vec"
  in
  let proof = ref None in
  let shuffle_prove_s =
    per_call_s (fun () ->
        proof := Some (Pr.Shuf.prove ?pool:s.pool rng ~pk ~context ~input ~output ~witness))
  in
  let proof = Option.get !proof in
  let shuffle_verify_s =
    per_call_s (fun () ->
        if not (Pr.Shuf.verify ?pool:s.pool ~pk ~context ~input ~output proof) then
          failwith "shuffle proof rejected")
  in
  let reenc_proof_prove_ns =
    per_call_ns (fun () ->
        ignore (Pr.P.Reenc_proof.reenc_vec_with_proof rng ~share ~next_pk:(Some pk) ~context vec))
  in
  let eff_pk = G.pow_gen share in
  let rvec, rproofs =
    Pr.P.Reenc_proof.reenc_vec_with_proof rng ~share ~next_pk:(Some pk) ~context vec
  in
  let reenc_proof_verify_ns =
    per_call_ns (fun () ->
        if
          not
            (Pr.P.Reenc_proof.verify_vec ~eff_pk ~next_pk:(Some pk) ~context ~input:vec
               ~output:rvec rproofs)
        then failwith "reenc proof rejected")
  in
  let eproofs = Pr.P.Enc_proof.prove_vec rng ~pk ~context vec ~randomness:rands in
  let enc_proof_verify_ns =
    per_call_ns (fun () ->
        if not (Pr.P.Enc_proof.verify_vec ~pk ~context vec eproofs) then
          failwith "enc proof rejected")
  in
  (* wire: a shuffle-step frame at the per-group batch, Batched decode *)
  let frame =
    C.encode
      (C.Shuffle_step
         { gid = 0; iter = 0; step = 2; sent_at = 0; input; output;
           proof = Pr.Shuf.to_bytes proof })
  in
  let mb = float_of_int (String.length frame) /. 1e6 in
  let enc_ns =
    per_call_ns (fun () ->
        ignore
          (C.encode
             (C.Shuffle_step
                { gid = 0; iter = 0; step = 2; sent_at = 0; input; output;
                  proof = Pr.Shuf.to_bytes proof })))
  in
  let dec_ns =
    per_call_ns (fun () ->
        if C.decode ~policy:Atom_wire.Validation.Batched frame = None then
          failwith "frame rejected")
  in
  let sub = Pr.submit rng net ~user:0 ~entry_gid:0 "ledger" in
  let blob = Pr.Wire.submission_to_bytes sub in
  let submit_frame =
    Atom_wire.Control.encode
      (Atom_wire.Control.Submit { client = 9; port = 1; token = 1; gid = 0; epoch = 0; blob; pow = "" })
  in
  let control_decode_ns =
    per_call_ns (fun () ->
        if Atom_wire.Control.decode submit_frame = None then failwith "submit frame rejected")
  in
  (* ingest: admission, intake (distinct blobs: a repeat would be a dedup
     hit) and submission verification *)
  let policy = { Atom_ingest.Admission.default_policy with rate = 1e9; burst = 1e9 } in
  let adm = Atom_ingest.Admission.create policy in
  let tick = ref 0. in
  let admission_check_ns =
    per_call_ns (fun () ->
        tick := !tick +. 1e-6;
        ignore (Atom_ingest.Admission.check adm ~now:!tick ~client:1 ~blob ~pow:""))
  in
  let intake = Atom_ingest.Intake.create ~policy () in
  let distinct = Bytes.of_string (blob ^ "--------") in
  let stamp = Bytes.length distinct - 8 in
  let sent = ref 0 in
  let intake_submit_ns =
    per_call_ns (fun () ->
        incr sent;
        if !sent mod 4000 = 0 then
          ignore (Atom_ingest.Intake.seal intake ~epoch:(Atom_ingest.Intake.epoch intake));
        Bytes.set_int64_le distinct stamp (Int64.of_int !sent);
        tick := !tick +. 1e-6;
        ignore
          (Atom_ingest.Intake.submit intake ~now:!tick ~client:1
             ~blob:(Bytes.to_string distinct) ~pow:""
             ~validate:(fun ~epoch:_ _ -> true)))
  in
  let verify_submission_ns =
    per_call_ns (fun () ->
        if not (Pr.verify_submission net (Hashtbl.create 1) sub) then
          failwith "submission rejected")
  in
  (* core: the reference execution at the per-epoch load, bulletin signing *)
  let users = max 1 s.epoch_posts in
  let subs =
    List.init users (fun i ->
        Pr.submit rng net ~user:i ~entry_gid:(i mod config.Config.n_groups) (string_of_int i))
  in
  let reference_s = per_call_s ~samples:1 (fun () -> ignore (Pr.run rng net subs)) in
  let sk, _ = BSign.keypair ~seed:config.Config.seed in
  let sb = Bulletin.seal ~epoch:0 (List.init users (Printf.sprintf "post %d")) in
  let bulletin_sign_ns = per_call_ns (fun () -> ignore (BSign.sign_sealed ~sk sb)) in
  [
    m "nat.mul_ns" "ns" mul_ns;
    m "nat.sqr_ns" "ns" sqr_ns;
    m "group.pow_ns" "ns" pow_ns;
    m "group.pow_gen_ns" "ns" pow_gen_ns;
    m "group.pow2_ns" "ns" pow2_ns;
    m "group.msm_term_ns" "ns" msm_term_ns;
    m "group.batch_scalar_ns" "ns" batch_scalar_ns;
    m "group.predicted_s" "s" predicted_s;
    m "elgamal.enc_vec_ns" "ns" enc_vec_ns;
    m "elgamal.reenc_vec_ns" "ns" reenc_vec_ns;
    m "elgamal.kem_dec_ns" "ns" kem_dec_ns;
    m "zkp.shuffle_prove_s" "s" shuffle_prove_s;
    m "zkp.shuffle_verify_s" "s" shuffle_verify_s;
    m "zkp.reenc_proof_prove_ns" "ns" reenc_proof_prove_ns;
    m "zkp.reenc_proof_verify_ns" "ns" reenc_proof_verify_ns;
    m "zkp.enc_proof_verify_ns" "ns" enc_proof_verify_ns;
    m "wire.batch_encode_mb_s" "MB/s" (mb /. (enc_ns /. 1e9));
    m "wire.batch_decode_mb_s" "MB/s" (mb /. (dec_ns /. 1e9));
    m "wire.control_decode_ns" "ns" control_decode_ns;
    m "ingest.admission_check_ns" "ns" admission_check_ns;
    m "ingest.intake_submit_ns" "ns" intake_submit_ns;
    m "ingest.verify_submission_ns" "ns" verify_submission_ns;
    m "core.setup_s" "s" setup_s;
    m "core.reference_s" "s" reference_s;
    m "core.bulletin_sign_ns" "ns" bulletin_sign_ns;
  ]
