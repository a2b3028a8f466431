(* Per-primitive cost tables.

   The modeled simulator charges virtual CPU time per cryptographic
   operation. Two sources:

   - [paper]: the constants of Table 3 (measured by the authors on EC2
     c4.xlarge with Go + P-256 assembly). Using these makes the reproduced
     figures directly comparable with the paper's.
   - [measure]: re-measured on this host with this repo's pure-OCaml
     backends; slower in absolute terms, same shape.

   All costs are seconds per 32-byte message block (one group element); a
   W-block message costs W times as much, matching "the latency increases
   linearly with the message size" (§6.1). *)

type t = {
  name : string;
  enc : float;
  reenc : float;
  shuffle_per_msg : float;
  encproof_prove : float;
  encproof_verify : float;
  reencproof_prove : float;
  reencproof_verify : float;
  shufproof_prove_per_msg : float;
  shufproof_verify_per_msg : float;
  kem_open : float; (* decrypt one inner ciphertext at the exit *)
  commit_check : float; (* hash commitment verification *)
}

(* Table 3 (32-byte messages; Shuffle/ShufProof amortized over 1,024). *)
let paper : t =
  {
    name = "paper-table3";
    enc = 1.40e-4;
    reenc = 3.35e-4;
    shuffle_per_msg = 0.107 /. 1024.;
    encproof_prove = 1.62e-4;
    encproof_verify = 1.39e-4;
    reencproof_prove = 6.55e-4;
    reencproof_verify = 4.46e-4;
    shufproof_prove_per_msg = 0.757 /. 1024.;
    shufproof_verify_per_msg = 1.41 /. 1024.;
    kem_open = 2.0e-4;
    commit_check = 1.0e-6;
  }

let scale (c : t) (factor : float) : t =
  {
    c with
    name = Printf.sprintf "%s-x%.2f" c.name factor;
    enc = c.enc *. factor;
    reenc = c.reenc *. factor;
    shuffle_per_msg = c.shuffle_per_msg *. factor;
    encproof_prove = c.encproof_prove *. factor;
    encproof_verify = c.encproof_verify *. factor;
    reencproof_prove = c.reencproof_prove *. factor;
    reencproof_verify = c.reencproof_verify *. factor;
    shufproof_prove_per_msg = c.shufproof_prove_per_msg *. factor;
    shufproof_verify_per_msg = c.shufproof_verify_per_msg *. factor;
    kem_open = c.kem_open *. factor;
  }

let time_it ?(reps = 10) (f : unit -> unit) : float =
  (* warm-up *)
  f ();
  let start = Unix.gettimeofday () in
  for _ = 1 to reps do
    f ()
  done;
  (Unix.gettimeofday () -. start) /. float_of_int reps

(* Re-measure Table 3 on this host with a given group backend. *)
let measure (module G : Atom_group.Group_intf.GROUP) ?(shuffle_batch = 256) () : t =
  let module El = Atom_elgamal.Elgamal.Make (G) in
  let module P = Atom_zkp.Proofs.Make (G) (El) in
  let module Shuf = Atom_zkp.Shuffle_proof.Make (G) (El) in
  let rng = Atom_util.Rng.create 0xca11b in
  let kp = El.keygen rng in
  let next = El.keygen rng in
  let m = G.random rng in
  let ct, randomness = El.enc rng kp.El.pk m in
  let enc = time_it (fun () -> ignore (El.enc rng kp.El.pk m)) in
  let reenc =
    time_it (fun () -> ignore (El.reenc rng ~share:kp.El.sk ~next_pk:(Some next.El.pk) ct))
  in
  let batch = Array.init shuffle_batch (fun _ -> [| fst (El.enc rng kp.El.pk m) |]) in
  let shuffle_total = time_it ~reps:3 (fun () -> ignore (El.shuffle_vec rng kp.El.pk batch)) in
  let encproof_prove =
    time_it (fun () -> ignore (P.Enc_proof.prove rng ~pk:kp.El.pk ~context:"c" ct ~randomness))
  in
  (* The runtime proves and verifies a hop's proofs as one vector (one MSM
     per verification), so these are per-proof averages over a
     [shuffle_batch]-sized vector, like the shuffle-proof rows. *)
  let n = float_of_int shuffle_batch in
  let v, rands = El.enc_vec rng kp.El.pk (Array.init shuffle_batch (fun _ -> m)) in
  let epis = P.Enc_proof.prove_vec rng ~pk:kp.El.pk ~context:"c" v ~randomness:rands in
  let encproof_verify =
    time_it ~reps:2 (fun () -> ignore (P.Enc_proof.verify_vec ~pk:kp.El.pk ~context:"c" v epis))
    /. n
  in
  let reenc_vec () =
    P.Reenc_proof.reenc_vec_with_proof rng ~share:kp.El.sk ~next_pk:(Some next.El.pk)
      ~context:"c" v
  in
  let reencproof_prove = time_it ~reps:2 (fun () -> ignore (reenc_vec ())) /. n in
  let out, rpis = reenc_vec () in
  let reencproof_verify =
    time_it ~reps:2 (fun () ->
        ignore
          (P.Reenc_proof.verify_vec ~eff_pk:kp.El.pk ~next_pk:(Some next.El.pk) ~context:"c"
             ~input:v ~output:out rpis))
    /. n
  in
  let shuffled, witness = Option.get (El.shuffle_vec rng kp.El.pk batch) in
  let shufproof_prove_total =
    time_it ~reps:2 (fun () ->
        ignore (Shuf.prove rng ~pk:kp.El.pk ~context:"c" ~input:batch ~output:shuffled ~witness))
  in
  let spi = Shuf.prove rng ~pk:kp.El.pk ~context:"c" ~input:batch ~output:shuffled ~witness in
  let shufproof_verify_total =
    time_it ~reps:2 (fun () ->
        ignore (Shuf.verify ~pk:kp.El.pk ~context:"c" ~input:batch ~output:shuffled spi))
  in
  let sealed = El.Kem.enc rng kp.El.pk (String.make 160 'x') in
  let kem_open = time_it (fun () -> ignore (El.Kem.dec kp.El.sk sealed)) in
  let commit_check =
    time_it ~reps:100 (fun () -> ignore (Atom_hash.Keccak.sha3_256 (String.make 48 'y')))
  in
  {
    name = "measured-" ^ G.name;
    enc;
    reenc;
    shuffle_per_msg = shuffle_total /. n;
    encproof_prove;
    encproof_verify;
    reencproof_prove;
    reencproof_verify;
    shufproof_prove_per_msg = shufproof_prove_total /. n;
    shufproof_verify_per_msg = shufproof_verify_total /. n;
    kem_open;
    commit_check;
  }

let pp (fmt : Format.formatter) (c : t) : unit =
  Format.fprintf fmt
    "@[<v>calibration %s (seconds):@,\
     Enc              %.3e@,\
     ReEnc            %.3e@,\
     Shuffle/msg      %.3e@,\
     EncProof         prove %.3e  verify %.3e@,\
     ReEncProof       prove %.3e  verify %.3e@,\
     ShufProof/msg    prove %.3e  verify %.3e@,\
     KEM open         %.3e@]" c.name c.enc c.reenc c.shuffle_per_msg c.encproof_prove
    c.encproof_verify c.reencproof_prove c.reencproof_verify c.shufproof_prove_per_msg
    c.shufproof_verify_per_msg c.kem_open
