(* Tests for atom_zkp: EncProof, DLEQ, ReEncProof, and the verifiable
   shuffle. Soundness is exercised by active tampering: every mutation an
   Atom adversary could attempt on the proven statements must be caught. *)

module Run (G : Atom_group.Group_intf.GROUP) = struct
  module El = Atom_elgamal.Elgamal.Make (G)
  module P = Atom_zkp.Proofs.Make (G) (El)
  module Shuf = Atom_zkp.Shuffle_proof.Make (G) (El)

  let rng () = Atom_util.Rng.create (Atom_util.Rng.hash_string ("zkp" ^ G.name))

  let test_enc_proof () =
    let r = rng () in
    let kp = El.keygen r in
    let m = G.random r in
    let ct, randomness = El.enc r kp.El.pk m in
    let pi = P.Enc_proof.prove r ~pk:kp.El.pk ~context:"group-7" ct ~randomness in
    Alcotest.(check bool) "valid proof accepted" true
      (P.Enc_proof.verify ~pk:kp.El.pk ~context:"group-7" ct pi);
    (* Binding to the entry group id: replaying at another group fails. *)
    Alcotest.(check bool) "other group rejected" false
      (P.Enc_proof.verify ~pk:kp.El.pk ~context:"group-8" ct pi);
    (* A rerandomized copy of the ciphertext invalidates the proof — this is
       what stops the duplicate-plaintext attack of §3. *)
    let ct', _ = Option.get (El.rerandomize r kp.El.pk ct) in
    Alcotest.(check bool) "rerandomized copy rejected" false
      (P.Enc_proof.verify ~pk:kp.El.pk ~context:"group-7" ct' pi)

  let test_enc_proof_vec () =
    let r = rng () in
    let kp = El.keygen r in
    let ms = Array.init 3 (fun _ -> G.random r) in
    let v, rands = El.enc_vec r kp.El.pk ms in
    let pis = P.Enc_proof.prove_vec r ~pk:kp.El.pk ~context:"g" v ~randomness:rands in
    Alcotest.(check bool) "vector proof accepted" true
      (P.Enc_proof.verify_vec ~pk:kp.El.pk ~context:"g" v pis);
    (* Component count mismatch rejected. *)
    Alcotest.(check bool) "truncated rejected" false
      (P.Enc_proof.verify_vec ~pk:kp.El.pk ~context:"g" v (Array.sub pis 0 2))

  let test_dleq () =
    let r = rng () in
    let x = G.Scalar.random r in
    let g2 = G.random r in
    let h1 = G.pow_gen x and h2 = G.pow g2 x in
    let pi = P.Dleq.prove r ~context:"t" ~g1:G.generator ~h1 ~g2 ~h2 ~x in
    Alcotest.(check bool) "valid dleq" true
      (P.Dleq.verify ~context:"t" ~g1:G.generator ~h1 ~g2 ~h2 pi);
    (* Different exponent on the second pair must fail. *)
    let h2_bad = G.mul h2 g2 in
    Alcotest.(check bool) "unequal logs rejected" false
      (P.Dleq.verify ~context:"t" ~g1:G.generator ~h1 ~g2 ~h2:h2_bad pi);
    Alcotest.(check bool) "wrong context rejected" false
      (P.Dleq.verify ~context:"u" ~g1:G.generator ~h1 ~g2 ~h2 pi)

  let test_reenc_proof_chain () =
    let r = rng () in
    let k = 3 in
    let group = Array.init k (fun _ -> El.keygen r) in
    let gpk = El.combine_pks (Array.to_list (Array.map (fun kp -> kp.El.pk) group)) in
    let next = El.keygen r in
    let m = G.random r in
    let ct0, _ = El.enc r gpk m in
    (* Each server re-encrypts with proof; every proof verifies against its
       own input/output pair. *)
    let ct = ref ct0 in
    Array.iter
      (fun kp ->
        let ct', pi =
          P.Reenc_proof.reenc_with_proof r ~share:kp.El.sk ~next_pk:(Some next.El.pk)
            ~context:"iter-0" !ct
        in
        Alcotest.(check bool) "step verifies" true
          (P.Reenc_proof.verify ~eff_pk:kp.El.pk ~next_pk:(Some next.El.pk) ~context:"iter-0"
             ~input:!ct ~output:ct' pi);
        (* Verifying against a mutated output must fail. *)
        let bad = { ct' with El.c = G.mul ct'.El.c G.generator } in
        Alcotest.(check bool) "tampered output rejected" false
          (P.Reenc_proof.verify ~eff_pk:kp.El.pk ~next_pk:(Some next.El.pk) ~context:"iter-0"
             ~input:!ct ~output:bad pi);
        ct := ct')
      group;
    (* After the full pass the ciphertext decrypts under the next key. *)
    let ct = El.clear_y !ct in
    Alcotest.(check bool) "chain correct" true (G.equal m (Option.get (El.dec next.El.sk ct)))

  let test_reenc_proof_exit_layer () =
    let r = rng () in
    let kp = El.keygen r in
    let m = G.random r in
    let ct, _ = El.enc r kp.El.pk m in
    let ct', pi =
      P.Reenc_proof.reenc_with_proof r ~share:kp.El.sk ~next_pk:None ~context:"exit" ct
    in
    Alcotest.(check bool) "exit step verifies" true
      (P.Reenc_proof.verify ~eff_pk:kp.El.pk ~next_pk:None ~context:"exit" ~input:ct ~output:ct'
         pi);
    Alcotest.(check bool) "plaintext exposed" true (G.equal m (El.plaintext_of_exit ct'));
    (* A server that lies about the plaintext is caught. *)
    let forged = { ct' with El.c = G.mul ct'.El.c G.generator } in
    Alcotest.(check bool) "forged exit rejected" false
      (P.Reenc_proof.verify ~eff_pk:kp.El.pk ~next_pk:None ~context:"exit" ~input:ct ~output:forged
         pi)

  let test_reenc_proof_wrong_share () =
    let r = rng () in
    let kp = El.keygen r and other = El.keygen r in
    let m = G.random r in
    let ct, _ = El.enc r kp.El.pk m in
    let ct', pi =
      P.Reenc_proof.reenc_with_proof r ~share:other.El.sk ~next_pk:None ~context:"x" ct
    in
    (* The proof itself is consistent, but verifies only against the actual
       share's public key — claiming it used [kp]'s share fails. *)
    Alcotest.(check bool) "wrong eff_pk rejected" false
      (P.Reenc_proof.verify ~eff_pk:kp.El.pk ~next_pk:None ~context:"x" ~input:ct ~output:ct' pi)

  let make_batch r pk n width =
    Array.init n (fun _ ->
        let ms = Array.init width (fun _ -> G.random r) in
        fst (El.enc_vec r pk ms))

  let test_shuffle_proof_complete () =
    let r = rng () in
    let kp = El.keygen r in
    List.iter
      (fun (n, width) ->
        let input = make_batch r kp.El.pk n width in
        let output, witness = Option.get (El.shuffle_vec r kp.El.pk input) in
        let pi = Shuf.prove r ~pk:kp.El.pk ~context:"ctx" ~input ~output ~witness in
        Alcotest.(check bool)
          (Printf.sprintf "n=%d w=%d accepted" n width)
          true
          (Shuf.verify ~pk:kp.El.pk ~context:"ctx" ~input ~output pi))
      [ (1, 1); (2, 1); (8, 1); (4, 2) ]

  let test_shuffle_proof_tamper () =
    let r = rng () in
    let kp = El.keygen r in
    let input = make_batch r kp.El.pk 6 1 in
    let output, witness = Option.get (El.shuffle_vec r kp.El.pk input) in
    let pi = Shuf.prove r ~pk:kp.El.pk ~context:"ctx" ~input ~output ~witness in
    (* 1. Replacing one output ciphertext with a fresh encryption. *)
    let forged = Array.copy output in
    forged.(3) <- fst (El.enc_vec r kp.El.pk [| G.random r |]);
    Alcotest.(check bool) "replaced output rejected" false
      (Shuf.verify ~pk:kp.El.pk ~context:"ctx" ~input ~output:forged pi);
    (* 2. Duplicating one output over another (drop + duplicate attack). *)
    let dup = Array.copy output in
    dup.(2) <- dup.(4);
    Alcotest.(check bool) "duplicated output rejected" false
      (Shuf.verify ~pk:kp.El.pk ~context:"ctx" ~input ~output:dup pi);
    (* 3. Swapping two outputs after the proof was made. *)
    let swapped = Array.copy output in
    let tmp = swapped.(0) in
    swapped.(0) <- swapped.(1);
    swapped.(1) <- tmp;
    Alcotest.(check bool) "swapped outputs rejected" false
      (Shuf.verify ~pk:kp.El.pk ~context:"ctx" ~input ~output:swapped pi);
    (* 4. Mutating one input. *)
    let bad_input = Array.copy input in
    bad_input.(0) <- fst (El.enc_vec r kp.El.pk [| G.random r |]);
    Alcotest.(check bool) "mutated input rejected" false
      (Shuf.verify ~pk:kp.El.pk ~context:"ctx" ~input:bad_input ~output pi);
    (* 5. Wrong group key. *)
    let kp2 = El.keygen r in
    Alcotest.(check bool) "wrong pk rejected" false
      (Shuf.verify ~pk:kp2.El.pk ~context:"ctx" ~input ~output pi);
    (* 6. Wrong context (different generators). *)
    Alcotest.(check bool) "wrong context rejected" false
      (Shuf.verify ~pk:kp.El.pk ~context:"other" ~input ~output pi)

  let test_shuffle_proof_not_a_permutation () =
    let r = rng () in
    let kp = El.keygen r in
    let input = make_batch r kp.El.pk 4 1 in
    (* An adversarial "shuffle" that drops input 0 and duplicates input 1:
       build it by rerandomizing manually, then try to prove it with a forged
       witness. The proof must not verify. *)
    let fake_perm = [| 1; 1; 2; 3 |] in
    let rerands = Array.init 4 (fun _ -> [| G.Scalar.random r |]) in
    let output =
      Array.init 4 (fun j ->
          Array.mapi
            (fun w ct ->
              let r' = rerands.(j).(w) in
              { El.r = G.mul ct.El.r (G.pow_gen r');
                El.c = G.mul ct.El.c (G.pow kp.El.pk r');
                El.y = None })
            input.(fake_perm.(j)))
    in
    let witness = { El.vperm = fake_perm; El.vrerands = rerands } in
    let pi = Shuf.prove r ~pk:kp.El.pk ~context:"ctx" ~input ~output ~witness in
    Alcotest.(check bool) "non-permutation rejected" false
      (Shuf.verify ~pk:kp.El.pk ~context:"ctx" ~input ~output pi)

  let test_shuffle_decrypts_correctly () =
    let r = rng () in
    let kp = El.keygen r in
    let msgs = Array.init 5 (fun _ -> G.random r) in
    let input = Array.map (fun m -> fst (El.enc_vec r kp.El.pk [| m |])) msgs in
    let output, witness = Option.get (El.shuffle_vec r kp.El.pk input) in
    let pi = Shuf.prove r ~pk:kp.El.pk ~context:"c" ~input ~output ~witness in
    Alcotest.(check bool) "proof ok" true (Shuf.verify ~pk:kp.El.pk ~context:"c" ~input ~output pi);
    let key m = Atom_util.Hex.encode (G.to_bytes m) in
    let out_msgs =
      Array.map (fun v -> key (Option.get (El.dec kp.El.sk v.(0)))) output
    in
    Alcotest.(check (list string)) "multiset preserved"
      (List.sort compare (Array.to_list (Array.map key msgs)))
      (List.sort compare (Array.to_list out_msgs))

  (* ---- Batched ReEnc / Enc verification ----

     [verify_vec] folds every proof of a hop into one ρ-weighted MSM. These
     tests pin its verdict to the per-proof checks it replaces. *)

  let bump (x : G.t) : G.t = G.mul x G.generator

  (* The per-proof ReEnc check: the exact structural checks plus one
     [Dleq.verify] per DLEQ. *)
  let reenc_reference ~eff_pk ~next_pk ~context (input : El.cipher) (output : El.cipher)
      (pi : P.Reenc_proof.t) : bool =
    let y_in, r_in =
      match input.El.y with None -> (input.El.r, G.one) | Some y -> (y, input.El.r)
    in
    (match output.El.y with Some y -> G.equal y y_in | None -> false)
    && P.Dleq.verify ~context ~g1:G.generator ~h1:eff_pk ~g2:y_in ~h2:pi.P.Reenc_proof.stripped
         pi.P.Reenc_proof.strip_proof
    &&
    match (next_pk, pi.P.Reenc_proof.rerand_proof) with
    | None, None ->
        G.equal output.El.c (G.div input.El.c pi.P.Reenc_proof.stripped)
        && G.equal output.El.r r_in
    | Some pk', Some rp ->
        P.Dleq.verify ~context ~g1:G.generator ~h1:(G.div output.El.r r_in) ~g2:pk'
          ~h2:(G.div (G.mul output.El.c pi.P.Reenc_proof.stripped) input.El.c)
          rp
    | _ -> false

  (* The per-proof EncProof check, with the challenge derived as the wire
     format fixes it. *)
  let enc_reference ~pk ~context (ct : El.cipher) (pi : P.Enc_proof.t) : bool =
    let tr = Atom_zkp.Transcript.create ~domain:"enc-proof" in
    Atom_zkp.Transcript.add_list tr
      [ context; G.to_bytes pk; G.to_bytes ct.El.r; G.to_bytes ct.El.c; G.to_bytes pi.P.Enc_proof.a ];
    let t = G.hash_to_scalar (Atom_zkp.Transcript.digest tr) in
    G.equal (G.pow_gen pi.P.Enc_proof.u) (G.mul pi.P.Enc_proof.a (G.pow ct.El.r t))

  (* A hop of [n] ciphertexts as the second server of a two-member group
     sees it: inputs already carry Y from the first member's step. *)
  let reenc_hop r ~mid n =
    let k1 = El.keygen r and k2 = El.keygen r and next = El.keygen r in
    let gpk = El.combine_pks [ k1.El.pk; k2.El.pk ] in
    let next_pk = if mid then Some next.El.pk else None in
    let v, _ = El.enc_vec r gpk (Array.init n (fun _ -> G.random r)) in
    let input, _ = P.Reenc_proof.reenc_vec_with_proof r ~share:k1.El.sk ~next_pk ~context:"hop" v in
    let output, pis =
      P.Reenc_proof.reenc_vec_with_proof r ~share:k2.El.sk ~next_pk ~context:"hop" input
    in
    (k2.El.pk, next_pk, input, output, pis)

  let reenc_tampers ~mid : (string * (El.cipher * P.Reenc_proof.t -> El.cipher * P.Reenc_proof.t)) list =
    let open P.Reenc_proof in
    let strip f (o, pi) = (o, { pi with strip_proof = f pi.strip_proof }) in
    let rerand f (o, pi) = (o, { pi with rerand_proof = Option.map f pi.rerand_proof }) in
    let one = G.Scalar.one in
    [ ("stripped", fun (o, pi) -> (o, { pi with stripped = bump pi.stripped }));
      ("strip a1", strip (fun d -> { d with P.Dleq.a1 = bump d.P.Dleq.a1 }));
      ("strip a2", strip (fun d -> { d with P.Dleq.a2 = bump d.P.Dleq.a2 }));
      ("strip u", strip (fun d -> { d with P.Dleq.u = G.Scalar.add d.P.Dleq.u one }));
      ("output r", fun (o, pi) -> ({ o with El.r = bump o.El.r }, pi));
      ("output c", fun (o, pi) -> ({ o with El.c = bump o.El.c }, pi));
      ("output y", fun (o, pi) -> ({ o with El.y = Option.map bump o.El.y }, pi)) ]
    @
    if mid then
      [ ("rerand a1", rerand (fun d -> { d with P.Dleq.a1 = bump d.P.Dleq.a1 }));
        ("rerand a2", rerand (fun d -> { d with P.Dleq.a2 = bump d.P.Dleq.a2 }));
        ("rerand u", rerand (fun d -> { d with P.Dleq.u = G.Scalar.add d.P.Dleq.u one })) ]
    else []

  let test_reenc_batch_verify () =
    let r = rng () in
    List.iter
      (fun (mid, n) ->
        let layer = Printf.sprintf "%s n=%d" (if mid then "mid" else "exit") n in
        let eff_pk, next_pk, input, output, pis = reenc_hop r ~mid n in
        let verify output pis =
          P.Reenc_proof.verify_vec ~eff_pk ~next_pk ~context:"hop" ~input ~output pis
        in
        Alcotest.(check bool) (layer ^ " honest accepted") true (verify output pis);
        List.iter
          (fun (field, tamper) ->
            for i = 0 to n - 1 do
              let o = Array.copy output and p = Array.copy pis in
              let o', p' = tamper (o.(i), p.(i)) in
              o.(i) <- o';
              p.(i) <- p';
              Alcotest.(check bool)
                (Printf.sprintf "%s %s at %d rejected" layer field i)
                false (verify o p)
            done)
          (reenc_tampers ~mid);
        if n >= 2 then begin
          let p = Array.copy pis in
          p.(0) <- pis.(n - 1);
          p.(n - 1) <- pis.(0);
          Alcotest.(check bool) (layer ^ " swapped proofs rejected") false (verify output p)
        end;
        Alcotest.(check bool) (layer ^ " short proof vector rejected") false
          (verify output (Array.sub pis 0 (n - 1))))
      [ (true, 1); (true, 2); (true, 7); (false, 1); (false, 2); (false, 7) ]

  (* Random tamper mixes: the batch verdict is the AND of the per-proof
     reference checks. *)
  let test_reenc_batch_matches_reference () =
    let r = rng () in
    List.iter
      (fun mid ->
        let eff_pk, next_pk, input, output, pis = reenc_hop r ~mid 7 in
        let tampers = Array.of_list (reenc_tampers ~mid) in
        for trial = 0 to 11 do
          let o = Array.copy output and p = Array.copy pis in
          (* Trial 0 is the honest batch. *)
          if trial > 0 then
            Array.iteri
              (fun i _ ->
                if Atom_util.Rng.int_below r 4 = 0 then begin
                  let _, tamper = tampers.(Atom_util.Rng.int_below r (Array.length tampers)) in
                  let o', p' = tamper (o.(i), p.(i)) in
                  o.(i) <- o';
                  p.(i) <- p'
                end)
              p;
          let expected =
            Array.for_all Fun.id
              (Array.init 7 (fun i ->
                   reenc_reference ~eff_pk ~next_pk ~context:"hop" input.(i) o.(i) p.(i)))
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s trial %d" (if mid then "mid" else "exit") trial)
            expected
            (P.Reenc_proof.verify_vec ~eff_pk ~next_pk ~context:"hop" ~input ~output:o p)
        done)
      [ true; false ]

  let enc_tampers : (string * (El.cipher * P.Enc_proof.t -> El.cipher * P.Enc_proof.t)) list =
    [ ("a", fun (ct, pi) -> (ct, { pi with P.Enc_proof.a = bump pi.P.Enc_proof.a }));
      ("u", fun (ct, pi) -> (ct, { pi with P.Enc_proof.u = G.Scalar.add pi.P.Enc_proof.u G.Scalar.one }));
      ("ct r", fun (ct, pi) -> ({ ct with El.r = bump ct.El.r }, pi));
      ("ct c", fun (ct, pi) -> ({ ct with El.c = bump ct.El.c }, pi)) ]

  let test_enc_batch_verify () =
    let r = rng () in
    let kp = El.keygen r in
    let pk = kp.El.pk in
    List.iter
      (fun n ->
        let v, rands = El.enc_vec r pk (Array.init n (fun _ -> G.random r)) in
        let pis = P.Enc_proof.prove_vec r ~pk ~context:"g" v ~randomness:rands in
        let verify v pis = P.Enc_proof.verify_vec ~pk ~context:"g" v pis in
        Alcotest.(check bool) (Printf.sprintf "n=%d honest accepted" n) true (verify v pis);
        List.iter
          (fun (field, tamper) ->
            for i = 0 to n - 1 do
              let v' = Array.copy v and p = Array.copy pis in
              let ct, pi = tamper (v.(i), pis.(i)) in
              v'.(i) <- ct;
              p.(i) <- pi;
              Alcotest.(check bool)
                (Printf.sprintf "n=%d %s at %d rejected" n field i)
                false (verify v' p)
            done)
          enc_tampers;
        if n >= 2 then begin
          let p = Array.copy pis in
          p.(0) <- pis.(n - 1);
          p.(n - 1) <- pis.(0);
          Alcotest.(check bool) (Printf.sprintf "n=%d swapped rejected" n) false (verify v p)
        end)
      [ 1; 2; 7 ];
    let v, rands = El.enc_vec r pk (Array.init 7 (fun _ -> G.random r)) in
    let pis = P.Enc_proof.prove_vec r ~pk ~context:"g" v ~randomness:rands in
    let tampers = Array.of_list enc_tampers in
    for trial = 0 to 11 do
      let v' = Array.copy v and p = Array.copy pis in
      if trial > 0 then
        Array.iteri
          (fun i _ ->
            if Atom_util.Rng.int_below r 4 = 0 then begin
              let _, tamper = tampers.(Atom_util.Rng.int_below r (Array.length tampers)) in
              let ct, pi = tamper (v'.(i), p.(i)) in
              v'.(i) <- ct;
              p.(i) <- pi
            end)
          p;
      let expected =
        Array.for_all Fun.id (Array.init 7 (fun i -> enc_reference ~pk ~context:"g" v'.(i) p.(i)))
      in
      Alcotest.(check bool) (Printf.sprintf "enc trial %d" trial) expected (P.Enc_proof.verify_vec ~pk ~context:"g" v' p)
    done

  (* Scalars have one accepted encoding: q itself, and any valid scalar
     re-encoded as u + q (when that still fits the width), are rejected by
     every decoder that reads one. *)
  let test_noncanonical_scalars () =
    let r = rng () in
    let module Nat = Atom_nat.Nat in
    let len = P.scalar_bytes and eb = G.element_bytes in
    let q_bytes = Nat.to_bytes_be ~length:len G.Scalar.order in
    let plus_q u =
      let v = Nat.add (G.Scalar.to_nat u) G.Scalar.order in
      if Nat.bit_length v > 8 * len then None else Some (Nat.to_bytes_be ~length:len v)
    in
    let splice s off b = String.sub s 0 off ^ b ^ String.sub s (off + len) (String.length s - off - len) in
    (* [decode] must accept the original and reject both non-canonical
       re-encodings of the scalar at [off]. *)
    let check what decode bytes off =
      let u = Option.get (G.Scalar.of_bytes (String.sub bytes off len)) in
      Alcotest.(check bool) (what ^ " canonical accepted") true (decode bytes);
      Alcotest.(check bool) (what ^ " q rejected") false (decode (splice bytes off q_bytes));
      Option.iter
        (fun b -> Alcotest.(check bool) (what ^ " u+q rejected") false (decode (splice bytes off b)))
        (plus_q u)
    in
    Alcotest.(check bool) "read_scalar q" true (P.read_scalar q_bytes 0 = None);
    Alcotest.(check bool) "read_scalar all-ones" true (P.read_scalar (String.make len '\255') 0 = None);
    Alcotest.(check bool) "of_bytes short" true (G.Scalar.of_bytes (String.make (len - 1) '\000') = None);
    let kp = El.keygen r and next = El.keygen r in
    let ct, randomness = El.enc r kp.El.pk (G.random r) in
    let epi = P.Enc_proof.prove r ~pk:kp.El.pk ~context:"c" ct ~randomness in
    check "enc proof"
      (fun b -> Option.is_some (P.Enc_proof.of_bytes b))
      (P.Enc_proof.to_bytes epi) eb;
    let _, rpi = P.Reenc_proof.reenc_with_proof r ~share:kp.El.sk ~next_pk:(Some next.El.pk) ~context:"c" ct in
    let rbytes = P.Reenc_proof.to_bytes rpi in
    let decodes b = Option.is_some (P.Reenc_proof.of_bytes b) in
    check "reenc strip u" decodes rbytes (3 * eb);
    check "reenc rerand u" decodes rbytes ((5 * eb) + len + 1);
    (* Shuffle proof: k_rbar is the first scalar, after the two u32 sizes
       and the (2n + 3 + n + 2w) group elements. *)
    let n = 3 in
    let input = make_batch r kp.El.pk n 1 in
    let output, witness = Option.get (El.shuffle_vec r kp.El.pk input) in
    let spi = Shuf.prove r ~pk:kp.El.pk ~context:"c" ~input ~output ~witness in
    check "shuffle k_rbar"
      (fun b -> Option.is_some (Shuf.of_bytes b))
      (Shuf.to_bytes spi)
      (8 + (eb * ((3 * n) + 3 + 2)));
    (* Bulletin signatures: R then s. *)
    let module B = Atom_core.Bulletin.Signer (G) in
    let sk, pk = B.keypair ~seed:9 in
    check "bulletin s" (fun b -> B.verify ~pk ~msg:"epoch" b) (B.sign ~sk "epoch") eb

  let cases =
    let n = G.name in
    [
      Alcotest.test_case (n ^ " enc proof") `Quick test_enc_proof;
      Alcotest.test_case (n ^ " enc proof vec") `Quick test_enc_proof_vec;
      Alcotest.test_case (n ^ " dleq") `Quick test_dleq;
      Alcotest.test_case (n ^ " reenc proof chain") `Quick test_reenc_proof_chain;
      Alcotest.test_case (n ^ " reenc proof exit") `Quick test_reenc_proof_exit_layer;
      Alcotest.test_case (n ^ " reenc proof wrong share") `Quick test_reenc_proof_wrong_share;
      Alcotest.test_case (n ^ " shuffle proof complete") `Quick test_shuffle_proof_complete;
      Alcotest.test_case (n ^ " shuffle proof tamper") `Quick test_shuffle_proof_tamper;
      Alcotest.test_case (n ^ " shuffle proof non-permutation") `Quick
        test_shuffle_proof_not_a_permutation;
      Alcotest.test_case (n ^ " shuffle + decrypt") `Quick test_shuffle_decrypts_correctly;
      Alcotest.test_case (n ^ " reenc batch verify") `Quick test_reenc_batch_verify;
      Alcotest.test_case (n ^ " reenc batch = per-proof") `Quick test_reenc_batch_matches_reference;
      Alcotest.test_case (n ^ " enc batch verify") `Quick test_enc_batch_verify;
      Alcotest.test_case (n ^ " non-canonical scalars") `Quick test_noncanonical_scalars;
    ]
end

(* Proofs recorded from the per-ciphertext prover that preceded the batched
   one (P-256, mid layer, context "compat"). The batched verifiers must accept them:
   proof bytes and each proof's challenge derivation are unchanged. *)
let test_p256_recorded_proofs () =
  let module G = Atom_group.P256 in
  let module El = Atom_elgamal.Elgamal.Make (G) in
  let module P = Atom_zkp.Proofs.Make (G) (El) in
  let hex s = Atom_util.Hex.decode s in
  let el s = Option.get (G.of_bytes (hex s)) in
  let ct s = Option.get (El.cipher_of_bytes (hex s)) in
  let pk =
    el
      "03ed334a05c155261ade9087a47147155d979a010f58d5f5e1b980687bf1c586\
       6e"
  in
  let next_pk =
    el
      "032d97f126da82d01728a3516df0991b9b3720c237517f4d18e8ec09aab0a0fb\
       b9"
  in
  let input =
    ct
      "026bc6df823e59dd6397884995f5ad2e495e44c5d1d56868115b6a142f638c48\
       5f024178f399a62603c629f08c87f7d22e47b4e6c7da2fe66bbb349ac1d91a40\
       b5e700"
  in
  let output =
    ct
      "03903d605acaa035a2d11b077c5962b1db402774f363d56549c71305f37b7112\
       fb021d28bee596af30360d0c9916f8b903a4d4f3f3beade0109de4036398e697\
       9b2c01026bc6df823e59dd6397884995f5ad2e495e44c5d1d56868115b6a142f\
       638c485f"
  in
  let reenc =
    Option.get
      (P.Reenc_proof.of_bytes
         (hex
            "03762c395dd8f8cab786c536e8abdd4c42fd807f562ca258a37920b1b472fb8f\
             540316aa61c6c4accfb4d0c7d27e6a9cf109d7a3bfdfbfd46bcbb792ba338e01\
             3eec03539a86a1ec85010ec02b949ce920e90d0eaebf3acb7701333c8691aeab\
             c80d2308dab79a7a406b3127c12bd4033235af6fcfd456c32031f236e8c48c1c\
             7d64460102d53a057d28e1ed3cc9901399f0161dc731dd99ac60f168e4ba152e\
             7bb8e874000232b5a921a8f269297374f0ee60c6d678d89d104c26c15db3da62\
             8d6aec2e2c68d8c46d7ec8247cfc1a0250d39274a60e4301e75ef6bc526578b2\
             c8491fe82420"))
  in
  let enc =
    Option.get
      (P.Enc_proof.of_bytes
         (hex
            "02c0657d4e8c4437b271bf833c64152bc6b39ce71d98db2169525d881ccb7b96\
             93405de52e0e1ffcc7aa992460ac9a349a0bfde63fc640fc02400a4044877c13\
             27"))
  in
  Alcotest.(check bool) "recorded reenc proof" true
    (P.Reenc_proof.verify_vec ~eff_pk:pk ~next_pk:(Some next_pk) ~context:"compat"
       ~input:[| input |] ~output:[| output |] [| reenc |]);
  Alcotest.(check bool) "recorded enc proof" true
    (P.Enc_proof.verify_vec ~pk ~context:"compat" [| input |] [| enc |]);
  Alcotest.(check bool) "recorded reenc proof, other context" false
    (P.Reenc_proof.verify ~eff_pk:pk ~next_pk:(Some next_pk) ~context:"other" ~input ~output reenc)

let suite () =
  let module G_zp = (val Atom_group.Registry.zp_test ()) in
  let module Zp_run = Run (G_zp) in
  ("zkp", Zp_run.cases)

let suite_p256 () =
  let module P256_run = Run (Atom_group.P256) in
  ( "zkp-p256",
    P256_run.cases
    @ [ Alcotest.test_case "p256 recorded proofs verify" `Quick test_p256_recorded_proofs ] )
