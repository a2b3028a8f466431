(* Sigma-protocol NIZKs (Fiat–Shamir): EncProof and ReEncProof.

   - [Enc_proof]: Schnorr proof of knowledge of the encryption randomness,
     exactly the construction of the paper's Appendix A, with the entry
     group's id folded into the challenge so a proof cannot be replayed at a
     different group (§3).
   - [Dleq]: Chaum–Pedersen discrete-log-equality proof [20].
   - [Reenc_proof]: verifiable decrypt-and-reencrypt, composed from one DLEQ
     attesting the stripped factor D = Y^{x_s} against the server's public
     share and one DLEQ attesting the fresh rerandomization toward the next
     group's key. *)

module Make
    (G : Atom_group.Group_intf.GROUP)
    (El : module type of Atom_elgamal.Elgamal.Make (G)) =
struct
  (* Serialization helpers: group elements are fixed-width; scalars use the
     backend's canonical fixed-width big-endian encoding. *)
  let scalar_bytes = String.length (G.Scalar.to_bytes G.Scalar.zero)

  let read_element (s : string) (off : int) : (G.t * int) option =
    if off + G.element_bytes > String.length s then None
    else
      match G.of_bytes (String.sub s off G.element_bytes) with
      | Some el -> Some (el, off + G.element_bytes)
      | None -> None

  let read_scalar (s : string) (off : int) : (G.Scalar.t * int) option =
    if off + scalar_bytes > String.length s then None
    else
      match G.Scalar.of_bytes (String.sub s off scalar_bytes) with
      | Some u -> Some (u, off + scalar_bytes)
      | None -> None

  (* ---- Batched verification ----

     Every sigma-proof check here is a set of legs g^u = a·h^t, each
     rearranged to g^u·h^{−t}·a^{−1} = 1. A vector of proofs is verified by
     raising each leg to an independent coefficient ρ and folding all of
     them into ONE multi-scalar multiplication. The ρ are squeezed from a
     transcript that has absorbed the statement and every proof element, so
     the verdict is a deterministic function of the inputs. Both backends
     are prime-order groups whose decoders reject non-members, so a false
     leg survives the combination with probability at most 1/q. Exponents
     of shared bases (g, eff_pk, next_pk) are summed in scalar arithmetic
     first, so each appears once in the MSM. *)
  let rhos (tr : Transcript.t) (k : int) : G.Scalar.t array =
    Array.map G.hash_to_scalar (Transcript.digest_n tr k)

  module Enc_proof = struct
    type t = { a : G.t; u : G.Scalar.t }

    let challenge ~(pk : G.t) ~(context : string) (ct : El.cipher) (a : G.t) : G.Scalar.t =
      let tr = Transcript.create ~domain:"enc-proof" in
      Transcript.add_list tr
        [ context; G.to_bytes pk; G.to_bytes ct.El.r; G.to_bytes ct.El.c; G.to_bytes a ];
      G.hash_to_scalar (Transcript.digest tr)

    (* Prove knowledge of r with ct.r = g^r. [context] binds the proof to
       the entry group (and anything else the caller includes). *)
    let prove (rng : Atom_util.Rng.t) ~(pk : G.t) ~(context : string) (ct : El.cipher)
        ~(randomness : G.Scalar.t) : t =
      let s = G.Scalar.random rng in
      let a = G.pow_gen s in
      let t = challenge ~pk ~context ct a in
      { a; u = G.Scalar.add s (G.Scalar.mul t randomness) }

    let to_bytes (pi : t) : string = G.to_bytes pi.a ^ G.Scalar.to_bytes pi.u

    let of_bytes (s : string) : t option =
      match read_element s 0 with
      | Some (a, off) -> begin
          match read_scalar s off with
          | Some (u, off') when off' = String.length s -> Some { a; u }
          | _ -> None
        end
      | None -> None

    (* Vector ciphertexts carry one proof per component. *)
    let prove_vec rng ~pk ~context (v : El.vec) ~(randomness : G.Scalar.t array) : t array =
      Array.mapi (fun i ct -> prove rng ~pk ~context ct ~randomness:randomness.(i)) v

    (* One leg per proof, g^u = a·R^t, batched as
       g^{Σρ_i·u_i} · Π a_i^{−ρ_i} · Π R_i^{−ρ_i·t_i} = 1. *)
    let verify_vec ~pk ~context (v : El.vec) (pis : t array) : bool =
      let n = Array.length v in
      Array.length pis = n
      && begin
           let ts =
             Atom_exec.Pool.tabulate n (fun i -> challenge ~pk ~context v.(i) pis.(i).a)
           in
           let tr = Transcript.create ~domain:"enc-proof-batch" in
           Transcript.add_list tr [ context; G.to_bytes pk ];
           Array.iteri
             (fun i ct ->
               Transcript.add_list tr [ El.cipher_to_bytes ct; to_bytes pis.(i) ])
             v;
           let rho = rhos tr n in
           let gen_k = ref G.Scalar.zero and terms = ref [] in
           Array.iteri
             (fun i pi ->
               gen_k := G.Scalar.add !gen_k (G.Scalar.mul rho.(i) pi.u);
               terms :=
                 (pi.a, G.Scalar.neg rho.(i))
                 :: (v.(i).El.r, G.Scalar.neg (G.Scalar.mul rho.(i) ts.(i)))
                 :: !terms)
             pis;
           G.is_one (G.msm (Array.of_list ((G.generator, !gen_k) :: !terms)))
         end

    let verify ~(pk : G.t) ~(context : string) (ct : El.cipher) (pi : t) : bool =
      verify_vec ~pk ~context [| ct |] [| pi |]
  end

  module Dleq = struct
    type t = { a1 : G.t; a2 : G.t; u : G.Scalar.t }

    (* Prove log_{g1} h1 = log_{g2} h2 (= secret x). *)
    let challenge ~context (g1, h1, g2, h2) a1 a2 =
      let tr = Transcript.create ~domain:"dleq" in
      Transcript.add_list tr
        [
          context; G.to_bytes g1; G.to_bytes h1; G.to_bytes g2; G.to_bytes h2; G.to_bytes a1;
          G.to_bytes a2;
        ];
      G.hash_to_scalar (Transcript.digest tr)

    let prove (rng : Atom_util.Rng.t) ~(context : string) ~(g1 : G.t) ~(h1 : G.t) ~(g2 : G.t)
        ~(h2 : G.t) ~(x : G.Scalar.t) : t =
      let s = G.Scalar.random rng in
      let a1 = G.pow g1 s and a2 = G.pow g2 s in
      let t = challenge ~context (g1, h1, g2, h2) a1 a2 in
      { a1; a2; u = G.Scalar.add s (G.Scalar.mul t x) }

    (* Each leg g^u = a·h^t is checked as g^u·h^{-t} = a (one double-scalar
       multiplication). g1 is the group generator in every caller, so that
       half rides the comb table, and long-lived h bases (eff_pk, the next
       group's key) hit the per-base table cache. *)
    let verify ~(context : string) ~(g1 : G.t) ~(h1 : G.t) ~(g2 : G.t) ~(h2 : G.t) (pi : t) : bool
        =
      let t = challenge ~context (g1, h1, g2, h2) pi.a1 pi.a2 in
      let neg_t = G.Scalar.neg t in
      G.equal (G.pow2 g1 pi.u h1 neg_t) pi.a1 && G.equal (G.pow2 g2 pi.u h2 neg_t) pi.a2

    let to_bytes (pi : t) : string =
      G.to_bytes pi.a1 ^ G.to_bytes pi.a2 ^ G.Scalar.to_bytes pi.u

    let of_bytes_at (s : string) (off : int) : (t * int) option =
      match read_element s off with
      | None -> None
      | Some (a1, off) -> begin
          match read_element s off with
          | None -> None
          | Some (a2, off) -> begin
              match read_scalar s off with
              | None -> None
              | Some (u, off) -> Some ({ a1; a2; u }, off)
            end
        end

    let of_bytes (s : string) : t option =
      match of_bytes_at s 0 with
      | Some (pi, off) when off = String.length s -> Some pi
      | _ -> None
  end

  module Reenc_proof = struct
    type t = {
      stripped : G.t; (* D = Y^{x_eff}, published *)
      strip_proof : Dleq.t; (* DLEQ(g, eff_pk; Y, D) *)
      rerand_proof : Dleq.t option; (* DLEQ(g, R'/R; X', c'·D/c); None at the exit layer *)
    }

    (* (Y, R) of a ciphertext entering a server's step: a fresh ciphertext
       has no Y yet, and its R plays Y's role. *)
    let y_and_r (ct : El.cipher) : G.t * G.t =
      match ct.El.y with None -> (ct.El.r, G.one) | Some y -> (y, ct.El.r)

    (* The rerandomization statement: h1 = R'/R = g^{r'} and
       h2 = c'·D/c = X'^{r'}. *)
    let rerand_bases ~(input : El.cipher) ~(output : El.cipher) (d : G.t) : G.t * G.t =
      let _, r_in = y_and_r input in
      (G.div output.El.r r_in, G.div (G.mul output.El.c d) input.El.c)

    (* Perform one server's ReEnc step on every ciphertext of [v] and prove
       each. [eff_pk] = g^{x_eff} where x_eff = coeff·share is the
       effective exponent this server uses (for anytrust groups coeff = 1
       and eff_pk is the server's public key; for many-trust groups it is
       share_pk^λ). The step itself is [El.reenc_vec]; the commitments g^s
       and X'^{s'} are fixed-base batches, and only Y_i^{s_i} needs a
       per-ciphertext exponentiation. Randomness is drawn on the caller:
       the fresh r' (inside [El.reenc_vec]), then every strip nonce, then
       every rerandomization nonce. *)
    let reenc_vec_with_proof (rng : Atom_util.Rng.t) ~(share : G.Scalar.t)
        ?(coeff = G.Scalar.one) ~(next_pk : G.t option) ~(context : string) (v : El.vec) :
        El.vec * t array =
      let n = Array.length v in
      let x_eff = G.Scalar.mul coeff share in
      let eff_pk = G.pow_gen x_eff in
      let out, wits = El.reenc_vec rng ~share ~coeff ~next_pk v in
      let ys = Array.map (fun ct -> fst (y_and_r ct)) v in
      let s = Array.init n (fun _ -> G.Scalar.random rng) in
      let a1 = G.pow_gen_batch s in
      let a2 = Atom_exec.Pool.tabulate n (fun i -> G.pow ys.(i) s.(i)) in
      let strip i =
        let d = wits.(i).El.stripped in
        let t = Dleq.challenge ~context (G.generator, eff_pk, ys.(i), d) a1.(i) a2.(i) in
        { Dleq.a1 = a1.(i); a2 = a2.(i); u = G.Scalar.add s.(i) (G.Scalar.mul t x_eff) }
      in
      let rerand =
        match next_pk with
        | None -> fun _ -> None
        | Some pk' ->
            let s' = Array.init n (fun _ -> G.Scalar.random rng) in
            let b1 = G.pow_gen_batch s' and b2 = G.pow_batch pk' s' in
            fun i ->
              let h1, h2 = rerand_bases ~input:v.(i) ~output:out.(i) wits.(i).El.stripped in
              let t = Dleq.challenge ~context (G.generator, h1, pk', h2) b1.(i) b2.(i) in
              Some
                { Dleq.a1 = b1.(i);
                  a2 = b2.(i);
                  u = G.Scalar.add s'.(i) (G.Scalar.mul t wits.(i).El.fresh) }
      in
      ( out,
        Array.init n (fun i ->
            { stripped = wits.(i).El.stripped; strip_proof = strip i; rerand_proof = rerand i })
      )

    let reenc_with_proof (rng : Atom_util.Rng.t) ~(share : G.Scalar.t) ?coeff
        ~(next_pk : G.t option) ~(context : string) (ct : El.cipher) : El.cipher * t =
      let out, pis = reenc_vec_with_proof rng ~share ?coeff ~next_pk ~context [| ct |] in
      (out.(0), pis.(0))

    let to_bytes (pi : t) : string =
      let tag, rest =
        match pi.rerand_proof with
        | None -> ("\000", "")
        | Some rp -> ("\001", Dleq.to_bytes rp)
      in
      G.to_bytes pi.stripped ^ Dleq.to_bytes pi.strip_proof ^ tag ^ rest

    let of_bytes (s : string) : t option =
      match read_element s 0 with
      | None -> None
      | Some (stripped, off) -> begin
          match Dleq.of_bytes_at s off with
          | None -> None
          | Some (strip_proof, off) ->
              if off >= String.length s then None
              else begin
                match s.[off] with
                | '\000' when off + 1 = String.length s ->
                    Some { stripped; strip_proof; rerand_proof = None }
                | '\001' -> begin
                    match Dleq.of_bytes_at s (off + 1) with
                    | Some (rp, off') when off' = String.length s ->
                        Some { stripped; strip_proof; rerand_proof = Some rp }
                    | _ -> None
                  end
                | _ -> None
              end
        end

    (* What one proof contributes to the batch once its exact checks pass:
       Y_in, the strip challenge, and (mid layers) the rerandomization
       bases with their challenge and proof. [None] when an exact check
       fails. *)
    type leg_data = {
      y_in : G.t;
      t_strip : G.Scalar.t;
      rerand : (G.t * G.t * G.Scalar.t * Dleq.t) option;
    }

    let prepare ~eff_pk ~next_pk ~context ~(input : El.cipher) ~(output : El.cipher) (pi : t) :
        leg_data option =
      let y_in, r_in = y_and_r input in
      (* The output must carry Y = Y_in. *)
      let y_ok = match output.El.y with Some y -> G.equal y y_in | None -> false in
      let strip () =
        Dleq.challenge ~context (G.generator, eff_pk, y_in, pi.stripped) pi.strip_proof.Dleq.a1
          pi.strip_proof.Dleq.a2
      in
      if not y_ok then None
      else
        match (next_pk, pi.rerand_proof) with
        | None, None ->
            (* Exit layer: pure strip, no fresh randomness. *)
            if G.equal output.El.c (G.div input.El.c pi.stripped) && G.equal output.El.r r_in
            then Some { y_in; t_strip = strip (); rerand = None }
            else None
        | Some pk', Some rp ->
            let h1, h2 = rerand_bases ~input ~output pi.stripped in
            let t = Dleq.challenge ~context (G.generator, h1, pk', h2) rp.Dleq.a1 rp.Dleq.a2 in
            Some { y_in; t_strip = strip (); rerand = Some (h1, h2, t, rp) }
        | _ -> None

    (* Each proof has two DLEQ legs on the strip (g^u = a1·eff_pk^t,
       Y^u = a2·D^t) and, on a mid layer, two on the rerandomization
       (g^v = b1·h1^t', X'^v = b2·h2^t'). All of a vector's legs fold into
       one MSM over the shared g, eff_pk and X' plus eight per-proof bases
       (four at the exit layer). *)
    let verify_vec ?pool ~eff_pk ~next_pk ~context ~(input : El.vec) ~(output : El.vec)
        (pis : t array) : bool =
      let n = Array.length pis in
      Array.length input = n
      && Array.length output = n
      && begin
           let legs =
             Atom_exec.Pool.tabulate ?pool n (fun i ->
                 prepare ~eff_pk ~next_pk ~context ~input:input.(i) ~output:output.(i) pis.(i))
           in
           Array.for_all Option.is_some legs
           && begin
                let tr = Transcript.create ~domain:"reenc-proof-batch" in
                Transcript.add_list tr
                  [ context;
                    G.to_bytes eff_pk;
                    (match next_pk with None -> "" | Some pk' -> G.to_bytes pk') ];
                for i = 0 to n - 1 do
                  Transcript.add_list tr
                    [ El.cipher_to_bytes input.(i);
                      El.cipher_to_bytes output.(i);
                      to_bytes pis.(i) ]
                done;
                let per = if next_pk = None then 2 else 4 in
                let rho = rhos tr (per * n) in
                let module S = G.Scalar in
                let gen_k = ref S.zero and eff_k = ref S.zero and next_k = ref S.zero in
                let terms = ref [] in
                let push base k = terms := (base, k) :: !terms in
                Array.iteri
                  (fun i leg ->
                    let l = Option.get leg and pi = pis.(i) in
                    let sp = pi.strip_proof in
                    let r1 = rho.(per * i) and r2 = rho.((per * i) + 1) in
                    gen_k := S.add !gen_k (S.mul r1 sp.Dleq.u);
                    eff_k := S.sub !eff_k (S.mul r1 l.t_strip);
                    push sp.Dleq.a1 (S.neg r1);
                    push l.y_in (S.mul r2 sp.Dleq.u);
                    push sp.Dleq.a2 (S.neg r2);
                    push pi.stripped (S.neg (S.mul r2 l.t_strip));
                    Option.iter
                      (fun (h1, h2, t, rp) ->
                        let r3 = rho.((per * i) + 2) and r4 = rho.((per * i) + 3) in
                        gen_k := S.add !gen_k (S.mul r3 rp.Dleq.u);
                        push rp.Dleq.a1 (S.neg r3);
                        push h1 (S.neg (S.mul r3 t));
                        next_k := S.add !next_k (S.mul r4 rp.Dleq.u);
                        push rp.Dleq.a2 (S.neg r4);
                        push h2 (S.neg (S.mul r4 t)))
                      l.rerand)
                  legs;
                push G.generator !gen_k;
                push eff_pk !eff_k;
                Option.iter (fun pk' -> push pk' !next_k) next_pk;
                G.is_one (G.msm ?pool (Array.of_list !terms))
              end
         end

    let verify ~(eff_pk : G.t) ~(next_pk : G.t option) ~(context : string) ~(input : El.cipher)
        ~(output : El.cipher) (pi : t) : bool =
      verify_vec ~eff_pk ~next_pk ~context ~input:[| input |] ~output:[| output |] [| pi |]
  end
end
