(* Fast-path agreement tests: the multi-exponentiation engine (comb tables,
   pow2/Straus, msm/Pippenger, batch normalization, per-base table caches)
   must agree with the naive composition of [pow] and [mul] on every
   backend, including the degenerate inputs the optimized ladders love to
   get wrong: zero scalars, the identity element / point at infinity,
   repeated bases, singleton and empty batches. *)

module Laws (G : Atom_group.Group_intf.GROUP) : sig
  val cases : unit Alcotest.test_case list
end = struct
  module S = G.Scalar

  let rng () = Atom_util.Rng.create (Atom_util.Rng.hash_string ("fastpath-" ^ G.name))

  let check msg expected got = Alcotest.(check bool) msg true (G.equal expected got)

  (* Reference implementations in terms of the independently-tested
     single-base [pow] and [mul]. *)
  let naive_pow2 a j b k = G.mul (G.pow a j) (G.pow b k)
  let naive_msm pairs = Array.fold_left (fun acc (x, k) -> G.mul acc (G.pow x k)) G.one pairs

  let test_pow_gen_agrees () =
    let r = rng () in
    (* Tiny scalars cross every nibble boundary of the comb. *)
    for k = 0 to 33 do
      check (Printf.sprintf "comb k=%d" k)
        (G.pow G.generator (S.of_int k))
        (G.pow_gen (S.of_int k))
    done;
    (* Order-adjacent scalars: top windows fully populated. *)
    let n1 = S.of_nat (Atom_nat.Nat.sub S.order Atom_nat.Nat.one) in
    check "comb k=q-1" (G.pow G.generator n1) (G.pow_gen n1);
    for _ = 1 to 10 do
      let k = S.random r in
      check "comb random" (G.pow G.generator k) (G.pow_gen k)
    done;
    Alcotest.(check bool) "comb k=0" true (G.is_one (G.pow_gen S.zero))

  let test_pow_cached_base () =
    let r = rng () in
    let x = G.random r in
    let ks = Array.init 5 (fun _ -> S.random r) in
    (* Repeated same-base calls walk the cache's record/build/hit states;
       every call must agree with the first (naive) answer. *)
    Array.iter
      (fun k ->
        let expected = G.mul (G.pow x k) G.one in
        for pass = 1 to 3 do
          check (Printf.sprintf "cached pow pass %d" pass) expected (G.pow x k)
        done)
      ks

  let test_pow2_agrees () =
    let r = rng () in
    for _ = 1 to 10 do
      let a = G.random r and b = G.random r in
      let j = S.random r and k = S.random r in
      check "pow2 random" (naive_pow2 a j b k) (G.pow2 a j b k);
      check "pow2 j=0" (naive_pow2 a S.zero b k) (G.pow2 a S.zero b k);
      check "pow2 k=0" (naive_pow2 a j b S.zero) (G.pow2 a j b S.zero);
      check "pow2 both zero" G.one (G.pow2 a S.zero b S.zero);
      check "pow2 identity base" (G.pow b k) (G.pow2 G.one j b k);
      check "pow2 generator base" (naive_pow2 G.generator j b k) (G.pow2 G.generator j b k);
      check "pow2 same base" (G.pow a (S.add j k)) (G.pow2 a j a k)
    done

  let test_msm_agrees () =
    let r = rng () in
    let sizes = [ 0; 1; 2; 5; 17 ] in
    List.iter
      (fun n ->
        let pairs = Array.init n (fun _ -> (G.random r, S.random r)) in
        check (Printf.sprintf "msm n=%d" n) (naive_msm pairs) (G.msm pairs))
      sizes;
    (* Degenerate terms mixed into one product: zero scalars, the identity
       base, generator terms (folded onto the comb), a repeated base. *)
    let x = G.random r and y = G.random r in
    let j = S.random r and k = S.random r in
    let pairs =
      [|
        (G.generator, j);
        (x, S.zero);
        (G.one, k);
        (y, k);
        (G.generator, k);
        (y, S.one);
        (x, j);
      |]
    in
    check "msm degenerate mix" (naive_msm pairs) (G.msm pairs);
    check "msm all-zero scalars" G.one (G.msm [| (x, S.zero); (y, S.zero) |]);
    check "msm all-identity bases" G.one (G.msm [| (G.one, j); (G.one, k) |]);
    check "msm empty" G.one (G.msm [||]);
    (* Tiny scalars exercise the lazily-shortened window tables. *)
    let tiny = Array.init 8 (fun i -> (G.random r, S.of_int i)) in
    check "msm tiny scalars" (naive_msm tiny) (G.msm tiny)

  let test_msm_large () =
    (* Past the Pippenger cutover on the curve backend (n > 200). *)
    let r = rng () in
    let pairs = Array.init 220 (fun _ -> (G.random r, S.random r)) in
    check "msm n=220" (naive_msm pairs) (G.msm pairs)

  let test_pow_batch_agrees () =
    let r = rng () in
    let x = G.random r in
    let ks = Array.init 6 (fun i -> if i = 2 then S.zero else S.random r) in
    let expected = Array.map (G.pow x) ks in
    let got = G.pow_batch x ks in
    Alcotest.(check int) "pow_batch length" (Array.length expected) (Array.length got);
    Array.iteri (fun i e -> check (Printf.sprintf "pow_batch [%d]" i) e got.(i)) expected;
    (* Batch-normalization edge cases: every output infinite, a singleton
       batch, the empty batch. *)
    let all_inf = G.pow_batch G.one ks in
    Array.iteri
      (fun i e -> Alcotest.(check bool) (Printf.sprintf "identity batch [%d]" i) true (G.is_one e))
      all_inf;
    let single = G.pow_batch x [| ks.(0) |] in
    check "singleton batch" (G.pow x ks.(0)) single.(0);
    Alcotest.(check int) "empty batch" 0 (Array.length (G.pow_batch x [||]));
    let gen = G.pow_batch G.generator ks in
    Array.iteri
      (fun i k -> check (Printf.sprintf "generator batch vs pow [%d]" i) (G.pow_gen k) gen.(i))
      ks

  let test_pow_gen_batch_agrees () =
    let r = rng () in
    (* Zero scalars interleaved with random ones: the batch normalizer must
       skip the infinities without misaligning the rest. *)
    let ks = [| S.zero; S.random r; S.zero; S.random r; S.one; S.zero |] in
    let got = G.pow_gen_batch ks in
    Array.iteri (fun i k -> check (Printf.sprintf "pow_gen_batch [%d]" i) (G.pow_gen k) got.(i)) ks;
    let all_zero = G.pow_gen_batch [| S.zero; S.zero |] in
    Array.iter (fun e -> Alcotest.(check bool) "all-zero gen batch" true (G.is_one e)) all_zero;
    Alcotest.(check int) "empty gen batch" 0 (Array.length (G.pow_gen_batch [||]))

  (* A base with a known discrete log: x = g^a, so x^k = g^(a·k) through
     the generator's comb, an engine independent of the one under test. *)
  let known_base r =
    let a = S.random r in
    (a, G.pow_gen a)

  (* Scalars at the seams of every recoding: small values, powers of two
     ±1 around the wNAF width (5), the comb spacing (43) and its
     multiples, the top bit, the order's neighbours, and long runs of ones
     or alternating bits (maximal carries and digit density). *)
  let edge_scalars () =
    let open Atom_nat in
    let small = List.init 41 S.of_int in
    let around =
      List.concat_map
        (fun j ->
          let p = Nat.shift_left Nat.one j in
          [ S.of_nat (Nat.sub p Nat.one); S.of_nat p; S.of_nat (Nat.add p Nat.one) ])
        [ 4; 5; 6; 42; 43; 44; 86; 129; 255 ]
    in
    let order_minus k = S.of_nat (Nat.sub S.order (Nat.of_int k)) in
    let runs =
      List.map
        (fun h -> S.of_nat (Nat.of_hex h))
        [
          String.make 64 'f';
          String.make 64 'a';
          String.make 64 '5';
          String.make 11 'f';
          String.make 22 'a';
          String.make 33 '5';
          "f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0";
        ]
    in
    small @ around @ [ order_minus 1; order_minus 2 ] @ runs

  let test_edge_scalars () =
    let r = rng () in
    let a, x = known_base r in
    let _, y = known_base r in
    let ks = Array.of_list (edge_scalars ()) in
    Array.iteri
      (fun i k ->
        let expected = G.pow_gen (S.mul a k) in
        check (Printf.sprintf "pow edge [%d]" i) expected (G.pow x k);
        check (Printf.sprintf "pow_gen edge [%d]" i) (G.pow G.generator k) (G.pow_gen k);
        let pairs = [| (x, k); (y, ks.((i + 1) mod Array.length ks)) |] in
        check (Printf.sprintf "msm edge [%d]" i) (naive_msm pairs) (G.msm pairs))
      ks;
    let batch = G.pow_batch x ks in
    Array.iteri
      (fun i k -> check (Printf.sprintf "pow_batch edge [%d]" i) (G.pow_gen (S.mul a k)) batch.(i))
      ks;
    (* Every edge scalar in one product: many tables, one normalization. *)
    let pairs = Array.mapi (fun i k -> (G.pow_gen (S.of_int (i + 2)), k)) ks in
    check "msm of all edge scalars" (naive_msm pairs) (G.msm pairs)

  (* Sizes around the table-normalization, pooling (64) and Pippenger
     (200) cutovers, with small scalars mixed in. *)
  let test_msm_sizes () =
    let r = rng () in
    let sizes = List.init 9 (fun i -> i + 1) @ [ 63; 64; 65; 199; 200; 201 ] in
    List.iter
      (fun n ->
        let pairs =
          Array.init n (fun i ->
              (G.random r, if i mod 7 = 3 then S.of_int (i mod 5) else S.random r))
        in
        check (Printf.sprintf "msm n=%d" n) (naive_msm pairs) (G.msm pairs))
      sizes

  (* A base next to its inverse and next to itself: with equal digits the
     accumulator meets ±(the entry it adds), the h = 0 branches of the
     addition formulas (cancel to the identity, or double), also under
     negated digits and on normalized tables (four or more bases). *)
  let test_msm_inverse_and_repeat () =
    let r = rng () in
    let x = G.random r and y = G.random r and z = G.random r in
    let j = S.random r and k = S.random r in
    let cases =
      [
        ("x^k·(x⁻¹)^k", [| (x, k); (G.inv x, k) |]);
        ("x^k·x^k", [| (x, k); (x, k) |]);
        ("x^k·x^-k", [| (x, k); (x, S.neg k) |]);
        ("x^k·(x⁻¹)^-k", [| (x, k); (G.inv x, S.neg k) |]);
        ("x^k·(x⁻¹)^j", [| (x, k); (G.inv x, j) |]);
        ("four bases, cancelling pair", [| (x, k); (G.inv x, k); (y, j); (z, k) |]);
        ("four bases, repeated pair", [| (y, j); (x, k); (z, j); (x, k) |]);
        ("five bases, both", [| (x, k); (G.inv x, k); (y, j); (y, j); (z, S.neg j) |]);
        ("unit scalars", [| (x, S.one); (G.inv x, S.one); (y, S.one); (y, S.neg S.one) |]);
      ]
    in
    List.iter (fun (name, pairs) -> check name (naive_msm pairs) (G.msm pairs)) cases;
    (* The same shapes once x has been seen often enough to be a key base. *)
    for _ = 1 to 4 do
      ignore (G.pow x k)
    done;
    List.iter (fun (name, pairs) -> check (name ^ ", warm x") (naive_msm pairs) (G.msm pairs)) cases

  (* A key base's batch table: built cold, read warm, evicted by a run of
     other batch bases (one more than the P-256 cache holds, 8), then
     rebuilt. *)
  let test_pow_batch_cache () =
    let r = rng () in
    let a, x = known_base r in
    let ks = Array.init 5 (fun i -> if i = 1 then S.zero else S.random r) in
    let check_batch label (a, x) =
      let got = G.pow_batch x ks in
      Array.iteri
        (fun i k -> check (Printf.sprintf "%s [%d]" label i) (G.pow_gen (S.mul a k)) got.(i))
        ks
    in
    check_batch "cold" (a, x);
    check_batch "warm" (a, x);
    for i = 1 to 9 do
      check_batch (Printf.sprintf "evictor %d" i) (known_base r)
    done;
    check_batch "evicted" (a, x);
    check_batch "rewarmed" (a, x)

  (* One base at its first through fourth sighting: the engine changes
     (one-shot table, then a built comb) but the answers do not. *)
  let test_pow_sightings () =
    let r = rng () in
    let a, x = known_base r in
    for sighting = 1 to 4 do
      let k = S.random r in
      check (Printf.sprintf "pow, sighting %d" sighting) (G.pow_gen (S.mul a k)) (G.pow x k);
      check
        (Printf.sprintf "pow2, sighting %d" sighting)
        (naive_pow2 x k G.generator k)
        (G.pow2 x k G.generator k)
    done

  let cases =
    [
      Alcotest.test_case (G.name ^ " comb pow_gen = pow g") `Quick test_pow_gen_agrees;
      Alcotest.test_case (G.name ^ " cached-base pow stable") `Quick test_pow_cached_base;
      Alcotest.test_case (G.name ^ " pow2 = pow·pow") `Quick test_pow2_agrees;
      Alcotest.test_case (G.name ^ " msm = fold pow") `Quick test_msm_agrees;
      Alcotest.test_case (G.name ^ " msm large (Pippenger)") `Slow test_msm_large;
      Alcotest.test_case (G.name ^ " pow_batch = map pow") `Quick test_pow_batch_agrees;
      Alcotest.test_case (G.name ^ " pow_gen_batch edge cases") `Quick test_pow_gen_batch_agrees;
      Alcotest.test_case (G.name ^ " edge scalars") `Quick test_edge_scalars;
      Alcotest.test_case (G.name ^ " msm sizes across cutovers") `Slow test_msm_sizes;
      Alcotest.test_case (G.name ^ " msm inverse and repeated bases") `Quick test_msm_inverse_and_repeat;
      Alcotest.test_case (G.name ^ " pow_batch cold/warm/evicted") `Quick test_pow_batch_cache;
      Alcotest.test_case (G.name ^ " pow by sighting") `Quick test_pow_sightings;
    ]
end

(* Direct major-heap allocation of the P-256 engine in steady state.
   Anything over 256 words skips the minor heap, so a per-call array
   sized by scalar bits (a 257-word digit string, say) or by a big MSM's
   table count shows up here at once. After a warm-up (arena growth, the
   generator comb, the key base's comb), a 74-term MSM, 12 one-shot pows
   and a 12-scalar cached pow_batch must allocate under [bound] words
   directly in the major heap. An explicit 1-domain pool keeps the
   measurement on this domain, whose GC counters [Gc.counters] reads. *)
let test_p256_major_alloc () =
  let module G = Atom_group.P256 in
  let r = Atom_util.Rng.create 0x3a7 in
  let pool = Atom_exec.Pool.create ~domains:1 () in
  let msm_pairs = Array.init 74 (fun _ -> (G.random r, G.Scalar.random r)) in
  let bases = Array.init 24 (fun _ -> G.random r) in
  let ks = Array.init 12 (fun _ -> G.Scalar.random r) in
  let key = G.random r in
  let round first =
    ignore (G.msm ~pool msm_pairs);
    for i = 0 to 11 do
      ignore (G.pow bases.(first + i) ks.(i))
    done;
    ignore (G.pow_batch ~pool key ks)
  in
  round 0;
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let before = direct () in
  round 12;
  let words = direct () -. before in
  Atom_exec.Pool.shutdown pool;
  let bound = 256.0 in
  if words > bound then
    Alcotest.failf "steady-state msm/pow/pow_batch allocated %.0f words directly in the major heap (bound %.0f)"
      words bound

let suite () =
  let module Zp_laws = Laws ((val Atom_group.Registry.zp_test ())) in
  let module Zp256_laws = Laws ((val Atom_group.Registry.zp_medium ())) in
  let module P256_laws = Laws (Atom_group.P256) in
  ("fastpath", Zp_laws.cases @ Zp256_laws.cases @ P256_laws.cases)

let alloc_suite =
  ("alloc", [ Alcotest.test_case "p256 direct major-heap allocation" `Quick test_p256_major_alloc ])
