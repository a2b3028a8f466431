(* NIST P-256 (secp256r1), the curve used by the paper's prototype (§5).

   Short Weierstrass y² = x³ − 3x + b over the P-256 field prime. Internal
   arithmetic uses Jacobian projective coordinates over the generic
   Montgomery contexts of [Atom_nat.Modarith]; the public element type is
   the canonical affine form so that [equal] and [to_bytes] are structural.

   The Jacobian engine is allocation-free in steady state: a working point
   ([jp]) is three preallocated flat limb buffers, the curve formulas write
   through [Modarith.S] sessions, and every temporary comes from the
   per-domain arena — a whole scalar ladder allocates nothing beyond its
   destination point. The boxed affine world exists only at the public API
   edge ([to_affine]/[to_affine_batch] canonicalize whatever Jacobian
   representative the in-place schedule produced, so public results are
   unchanged).

   Message embedding is try-and-increment: a 28-byte payload is placed in a
   fixed slice of the x-coordinate together with a 16-bit counter, and the
   counter is advanced until x³ − 3x + b is a square (probability 1/2 per
   attempt). The paper packs 32 bytes per point; we reserve 4 bytes of
   framing, and the modeled cost tables use the paper's packing so figure
   shapes are unaffected (see DESIGN.md, Known deviations). *)

open Atom_nat

let p = Nat.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"
let n = Nat.of_hex "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"
let b_const = Nat.of_hex "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b"
let gx = Nat.of_hex "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"
let gy = Nat.of_hex "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"

let fp = Modarith.create p
let fb = Modarith.of_nat fp b_const
let three = Modarith.of_int fp 3
let sqrt_exp = Nat.shift_right (Nat.add p Nat.one) 2 (* (p+1)/4; valid since p ≡ 3 mod 4 *)

module Scalar = struct
  type t = Modarith.el

  let fq = Modarith.create n
  let order = n
  let zero = Modarith.zero fq
  let one = Modarith.one fq
  let of_nat v = Modarith.of_nat fq v
  let to_nat s = Modarith.to_nat fq s
  let of_int i = Modarith.of_int fq i
  let add = Modarith.add fq
  let sub = Modarith.sub fq
  let mul = Modarith.mul fq
  let neg = Modarith.neg fq
  let inv = Modarith.inv fq
  let equal = Modarith.equal
  let is_zero = Modarith.is_zero
  let random rng = of_nat (Nat.random_below rng order)
  let of_bytes_mod s = of_nat (Nat.of_bytes_be s)

  let of_bytes s =
    if String.length s <> 32 then None
    else
      let v = Nat.of_bytes_be s in
      if Nat.compare v order < 0 then Some (of_nat v) else None

  let to_bytes s = Nat.to_bytes_be ~length:32 (to_nat s)
end

type t = Inf | Aff of Modarith.el * Modarith.el
type scalar = Scalar.t

let name = "p256"
let one = Inf
let equal a b =
  match (a, b) with
  | Inf, Inf -> true
  | Aff (x1, y1), Aff (x2, y2) -> Modarith.equal x1 x2 && Modarith.equal y1 y2
  | _ -> false

let is_one = function Inf -> true | Aff _ -> false

(* y² = x³ - 3x + b *)
let rhs_of_x (x : Modarith.el) : Modarith.el =
  let x3 = Modarith.mul fp (Modarith.sqr fp x) x in
  Modarith.add fp (Modarith.sub fp x3 (Modarith.mul fp three x)) fb

let on_curve = function
  | Inf -> true
  | Aff (x, y) -> Modarith.equal (Modarith.sqr fp y) (rhs_of_x x)

(* ---- Jacobian internals, in place over flat field buffers ----

   A [jp] is a Jacobian point whose coordinates are preallocated limb
   buffers: [jp_fresh] allocates a long-lived point, [jp_take] checks one
   out of the session arena (valid until the enclosing release point).
   Infinity is z = 0. The formulas below stage new coordinates in arena
   temporaries and copy back at the end, so every read of the old point
   precedes the writes and a point can safely be its own destination. *)

type jp = { x : Modarith.el; y : Modarith.el; z : Modarith.el }

let jp_fresh () = { x = Modarith.alloc fp; y = Modarith.alloc fp; z = Modarith.alloc fp }

let jp_take s = { x = Modarith.S.take s; y = Modarith.S.take s; z = Modarith.S.take s }

let jp_is_inf pt = Modarith.is_zero pt.z

let jp_set_inf pt =
  Modarith.set_one fp pt.x;
  Modarith.set_one fp pt.y;
  Modarith.set_zero pt.z

let jp_set_aff pt xa ya =
  Modarith.copy_into ~dst:pt.x xa;
  Modarith.copy_into ~dst:pt.y ya;
  Modarith.set_one fp pt.z

let jp_copy ~dst src =
  Modarith.copy_into ~dst:dst.x src.x;
  Modarith.copy_into ~dst:dst.y src.y;
  Modarith.copy_into ~dst:dst.z src.z

let jp_of_point pt = function Inf -> jp_set_inf pt | Aff (x, y) -> jp_set_aff pt x y

(* pt <- 2·pt: dbl-2001-b for a = -3. *)
let jdbl (s : Modarith.S.t) (pt : jp) : unit =
  if jp_is_inf pt || Modarith.is_zero pt.y then jp_set_inf pt
  else begin
    let m = Modarith.S.mark s in
    let delta = Modarith.S.take s and gamma = Modarith.S.take s and beta = Modarith.S.take s in
    let alpha = Modarith.S.take s and t = Modarith.S.take s and u = Modarith.S.take s in
    let x3 = Modarith.S.take s and y3 = Modarith.S.take s and z3 = Modarith.S.take s in
    Modarith.S.sqr s ~dst:delta pt.z;
    Modarith.S.sqr s ~dst:gamma pt.y;
    Modarith.S.mul s ~dst:beta pt.x gamma;
    Modarith.S.sub s ~dst:t pt.x delta;
    Modarith.S.add s ~dst:u pt.x delta;
    Modarith.S.mul s ~dst:alpha t u;
    (* α = 3(x − δ)(x + δ), tripled by two additions *)
    Modarith.S.add s ~dst:t alpha alpha;
    Modarith.S.add s ~dst:alpha t alpha;
    (* x3 = α² − 8β *)
    Modarith.S.add s ~dst:t beta beta;
    Modarith.S.add s ~dst:t t t;
    (* t = 4β, kept for y3 *)
    Modarith.S.add s ~dst:u t t;
    Modarith.S.sqr s ~dst:x3 alpha;
    Modarith.S.sub s ~dst:x3 x3 u;
    (* z3 = (y+z)² − γ − δ *)
    Modarith.S.add s ~dst:z3 pt.y pt.z;
    Modarith.S.sqr s ~dst:z3 z3;
    Modarith.S.sub s ~dst:z3 z3 gamma;
    Modarith.S.sub s ~dst:z3 z3 delta;
    (* y3 = α·(4β − x3) − 8γ² *)
    Modarith.S.sub s ~dst:t t x3;
    Modarith.S.mul s ~dst:y3 alpha t;
    Modarith.S.sqr s ~dst:u gamma;
    Modarith.S.add s ~dst:u u u;
    Modarith.S.add s ~dst:u u u;
    Modarith.S.add s ~dst:u u u;
    Modarith.S.sub s ~dst:y3 y3 u;
    Modarith.copy_into ~dst:pt.x x3;
    Modarith.copy_into ~dst:pt.y y3;
    Modarith.copy_into ~dst:pt.z z3;
    Modarith.S.release s m
  end

(* p1 <- p1 + (x2, y2), affine second operand (z2 = 1): madd-2004-hmv,
   ~4 field mults cheaper than the general Jacobian add. *)
let jadd_aff (s : Modarith.S.t) (p1 : jp) (x2 : Modarith.el) (y2 : Modarith.el) : unit =
  if jp_is_inf p1 then jp_set_aff p1 x2 y2
  else begin
    let m = Modarith.S.mark s in
    let z1z1 = Modarith.S.take s and u2 = Modarith.S.take s and s2 = Modarith.S.take s in
    let h = Modarith.S.take s and r = Modarith.S.take s in
    Modarith.S.sqr s ~dst:z1z1 p1.z;
    Modarith.S.mul s ~dst:u2 x2 z1z1;
    Modarith.S.mul s ~dst:s2 p1.z z1z1;
    Modarith.S.mul s ~dst:s2 y2 s2;
    Modarith.S.sub s ~dst:h u2 p1.x;
    Modarith.S.sub s ~dst:r s2 p1.y;
    if Modarith.is_zero h then begin
      let dbl = Modarith.is_zero r in
      Modarith.S.release s m;
      if dbl then jdbl s p1 else jp_set_inf p1
    end
    else begin
      let hh = Modarith.S.take s and hhh = Modarith.S.take s and v = Modarith.S.take s in
      let x3 = Modarith.S.take s and y3 = Modarith.S.take s and t = Modarith.S.take s in
      Modarith.S.sqr s ~dst:hh h;
      Modarith.S.mul s ~dst:hhh h hh;
      Modarith.S.mul s ~dst:v p1.x hh;
      Modarith.S.sqr s ~dst:x3 r;
      Modarith.S.sub s ~dst:x3 x3 hhh;
      Modarith.S.add s ~dst:t v v;
      Modarith.S.sub s ~dst:x3 x3 t;
      Modarith.S.sub s ~dst:y3 v x3;
      Modarith.S.mul s ~dst:y3 r y3;
      Modarith.S.mul s ~dst:t p1.y hhh;
      Modarith.S.sub s ~dst:y3 y3 t;
      Modarith.S.mul s ~dst:p1.z p1.z h;
      Modarith.copy_into ~dst:p1.x x3;
      Modarith.copy_into ~dst:p1.y y3;
      Modarith.S.release s m
    end
  end

(* p1 <- p1 + p2; p2 is only read. (p1 == p2 degenerates to h = r = 0 and
   takes the doubling branch, so physical aliasing is still correct.) *)
let jadd (s : Modarith.S.t) (p1 : jp) (p2 : jp) : unit =
  if jp_is_inf p1 then jp_copy ~dst:p1 p2
  else if jp_is_inf p2 then ()
  else begin
    let m = Modarith.S.mark s in
    let z1z1 = Modarith.S.take s and z2z2 = Modarith.S.take s in
    let u1 = Modarith.S.take s and u2 = Modarith.S.take s in
    let s1 = Modarith.S.take s and s2 = Modarith.S.take s in
    let h = Modarith.S.take s and r = Modarith.S.take s in
    Modarith.S.sqr s ~dst:z1z1 p1.z;
    Modarith.S.sqr s ~dst:z2z2 p2.z;
    Modarith.S.mul s ~dst:u1 p1.x z2z2;
    Modarith.S.mul s ~dst:u2 p2.x z1z1;
    Modarith.S.mul s ~dst:s1 p2.z z2z2;
    Modarith.S.mul s ~dst:s1 p1.y s1;
    Modarith.S.mul s ~dst:s2 p1.z z1z1;
    Modarith.S.mul s ~dst:s2 p2.y s2;
    Modarith.S.sub s ~dst:h u2 u1;
    Modarith.S.sub s ~dst:r s2 s1;
    if Modarith.is_zero h then begin
      let dbl = Modarith.is_zero r in
      Modarith.S.release s m;
      if dbl then jdbl s p1 else jp_set_inf p1
    end
    else begin
      let hh = Modarith.S.take s and hhh = Modarith.S.take s and v = Modarith.S.take s in
      let x3 = Modarith.S.take s and y3 = Modarith.S.take s and t = Modarith.S.take s in
      Modarith.S.sqr s ~dst:hh h;
      Modarith.S.mul s ~dst:hhh h hh;
      Modarith.S.mul s ~dst:v u1 hh;
      Modarith.S.sqr s ~dst:x3 r;
      Modarith.S.sub s ~dst:x3 x3 hhh;
      Modarith.S.add s ~dst:t v v;
      Modarith.S.sub s ~dst:x3 x3 t;
      Modarith.S.sub s ~dst:y3 v x3;
      Modarith.S.mul s ~dst:y3 r y3;
      Modarith.S.mul s ~dst:t s1 hhh;
      Modarith.S.sub s ~dst:y3 y3 t;
      Modarith.S.mul s ~dst:p1.z p1.z p2.z;
      Modarith.S.mul s ~dst:p1.z p1.z h;
      Modarith.copy_into ~dst:p1.x x3;
      Modarith.copy_into ~dst:p1.y y3;
      Modarith.S.release s m
    end
  end

(* Canonicalization back to the boxed affine world. These run outside any
   session (Fermat inversion and the public allocating ops), and their
   results are fresh buffers — never aliases of the (reusable) jp ones. *)
let to_affine (j : jp) : t =
  if jp_is_inf j then Inf
  else begin
    let zinv = Modarith.inv fp j.z in
    let zinv2 = Modarith.sqr fp zinv in
    let zinv3 = Modarith.mul fp zinv2 zinv in
    Aff (Modarith.mul fp j.x zinv2, Modarith.mul fp j.y zinv3)
  end

(* Montgomery's simultaneous-inversion trick: normalize a whole batch of
   Jacobian points with a single field inversion (plus 3 mults per point
   for the prefix bookkeeping). *)
let to_affine_batch (js : jp array) : t array =
  let n = Array.length js in
  let prefix = Array.make n (Modarith.one fp) in
  let acc = ref (Modarith.one fp) in
  for i = 0 to n - 1 do
    prefix.(i) <- !acc;
    if not (jp_is_inf js.(i)) then acc := Modarith.mul fp !acc js.(i).z
  done;
  let out = Array.make n Inf in
  let inv_acc = ref (Modarith.inv fp !acc) in
  for i = n - 1 downto 0 do
    let j = js.(i) in
    if not (jp_is_inf j) then begin
      let zinv = Modarith.mul fp !inv_acc prefix.(i) in
      inv_acc := Modarith.mul fp !inv_acc j.z;
      let zinv2 = Modarith.sqr fp zinv in
      out.(i) <- Aff (Modarith.mul fp j.x zinv2, Modarith.mul fp j.y (Modarith.mul fp zinv2 zinv))
    end
  done;
  out

let mul a b =
  match (a, b) with
  | Inf, _ -> b
  | _, Inf -> a
  | Aff (ax, ay), Aff (bx, by) ->
      let r = jp_fresh () in
      Modarith.with_session fp (fun s ->
          jp_set_aff r ax ay;
          jadd_aff s r bx by);
      to_affine r

let inv = function Inf -> Inf | Aff (x, y) -> Aff (x, Modarith.neg fp y)
let div a b = mul a (inv b)

let generator = Aff (Modarith.of_nat fp gx, Modarith.of_nat fp gy)

(* ---- Fast-path scalar-multiplication engine ----

   Four ingredients (see DESIGN.md, "Performance engineering"):
   - mixed Jacobian+affine addition, ~4 field mults cheaper than the
     general Jacobian add, used everywhere a precomputed table is affine;
   - batch affine normalization (Montgomery's simultaneous-inversion
     trick): k points cost one Fermat inversion instead of k;
   - a precomputed fixed-base comb table for the generator (64 4-bit
     windows × 15 entries), making [pow_gen] a doubling-free sum of ≤ 64
     table lookups;
   - an MRU cache of per-base affine window tables for long-lived bases
     (public keys): the table is built on a base's second sighting, so
     one-shot bases never pay the normalization inversion. *)

let nibble_of (e : Nat.t) (w : int) : int =
  (if Nat.test_bit e ((4 * w) + 3) then 8 else 0)
  lor (if Nat.test_bit e ((4 * w) + 2) then 4 else 0)
  lor (if Nat.test_bit e ((4 * w) + 1) then 2 else 0)
  lor if Nat.test_bit e (4 * w) then 1 else 0

(* Fixed-base comb table: gen_table.(w).(d-1) = (d·16^w)·G in affine,
   for the 64 4-bit windows of a P-256 scalar. d·16^w is never ≡ 0 mod n
   (it is positive, < 2^256 < 2n, and ≠ n by parity), so every entry is
   finite. Built on first use with one batch normalization (~1 ms, once);
   [Once] rather than [lazy] because pool workers may race to force it. *)
let gen_table : t array array Atom_exec.Once.t =
  Atom_exec.Once.make (fun () ->
      let windows = 64 in
      let flat = Array.init (windows * 15) (fun _ -> jp_fresh ()) in
      let base = jp_fresh () in
      Modarith.with_session fp (fun s ->
          jp_of_point base generator;
          for w = 0 to windows - 1 do
            jp_copy ~dst:flat.(w * 15) base;
            for d = 2 to 15 do
              jp_copy ~dst:flat.((w * 15) + d - 1) flat.((w * 15) + d - 2);
              jadd s flat.((w * 15) + d - 1) base
            done;
            if w < windows - 1 then begin
              jdbl s base;
              jdbl s base;
              jdbl s base;
              jdbl s base
            end
          done);
      let aff = to_affine_batch flat in
      Array.init windows (fun w -> Array.sub aff (w * 15) 15))

(* dst <- g^e: one mixed addition per nonzero nibble, no doublings at all.
   Callers force [gen_table] before entering the session. *)
let comb_into (s : Modarith.S.t) (dst : jp) (e : Nat.t) : unit =
  let table = Atom_exec.Once.get gen_table in
  let windows = (Nat.bit_length e + 3) / 4 in
  jp_set_inf dst;
  for w = 0 to windows - 1 do
    let d = nibble_of e w in
    if d <> 0 then
      match table.(w).(d - 1) with Inf -> () | Aff (x, y) -> jadd_aff s dst x y
  done

let comb_point (e : Nat.t) : t =
  ignore (Atom_exec.Once.get gen_table);
  let r = jp_fresh () in
  Modarith.with_session fp (fun s -> comb_into s r e);
  to_affine r

let pow_gen (k : scalar) : t =
  Atom_obs.Opcount.note_pow_gen ();
  let e = Scalar.to_nat k in
  if Nat.is_zero e then Inf else comb_point e

(* 15-entry affine window table for an arbitrary base: one batch
   normalization (one inversion) per table. *)
let affine_table (base : t) : t array =
  let jt = Array.init 15 (fun _ -> jp_fresh ()) in
  (match base with
  | Inf -> Array.iter jp_set_inf jt
  | Aff (bx, by) ->
      Modarith.with_session fp (fun s ->
          jp_set_aff jt.(0) bx by;
          for d = 1 to 14 do
            jp_copy ~dst:jt.(d) jt.(d - 1);
            jadd_aff s jt.(d) bx by
          done));
  to_affine_batch jt

(* MRU cache of per-base affine tables, for long-lived bases (group public
   keys, DKG share keys). A base's first sighting only records its key; the
   table is built — and the inversion spent — from the second sighting on,
   so one-shot bases (shuffle commitments, fresh ciphertext components)
   cost nothing beyond an O(cap) key scan. Domain-local: each pool worker
   warms its own copy, so there is no cross-domain sharing to synchronize
   (systhread interleavings within a domain can at worst waste a rebuild —
   tables are deterministic in the base). *)
type base_entry = { key : t; mutable table : t array option }

let base_cache_key : base_entry list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let base_cache_cap = 16

let cached_table (base : t) : t array option =
  let base_cache = Domain.DLS.get base_cache_key in
  let rec extract acc = function
    | [] -> None
    | e :: rest when equal e.key base -> Some (e, List.rev_append acc rest)
    | e :: rest -> extract (e :: acc) rest
  in
  match extract [] !base_cache with
  | Some (e, rest) ->
      base_cache := e :: rest;
      let table =
        match e.table with
        | Some t -> t
        | None ->
            let t = affine_table base in
            e.table <- Some t;
            t
      in
      Some table
  | None ->
      let tail = List.filteri (fun i _ -> i < base_cache_cap - 1) !base_cache in
      base_cache := { key = base; table = None } :: tail;
      None

(* dst <- base^e, 4-bit windowed double-and-add over an affine table. *)
let windowed_into (s : Modarith.S.t) (dst : jp) (tab : t array) (e : Nat.t) : unit =
  let windows = (Nat.bit_length e + 3) / 4 in
  jp_set_inf dst;
  for w = windows - 1 downto 0 do
    if w <> windows - 1 then begin
      jdbl s dst;
      jdbl s dst;
      jdbl s dst;
      jdbl s dst
    end;
    let d = nibble_of e w in
    if d <> 0 then
      match tab.(d - 1) with Inf -> () | Aff (x, y) -> jadd_aff s dst x y
  done

(* One-shot path: per-call Jacobian table on the arena, no inversion spent
   on it. *)
let windowed_oneshot_into (s : Modarith.S.t) (dst : jp) (bx : Modarith.el) (by : Modarith.el)
    (e : Nat.t) : unit =
  let m = Modarith.S.mark s in
  let table = Array.init 16 (fun _ -> jp_take s) in
  jp_set_aff table.(1) bx by;
  for i = 2 to 15 do
    jp_copy ~dst:table.(i) table.(i - 1);
    jadd_aff s table.(i) bx by
  done;
  let windows = (Nat.bit_length e + 3) / 4 in
  jp_set_inf dst;
  for w = windows - 1 downto 0 do
    if w <> windows - 1 then begin
      jdbl s dst;
      jdbl s dst;
      jdbl s dst;
      jdbl s dst
    end;
    let d = nibble_of e w in
    if d <> 0 then jadd s dst table.(d)
  done;
  Modarith.S.release s m

let pow (base : t) (k : scalar) : t =
  Atom_obs.Opcount.note_pow ();
  let e = Scalar.to_nat k in
  if Nat.is_zero e || is_one base then Inf
  else if equal base generator then comb_point e
  else begin
    let r = jp_fresh () in
    (match (cached_table base, base) with
    | Some tab, _ -> Modarith.with_session fp (fun s -> windowed_into s r tab e)
    | None, Aff (bx, by) -> Modarith.with_session fp (fun s -> windowed_oneshot_into s r bx by e)
    | None, Inf -> assert false);
    to_affine r
  end

(* ---- Multi-scalar multiplication ---- *)

(* Straus (shared doublings, per-base 4-bit window tables) for small
   batches, over the pair slice [lo, hi). A pair's window table is either a
   cached affine table or a per-call Jacobian table on the arena, built
   only up to the largest nibble the scalar can produce — tiny scalars
   (e.g. the all-ones MSM of combine_pks) skip table construction
   entirely. *)
type straus_tab = T_aff of t array | T_jac of jp array

let msm_straus (bases : t array) (exps : Nat.t array) ~(lo : int) ~(hi : int)
    ~(use_cache : bool) : jp =
  let n = hi - lo in
  let acc = jp_fresh () in
  Modarith.with_session fp (fun s ->
      let m0 = Modarith.S.mark s in
      let max_bits = ref 0 in
      for i = lo to hi - 1 do
        max_bits := max !max_bits (Nat.bit_length exps.(i))
      done;
      let tabs =
        Array.init n (fun j ->
            let i = lo + j in
            match (if use_cache then cached_table bases.(i) else None) with
            | Some tab -> T_aff tab
            | None ->
                let max_d = if Nat.bit_length exps.(i) > 4 then 15 else Nat.to_int_exn exps.(i) in
                let table = Array.init (max_d + 1) (fun _ -> jp_take s) in
                (match bases.(i) with
                | Inf -> Array.iter jp_set_inf table
                | Aff (bx, by) ->
                    if max_d >= 1 then jp_set_aff table.(1) bx by;
                    for d = 2 to max_d do
                      jp_copy ~dst:table.(d) table.(d - 1);
                      jadd_aff s table.(d) bx by
                    done);
                T_jac table)
      in
      let windows = (!max_bits + 3) / 4 in
      jp_set_inf acc;
      for w = windows - 1 downto 0 do
        if w <> windows - 1 then begin
          jdbl s acc;
          jdbl s acc;
          jdbl s acc;
          jdbl s acc
        end;
        for j = 0 to n - 1 do
          let d = nibble_of exps.(lo + j) w in
          if d <> 0 then
            match tabs.(j) with
            | T_aff tab -> (
                match tab.(d - 1) with Inf -> () | Aff (x, y) -> jadd_aff s acc x y)
            | T_jac table -> jadd s acc table.(d)
        done
      done;
      Modarith.S.release s m0);
  acc

(* Pippenger bucket method for large batches: per window, drop each point
   into the bucket of its digit, then aggregate buckets with two running
   sums. ~(256/c)·(n + 2^{c+1}) additions overall. Windows are mutually
   independent, so a pool computes the per-window sums in parallel (each
   worker in its own session, buckets on its own arena); the combine
   (c doublings between windows, ≈256 doublings total) stays on the caller
   and is negligible next to the bucket work. The affine result is
   identical either way — [to_affine] canonicalizes whatever Jacobian
   representative the addition order produced. *)
let msm_pippenger ?pool (bases : t array) (exps : Nat.t array) : jp =
  let n = Array.length bases in
  let c = if n < 512 then 6 else if n < 2048 then 7 else 8 in
  let max_bits = ref 0 in
  for i = 0 to n - 1 do
    max_bits := max !max_bits (Nat.bit_length exps.(i))
  done;
  let digit e off =
    let d = ref 0 in
    for b = c - 1 downto 0 do
      d := (!d lsl 1) lor if Nat.test_bit e (off + b) then 1 else 0
    done;
    !d
  in
  let nwin = (!max_bits + c - 1) / c in
  let nbuckets = (1 lsl c) - 1 in
  let window_sum w =
    let sum = jp_fresh () in
    Modarith.with_session fp (fun s ->
        let m = Modarith.S.mark s in
        let buckets =
          Array.init nbuckets (fun _ ->
              let b = jp_take s in
              jp_set_inf b;
              b)
        in
        for i = 0 to n - 1 do
          let d = digit exps.(i) (w * c) in
          if d <> 0 then
            match bases.(i) with Inf -> () | Aff (x, y) -> jadd_aff s buckets.(d - 1) x y
        done;
        let run = jp_take s in
        jp_set_inf run;
        jp_set_inf sum;
        for d = nbuckets - 1 downto 0 do
          jadd s run buckets.(d);
          jadd s sum run
        done;
        Modarith.S.release s m);
    sum
  in
  let wsums = Atom_exec.Pool.tabulate ?pool nwin window_sum in
  let acc = jp_fresh () in
  Modarith.with_session fp (fun s ->
      jp_set_inf acc;
      for w = nwin - 1 downto 0 do
        if w <> nwin - 1 then
          for _ = 1 to c do
            jdbl s acc
          done;
        jadd s acc wsums.(w)
      done);
  acc

let pippenger_threshold = 200

(* Below the Pippenger threshold a pooled MSM splits the pairs into
   contiguous chunks, runs Straus on each slice independently (no sub-array
   materialization), and adds the chunk partials in index order on the
   caller. *)
let msm_straus_pooled pool (bases : t array) (exps : Nat.t array) : jp =
  let n = Array.length bases in
  let nchunks = min n (Atom_exec.Pool.size pool * 4) in
  let partials =
    Atom_exec.Pool.tabulate ~pool nchunks (fun ci ->
        let lo = ci * n / nchunks and hi = (ci + 1) * n / nchunks in
        msm_straus bases exps ~lo ~hi ~use_cache:false)
  in
  let acc = jp_fresh () in
  Modarith.with_session fp (fun s ->
      jp_set_inf acc;
      Array.iter (fun partial -> jadd s acc partial) partials);
  acc

let msm_pool_threshold = 64

let msm_raw ?pool (pairs : (t * scalar) array) : t =
  (* Generator terms collapse into a single comb exponent (g^a·g^b = g^{a+b});
     identity bases and zero scalars drop out. The cache is consulted only
     for small MSMs — flooding it with a shuffle-sized batch of one-shot
     bases would evict the long-lived public keys. *)
  let gen_k = ref Scalar.zero in
  let rest = ref [] in
  Array.iter
    (fun (x, k) ->
      if is_one x || Scalar.is_zero k then ()
      else if equal x generator then gen_k := Scalar.add !gen_k k
      else rest := (x, Scalar.to_nat k) :: !rest)
    pairs;
  let rest = Array.of_list !rest in
  let n = Array.length rest in
  let main =
    if n = 0 then None
    else begin
      let bases = Array.map fst rest and exps = Array.map snd rest in
      if n > pippenger_threshold then Some (msm_pippenger ?pool bases exps)
      else begin
        match Atom_exec.Pool.resolve pool with
        | Some pl when n >= msm_pool_threshold && Atom_exec.Pool.size pl > 1 ->
            (* The cache is never consulted here: it only applies to MSMs
               of <= 8 pairs, far below the pooling threshold. *)
            Some (msm_straus_pooled pl bases exps)
        | _ -> Some (msm_straus bases exps ~lo:0 ~hi:n ~use_cache:(Array.length pairs <= 8))
      end
    end
  in
  match (main, Scalar.is_zero !gen_k) with
  | None, true -> Inf
  | None, false -> comb_point (Scalar.to_nat !gen_k)
  | Some j, true -> to_affine j
  | Some j, false ->
      ignore (Atom_exec.Once.get gen_table);
      let g = jp_fresh () in
      Modarith.with_session fp (fun s ->
          comb_into s g (Scalar.to_nat !gen_k);
          jadd s j g);
      to_affine j

let msm ?pool (pairs : (t * scalar) array) : t =
  Atom_obs.Opcount.note_msm ~terms:(Array.length pairs);
  msm_raw ?pool pairs

(* pow2 goes through [msm_raw] so it tallies as one composite op, not also
   as an msm call. *)
let pow2 (a : t) (j : scalar) (b : t) (k : scalar) : t =
  Atom_obs.Opcount.note_pow2 ();
  msm_raw [| (a, j); (b, k) |]

(* ---- Batch fixed-base exponentiation with one shared normalization ----

   The per-scalar ladders are independent and go to the pool, each worker
   running in its own session on its own arena; the single shared
   normalization inversion stays on the caller. Any table the ladders read
   (the comb table, a per-base affine table) is built on the caller before
   the parallel region and only read inside it. *)

let pow_gen_batch_raw ?pool (ks : scalar array) : t array =
  ignore (Atom_exec.Once.get gen_table);
  to_affine_batch
    (Atom_exec.Pool.map ?pool
       (fun k ->
         let e = Scalar.to_nat k in
         let r = jp_fresh () in
         if Nat.is_zero e then jp_set_inf r
         else Modarith.with_session fp (fun s -> comb_into s r e);
         r)
       ks)

let pow_gen_batch ?pool (ks : scalar array) : t array =
  Atom_obs.Opcount.note_batch ~scalars:(Array.length ks);
  pow_gen_batch_raw ?pool ks

let pow_batch ?pool (base : t) (ks : scalar array) : t array =
  Atom_obs.Opcount.note_batch ~scalars:(Array.length ks);
  if Array.length ks = 0 then [||]
  else if is_one base then Array.map (fun _ -> Inf) ks
  else if equal base generator then pow_gen_batch_raw ?pool ks
  else begin
    let tab = match cached_table base with Some t -> t | None -> affine_table base in
    to_affine_batch
      (Atom_exec.Pool.map ?pool
         (fun k ->
           let e = Scalar.to_nat k in
           let r = jp_fresh () in
           if Nat.is_zero e then jp_set_inf r
           else Modarith.with_session fp (fun s -> windowed_into s r tab e);
           r)
         ks)
  end

let element_bytes = 33

let to_bytes = function
  | Inf -> String.make element_bytes '\000'
  | Aff (x, y) ->
      let y_odd = Nat.is_odd (Modarith.to_nat fp y) in
      let prefix = if y_odd then '\003' else '\002' in
      String.make 1 prefix ^ Nat.to_bytes_be ~length:32 (Modarith.to_nat fp x)

(* Square root mod p via (p+1)/4; returns None if the input is a
   non-residue. *)
let sqrt (v : Modarith.el) : Modarith.el option =
  let r = Modarith.pow fp v sqrt_exp in
  if Modarith.equal (Modarith.sqr fp r) v then Some r else None

(* Decode [element_bytes] at [pos] without materializing the slice (the
   x-coordinate is read straight out of the buffer). Decompression solves
   the curve equation for y and the cofactor is 1, so a decoded point is
   on the curve by construction — decode is inherently validating. *)
let of_bytes_sub s ~pos =
  if pos < 0 || pos + element_bytes > String.length s then None
  else
    match s.[pos] with
    | '\000' ->
        let rec all_zero i = i >= element_bytes || (s.[pos + i] = '\000' && all_zero (i + 1)) in
        if all_zero 1 then Some Inf else None
    | '\002' | '\003' -> begin
        let xv = Nat.of_bytes_be_sub s ~pos:(pos + 1) ~len:32 in
        if Nat.compare xv p >= 0 then None
        else begin
          let x = Modarith.of_nat fp xv in
          match sqrt (rhs_of_x x) with
          | None -> None
          | Some y ->
              let y_odd = Nat.is_odd (Modarith.to_nat fp y) in
              let want_odd = s.[pos] = '\003' in
              let y = if y_odd = want_odd then y else Modarith.neg fp y in
              Some (Aff (x, y))
        end
      end
    | _ -> None

let of_bytes s = if String.length s <> element_bytes then None else of_bytes_sub s ~pos:0

(* Membership is the curve equation; [Inf] is the group identity and a
   member. Only hand-built [Aff] values can fail (the type is exposed for
   known-answer tests), so the batch check over decoded frames is pure
   defense in depth — but it is cheap (two squarings and two
   multiplications per point, no inversion) and pools above the
   [Naive_check] threshold. *)
let is_member = on_curve

include Group_intf.Naive_check (struct
  type nonrec t = t

  let is_member = is_member
end)

(* Decode already validates (see [of_bytes_sub]), so there is nothing
   left to defer: [elt] is the point itself and discharge re-runs the
   curve equation only as a cross-check on hand-built values that could
   enter through the exposed constructor. *)
module Unverified = struct
  type elt = t

  let of_bytes = of_bytes
  let of_bytes_sub = of_bytes_sub
  let discharge (e : elt) : t option = if on_curve e then Some e else None

  let discharge_batch ?pool (els : elt array) : (t array, int) result =
    if check_batch ?pool els then Ok els
    else Error (match find_non_member els with Some i -> i | None -> 0)
end

let embed_bytes = 28
let embed_marker = '\x01'

let embed payload =
  if String.length payload > embed_bytes then None
  else begin
    let padded = String.make (embed_bytes - String.length payload) '\000' ^ payload in
    let rec try_counter counter =
      if counter > 0xffff then None (* probability 2^-65536: unreachable *)
      else begin
        let xb =
          Bytes.of_string
            (String.concat ""
               [
                 "\000"; padded;
                 String.init 2 (fun i -> Char.chr ((counter lsr (8 * (1 - i))) land 0xff));
                 String.make 1 embed_marker;
               ])
        in
        let x = Modarith.of_nat fp (Nat.of_bytes_be (Bytes.to_string xb)) in
        match sqrt (rhs_of_x x) with
        | Some y -> Some (Aff (x, y))
        | None -> try_counter (counter + 1)
      end
    in
    try_counter 0
  end

let extract = function
  | Inf -> None
  | Aff (x, _) ->
      let xb = Nat.to_bytes_be ~length:32 (Modarith.to_nat fp x) in
      if xb.[0] = '\000' && xb.[31] = embed_marker then Some (String.sub xb 1 embed_bytes)
      else None

let random rng = pow_gen (Scalar.random rng)
let hash_to_scalar msg = Scalar.of_bytes_mod (Atom_hash.Sha256.digest msg)

(* Hash-to-curve by try-and-increment on hashed x candidates; the resulting
   point has a publicly unknown discrete log. *)
let of_hash label =
  let rec go ctr =
    let digest = Atom_hash.Sha256.digest_list [ "p256-of-hash"; label; string_of_int ctr ] in
    let xv = Nat.of_bytes_be digest in
    if Nat.compare xv p >= 0 then go (ctr + 1)
    else begin
      let x = Modarith.of_nat fp xv in
      match sqrt (rhs_of_x x) with
      | Some y when not (Modarith.is_zero y) -> Aff (x, y)
      | _ -> go (ctr + 1)
    end
  in
  go 0
