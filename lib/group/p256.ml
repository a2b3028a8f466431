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

(* p1 <- p1 + (x2, y2, z2), general Jacobian addition; the second operand
   is only read. (Aliasing p1 degenerates to h = r = 0 and takes the
   doubling branch, so it is still correct.) *)
let jadd_xyz (s : Modarith.S.t) (p1 : jp) (x2 : Modarith.el) (y2 : Modarith.el)
    (z2 : Modarith.el) : unit =
  if jp_is_inf p1 then begin
    Modarith.copy_into ~dst:p1.x x2;
    Modarith.copy_into ~dst:p1.y y2;
    Modarith.copy_into ~dst:p1.z z2
  end
  else if Modarith.is_zero z2 then ()
  else begin
    let m = Modarith.S.mark s in
    let z1z1 = Modarith.S.take s and z2z2 = Modarith.S.take s in
    let u1 = Modarith.S.take s and u2 = Modarith.S.take s in
    let s1 = Modarith.S.take s and s2 = Modarith.S.take s in
    let h = Modarith.S.take s and r = Modarith.S.take s in
    Modarith.S.sqr s ~dst:z1z1 p1.z;
    Modarith.S.sqr s ~dst:z2z2 z2;
    Modarith.S.mul s ~dst:u1 p1.x z2z2;
    Modarith.S.mul s ~dst:u2 x2 z1z1;
    Modarith.S.mul s ~dst:s1 z2 z2z2;
    Modarith.S.mul s ~dst:s1 p1.y s1;
    Modarith.S.mul s ~dst:s2 p1.z z1z1;
    Modarith.S.mul s ~dst:s2 y2 s2;
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
      Modarith.S.mul s ~dst:p1.z p1.z z2;
      Modarith.S.mul s ~dst:p1.z p1.z h;
      Modarith.copy_into ~dst:p1.x x3;
      Modarith.copy_into ~dst:p1.y y3;
      Modarith.S.release s m
    end
  end

let jadd (s : Modarith.S.t) (p1 : jp) (p2 : jp) : unit = jadd_xyz s p1 p2.x p2.y p2.z

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

   Costs below are in field multiplications (a squaring runs the same
   kernel): a doubling costs 8, a mixed Jacobian+affine addition 11, a
   general Jacobian addition 16 and a Fermat inversion about 330 (see
   DESIGN.md, "Performance engineering"). Everything here is variable
   time: which additions run depends on the scalar.
   - the generator has a fixed-base comb (64 4-bit windows × 15 entries),
     making [pow_gen] a doubling-free sum of ≤ 64 mixed additions;
   - every other base goes through signed-digit Straus: width-5 wNAF
     digits over a table of its odd multiples {1,3,…,15}·P, one shared
     doubling chain per MSM, and the MSM's tables normalized to affine
     with one simultaneous inversion where that pays for itself;
   - key bases (a group public key, used over and over) get a Lim–Lee comb
     in a small MRU cache, read with 42 doublings instead of 256. *)

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

(* ---- Signed digits over odd multiples ---- *)

let wnaf_width = 5

(* Width-5 wNAF of e: digits dᵢ with Σ dᵢ·2^i = e, each 0 or odd in
   [−15, 15], at most one nonzero in any 5 consecutive positions — about
   256/6 additions for a full scalar against 60 for unsigned 4-bit
   windows. A nonzero digit takes a 5-bit window plus the incoming carry;
   a window worth 16 or more becomes its negative residue and carries one
   on. Digits are signed bytes, bit_length + 1 of them (the last takes the
   final carry): a 257-word int array would be allocated straight into
   the major heap. *)
let wnaf (e : Nat.t) : Bytes.t =
  let len = Nat.bit_length e + 1 in
  let digits = Bytes.make len '\000' in
  let i = ref 0 and carry = ref 0 in
  while !i < len do
    if Bool.to_int (Nat.test_bit e !i) = !carry then incr i
    else begin
      let window = ref 0 in
      for b = wnaf_width - 1 downto 0 do
        window := (!window lsl 1) lor Bool.to_int (Nat.test_bit e (!i + b))
      done;
      let word = !window + !carry in
      carry := word lsr (wnaf_width - 1);
      Bytes.set_int8 digits !i (word - (!carry lsl wnaf_width));
      i := !i + wnaf_width
    end
  done;
  digits

(* Entries of the odd-multiples table the digits read (entry i is
   (2i+1)·P). A scalar whose digits are all ±1 — the unit exponents of
   [Elgamal.combine_pks] — needs P alone and builds no table. *)
let wnaf_table_size (digits : Bytes.t) : int =
  let m = ref 0 in
  for i = 0 to Bytes.length digits - 1 do
    m := max !m (abs (Bytes.get_int8 digits i))
  done;
  (!m + 1) / 2

(* tab.(i) <- (2i+1)·P on the arena: one doubling, one mixed and
   size − 2 general additions of 2P. tab.(0) is P itself, z = 1. *)
let odd_multiples (s : Modarith.S.t) (base : t) (size : int) : jp array =
  let tab = Array.init size (fun _ -> jp_take s) in
  if size > 0 then jp_of_point tab.(0) base;
  if size > 1 then begin
    let m = Modarith.S.mark s in
    let twice = jp_take s in
    jp_copy ~dst:twice tab.(0);
    jdbl s twice;
    jp_copy ~dst:tab.(1) twice;
    jadd_aff s tab.(1) tab.(0).x tab.(0).y;
    for i = 2 to size - 1 do
      jp_copy ~dst:tab.(i) tab.(i - 1);
      jadd s tab.(i) twice
    done;
    Modarith.S.release s m
  end;
  tab

let fzero = Modarith.zero fp
let p_minus_2 = Nat.sub p Nat.two

(* Bring entries 1.. of every table to z = 1 (entry 0 is the affine base)
   with Montgomery's simultaneous inversion, inside the session: 3 mults
   per entry to chain the z's, one Fermat inversion, 4 per entry to
   unwind. The prefix products take one arena slot per entry. No entry is
   infinite: (2i+1)·P ≠ O for i < 8 in a group of prime order n > 15. *)
let normalize (s : Modarith.S.t) (tabs : jp array array) : unit =
  let m = Modarith.S.mark s in
  let acc = Modarith.S.take s in
  Modarith.set_one fp acc;
  let prefixes = Array.map (fun tab -> Array.make (Array.length tab) fzero) tabs in
  Array.iteri
    (fun j tab ->
      for i = 1 to Array.length tab - 1 do
        let pre = Modarith.S.take s in
        Modarith.copy_into ~dst:pre acc;
        Modarith.S.mul s ~dst:acc acc tab.(i).z;
        prefixes.(j).(i) <- pre
      done)
    tabs;
  Modarith.S.pow s ~dst:acc acc p_minus_2;
  let zinv = Modarith.S.take s and zz = Modarith.S.take s in
  for j = Array.length tabs - 1 downto 0 do
    let tab = tabs.(j) in
    for i = Array.length tab - 1 downto 1 do
      let pt = tab.(i) in
      Modarith.S.mul s ~dst:zinv acc prefixes.(j).(i);
      Modarith.S.mul s ~dst:acc acc pt.z;
      Modarith.S.sqr s ~dst:zz zinv;
      Modarith.S.mul s ~dst:pt.x pt.x zz;
      Modarith.S.mul s ~dst:zz zz zinv;
      Modarith.S.mul s ~dst:pt.y pt.y zz;
      Modarith.set_one fp pt.z
    done
  done;
  Modarith.S.release s m

(* acc <- acc + d·P for an odd digit d, from tab.(|d|/2) = |d|·P; a
   negative digit flips y. Entry 0 is always affine, the rest when the
   tables were normalized. *)
let add_digit (s : Modarith.S.t) (acc : jp) (tab : jp array) (d : int) ~(affine : bool) : unit =
  let pt = tab.(abs d lsr 1) in
  let m = Modarith.S.mark s in
  let y =
    if d > 0 then pt.y
    else begin
      let ny = Modarith.S.take s in
      Modarith.S.sub s ~dst:ny fzero pt.y;
      ny
    end
  in
  if affine || abs d = 1 then jadd_aff s acc pt.x y else jadd_xyz s acc pt.x y pt.z;
  Modarith.S.release s m

(* ---- Lim–Lee combs for key bases ----

   Six teeth 43 bits apart cover a 258-bit scalar. Entry b − 1 of a comb
   is Σ 2^{43t}·P over the set bits t of b (b = 1..63); row i of a
   scalar reads the entry whose bit t is scalar bit 43t + i, so a full
   product is 42 doublings and ≤ 43 mixed additions (~800 mults, against
   ~2,750 for a one-shot wNAF ladder). Building one costs 215 doublings,
   57 general additions and a batch normalization (~1.1 one-shot [pow]s). *)

let comb_teeth = 6
let comb_spacing = 43

let key_comb (base : t) : t array =
  let entries = Array.init ((1 lsl comb_teeth) - 1) (fun _ -> jp_fresh ()) in
  Modarith.with_session fp (fun s ->
      let tooth = jp_take s in
      jp_of_point tooth base;
      for t = 0 to comb_teeth - 1 do
        if t > 0 then
          for _ = 1 to comb_spacing do
            jdbl s tooth
          done;
        let bit = 1 lsl t in
        jp_copy ~dst:entries.(bit - 1) tooth;
        for b = bit + 1 to (2 * bit) - 1 do
          jp_copy ~dst:entries.(b - 1) entries.(b - bit - 1);
          jadd s entries.(b - 1) tooth
        done
      done);
  to_affine_batch entries

(* acc <- acc + (row i of e's comb read). *)
let comb_row_add (s : Modarith.S.t) (acc : jp) (comb : t array) (e : Nat.t) (i : int) : unit =
  let idx = ref 0 in
  for t = comb_teeth - 1 downto 0 do
    idx := (!idx lsl 1) lor Bool.to_int (Nat.test_bit e ((t * comb_spacing) + i))
  done;
  if !idx <> 0 then
    match comb.(!idx - 1) with Inf -> () | Aff (x, y) -> jadd_aff s acc x y

(* The key-comb cache: an MRU of [key_comb_cap] combs per domain, each
   pool worker warming its own (systhread interleavings within a domain
   can at worst waste a rebuild; combs are deterministic in the base).
   [pow_batch] builds a missing comb at once. [pow] and small MSMs build
   one at a base's [key_sightings]-th sighting, counted in a separate
   bounded list: a comb pays for itself over two uses, a base seen twice
   (each Y_i of a ReEnc step) never builds one, and a crowd of one-shot
   bases churns only the counts, never a built comb. *)
type key_entry = { key : t; comb : t array }
type sighting = { seen_base : t; mutable seen : int }

let key_comb_cap = 8
let sightings_cap = 16
let key_sightings = 3
let key_combs : key_entry list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let sightings : sighting list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

(* Move the first element satisfying [p] to the front of [l] and return
   it; a hit at the head leaves the list as it is. *)
let to_front (p : 'a -> bool) (l : 'a list ref) : 'a option =
  match !l with
  | x :: _ when p x -> Some x
  | xs ->
      let rec go acc = function
        | [] -> None
        | x :: rest when p x ->
            l := x :: List.rev_append acc rest;
            Some x
        | x :: rest -> go (x :: acc) rest
      in
      go [] xs

let find_comb (base : t) : t array option =
  Option.map (fun e -> e.comb) (to_front (fun e -> equal e.key base) (Domain.DLS.get key_combs))

let add_comb (base : t) : t array =
  let combs = Domain.DLS.get key_combs in
  let comb = key_comb base in
  combs := List.filteri (fun i _ -> i < key_comb_cap) ({ key = base; comb } :: !combs);
  comb

(* Count one sighting of a base without a comb; [true] when it reaches
   [key_sightings] (its count is dropped then: the comb takes over). *)
let sighted (base : t) : bool =
  let seen = Domain.DLS.get sightings in
  match to_front (fun sg -> equal sg.seen_base base) seen with
  | Some sg when sg.seen + 1 >= key_sightings ->
      seen := List.tl !seen;
      true
  | Some sg ->
      sg.seen <- sg.seen + 1;
      false
  | None ->
      seen := List.filteri (fun i _ -> i < sightings_cap) ({ seen_base = base; seen = 1 } :: !seen);
      false

(* ---- Straus ---- *)

(* One Straus term: wNAF digits over the base's odd multiples, or a cached
   key's comb, whose rows join the shared doubling chain in its last 43
   positions. *)
type term = Wnaf of Bytes.t | Comb of Nat.t * t array

(* Build this many odd-multiples tables and one inversion (~330 mults)
   pays for itself: each normalized table saves ~140 mults (43 mixed
   instead of general additions, less 7 mults per entry to normalize). A
   one-shot [pow] or a 1-base [pow2] keeps Jacobian tables. *)
let normalize_min = 3

(* Straus over the pair slice [lo, hi): one doubling chain as long as the
   longest digit string, and per position one addition for each nonzero
   digit or comb row. [use_cache] lets key bases read (and, at their
   third sighting, build) a comb. *)
let msm_straus (bases : t array) (exps : Nat.t array) ~(lo : int) ~(hi : int)
    ~(use_cache : bool) : jp =
  let n = hi - lo in
  let terms =
    Array.init n (fun j ->
        let base = bases.(lo + j) and e = exps.(lo + j) in
        let comb =
          if not use_cache then None
          else
            match find_comb base with
            | Some c -> Some c
            | None -> if sighted base then Some (add_comb base) else None
        in
        match comb with Some c -> Comb (e, c) | None -> Wnaf (wnaf e))
  in
  let acc = jp_fresh () in
  Modarith.with_session fp (fun s ->
      let top = ref (-1) and built = ref 0 in
      let tabs =
        Array.mapi
          (fun j term ->
            match term with
            | Comb _ ->
                top := max !top (comb_spacing - 1);
                [||]
            | Wnaf digits ->
                top := max !top (Bytes.length digits - 1);
                let size = wnaf_table_size digits in
                if size > 1 then incr built;
                odd_multiples s bases.(lo + j) size)
          terms
      in
      let affine = !built >= normalize_min in
      if affine then normalize s tabs;
      jp_set_inf acc;
      for i = !top downto 0 do
        jdbl s acc;
        for j = 0 to n - 1 do
          match terms.(j) with
          | Comb (e, comb) -> if i < comb_spacing then comb_row_add s acc comb e i
          | Wnaf digits ->
              if i < Bytes.length digits then begin
                let d = Bytes.get_int8 digits i in
                if d <> 0 then add_digit s acc tabs.(j) d ~affine
              end
        done
      done);
  acc

let pow (base : t) (k : scalar) : t =
  Atom_obs.Opcount.note_pow ();
  let e = Scalar.to_nat k in
  if Nat.is_zero e || is_one base then Inf
  else if equal base generator then comb_point e
  else to_affine (msm_straus [| base |] [| e |] ~lo:0 ~hi:1 ~use_cache:true)

(* ---- Multi-scalar multiplication ---- *)

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
     identity bases and zero scalars drop out. Key combs are consulted only
     for small MSMs (the shape of a sigma-proof check): a shuffle-sized
     batch's bases are one-shot, and counting their sightings would only
     push the keys' counts out of the list. *)
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
            (* Key combs are never consulted here: they only apply to
               MSMs of <= 8 pairs, far below the pooling threshold. *)
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
   (the generator's comb, a key base's Lim–Lee comb, built here on first
   use) is built on the caller before the parallel region and only read
   inside it. *)

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
    let comb = match find_comb base with Some c -> c | None -> add_comb base in
    to_affine_batch
      (Atom_exec.Pool.map ?pool
         (fun k ->
           let e = Scalar.to_nat k in
           let r = jp_fresh () in
           jp_set_inf r;
           if not (Nat.is_zero e) then
             Modarith.with_session fp (fun s ->
                 for i = comb_spacing - 1 downto 0 do
                   jdbl s r;
                   comb_row_add s r comb e i
                 done);
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
