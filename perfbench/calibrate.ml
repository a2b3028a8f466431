(* A fixed reference kernel that measures how fast this host runs right
   now.

   Shared hosts drift: identical P-256 work was seen to take from 1× to 2×
   its best time, for seconds to minutes at a stretch, and a run cannot
   outwait that. The kernel below is schoolbook limb multiplication with a
   fresh result array per step — the instruction and allocation mix of the
   group arithmetic the rounds spend their time in — written here, not
   taken from [lib/], so no change to the program can move it. Timing it
   next to each repetition gives the host's speed at that moment relative
   to a fixed reference. *)

let limbs = 10
let mask = (1 lsl 26) - 1

let step (a : int array) (b : int array) : int array =
  let t = Array.make ((2 * limbs) + 1) 0 in
  for i = 0 to limbs - 1 do
    let c = ref 0 in
    for j = 0 to limbs - 1 do
      let v = t.(i + j) + (a.(i) * b.(j)) + !c in
      t.(i + j) <- v land mask;
      c := v lsr 26
    done;
    t.(i + limbs) <- t.(i + limbs) + !c
  done;
  Array.init limbs (fun i -> (t.(i) lxor t.(i + limbs)) land mask)

let steps = 1_000_000

(* About the kernel's best time for [steps] on the development host (a
   2-core x86-64 VM, OCaml 5.1.1, release build): the unit the normalized
   figures are quoted in. *)
let reference_s = 0.4

(* Seconds for one slice of [steps] kernel steps. *)
let slice () : float =
  let a = ref (Array.init limbs (fun i -> (i * 7919) land mask)) in
  let b = Array.init limbs (fun i -> ((i * 104729) + 3) land mask) in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to steps do
    a := step !a b
  done;
  Unix.gettimeofday () -. t0

(* Host slowness right now: 1.0 at reference speed, 2.0 at half speed. *)
let factor () : float = slice () /. reference_s

(* Run [f 0], [f 1], … while [more i] holds, timing the kernel before the
   first repetition and after each one. Each result comes with the host
   factors of the slices just before and just after it. *)
let repeat ~(more : int -> bool) (f : int -> 'a) : ('a * float * float) list =
  let rec go i before acc =
    if not (more i) then List.rev acc
    else begin
      let r = f i in
      let after = factor () in
      go (i + 1) after ((r, before, after) :: acc)
    end
  in
  go 0 (factor ()) []

(* A repetition paired with the mean factor of the slices around it. *)
let around ((r, before, after) : 'a * float * float) : 'a * float = (r, (before +. after) /. 2.)
