(* Shared pieces of the benchmark: the clock, order statistics, per-call
   timing of library functions, phase-span accounting over a time window,
   and the result record every workload returns. *)

let now () : float = Unix.gettimeofday ()

(* Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample. *)
let quantile (xs : float list) (q : float) : float =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float pos in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* Median nanoseconds per call of [f]: [samples] timed batches, each
   repeating [f] until it has run [batch_s] seconds (at least once). *)
let per_call_ns ?(samples = 5) ?(batch_s = 0.02) (f : unit -> unit) : float =
  f ();
  let one () =
    let t0 = now () in
    let calls = ref 0 in
    while !calls = 0 || now () -. t0 < batch_s do
      f ();
      incr calls
    done;
    (now () -. t0) /. float_of_int !calls *. 1e9
  in
  median (List.init samples (fun _ -> one ()))

(* Median seconds of [samples] calls of [f]. *)
let per_call_s ?(samples = 3) (f : unit -> unit) : float =
  median
    (List.init samples (fun _ ->
         let t0 = now () in
         f ();
         now () -. t0))

let peak_heap_mb () : float =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* ---- phase spans ---- *)

module Trace = Atom_obs.Trace

(* The part of each phase span that falls inside [lo, hi], relabelled to
   track [tid]: per-node tracers all write their event loop on tid 0, so
   merging them needs distinct tids, and only the measured window counts
   (phases before it are bring-up, not the round). *)
let clip_phases ~(tid : int) ~(lo : float) ~(hi : float) (evs : Trace.event list) :
    Trace.event list =
  List.filter_map
    (fun (ev : Trace.event) ->
      if ev.Trace.ph <> 'X' || ev.Trace.cat <> Trace.Phase.cat || ev.Trace.tid <> 0 then None
      else
        let s = Float.max lo ev.Trace.ts and e = Float.min hi (ev.Trace.ts +. ev.Trace.dur) in
        if e <= s then None else Some { ev with Trace.ts = s; dur = e -. s; tid })
    evs

let phase_total (evs : Trace.event list) (name : string) : float =
  match List.assoc_opt name (Trace.Breakdown.totals evs) with Some v -> v | None -> 0.

(* Event-loop phases that are waiting rather than work. *)
let waiting_phases = [ "barrier"; "recv-wait" ]

(* ---- metrics registries ---- *)

let counter (reg : Atom_obs.Metrics.t) (name : string) : float =
  Atom_obs.Metrics.counter_value reg name

let sum_counter (regs : Atom_obs.Metrics.t list) (name : string) : float =
  List.fold_left (fun acc r -> acc +. counter r name) 0. regs

let hist (reg : Atom_obs.Metrics.t) (name : string) : Atom_obs.Metrics.histogram option =
  match Atom_obs.Metrics.find reg name with
  | Some (Atom_obs.Metrics.V_histogram h) -> Some h
  | _ -> None

let hist_sum regs name =
  List.fold_left
    (fun acc r -> match hist r name with Some h -> acc +. Atom_obs.Metrics.hist_sum h | None -> acc)
    0. regs

(* ---- results ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  attempted : int;
  failed : int;
  checks : string list; (* failed output checks, human-readable *)
  metrics : metric list;
  config : (string * string) list; (* echoed with the result *)
}

(* Group-operation tallies as named per-layer counts. *)
let opcount_metrics (d : Atom_obs.Opcount.snapshot) : metric list =
  let open Atom_obs.Opcount in
  [
    m "group.pow" "count" (float_of_int d.pow);
    m "group.pow_gen" "count" (float_of_int d.pow_gen);
    m "group.pow2" "count" (float_of_int d.pow2);
    m "group.msm_calls" "count" (float_of_int d.msm_calls);
    m "group.msm_terms" "count" (float_of_int d.msm_terms);
    m "group.batch_scalars" "count" (float_of_int d.batch_scalars);
  ]
