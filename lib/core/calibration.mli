(** Per-primitive cost tables driving the modeled simulator.

    [paper] holds the Table 3 constants (seconds per 32-byte message
    block); [measure] re-times this repo's own implementations on the
    current host. All figure benches default to [paper] so shapes are
    directly comparable with the publication. *)

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
  kem_open : float;
  commit_check : float;
}

val paper : t
(** Table 3 (Go + P-256 assembly on EC2 c4.xlarge). *)

val scale : t -> float -> t

val measure : (module Atom_group.Group_intf.GROUP) -> ?shuffle_batch:int -> unit -> t
(** Time every primitive with the given backend on this host. The shuffle,
    ShufProof, ReEncProof and EncProof-verify rows are per-message averages
    over one [shuffle_batch]-sized vector (default 256), the shape the
    runtime runs them in. *)

val time_it : ?reps:int -> (unit -> unit) -> float
val pp : Format.formatter -> t -> unit
