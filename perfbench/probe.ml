(* A transport wrapper that watches the node runtime from outside.

   [Node.Make] is a functor over [Transport.S], so the benchmark hands it
   this wrapper instead of the bare transport. Every send reports its
   frame kind to a caller hook (the benchmark stamps the coordinator's
   first submission frame and first Published frame this way), and every
   endpoint notes when it first blocks in [recv] — the moment its node
   finished [Protocol.setup] and entered its event loop. Frames pass
   through unchanged. *)

module Make (T : Atom_rpc.Transport.S) = struct
  type t = {
    inner : T.t;
    on_send : dst:int -> kind:int -> unit;
    entered : bool Atomic.t;
  }

  let wrap ?(on_send = fun ~dst:_ ~kind:_ -> ()) (inner : T.t) : t =
    { inner; on_send; entered = Atomic.make false }

  let entered (t : t) : bool = Atomic.get t.entered
  let self (t : t) : int = T.self t.inner

  let send (t : t) ~(dst : int) (frame : string) : (unit, Atom_rpc.Transport.error) result =
    (match Atom_wire.Frame.kind_of frame with
    | Some kind -> t.on_send ~dst ~kind
    | None -> ());
    T.send t.inner ~dst frame

  let recv (t : t) ~(timeout : float) : (int * string, Atom_rpc.Transport.error) result =
    Atomic.set t.entered true;
    T.recv t.inner ~timeout

  let close (t : t) : unit = T.close t.inner
end
