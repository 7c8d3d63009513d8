(** The persistent, round-synchronized domain crew behind
    {!Distshard}'s dispatch: one member per worker process, so the
    coordinator's round trips to the workers overlap. *)

type t

val create : int -> t
(** Spawn a crew of N domains. *)

val round : t -> (int -> unit) -> unit
(** Run [fn w] on every crew member [w] in parallel; returns when all are
    done, re-raising the first exception. *)

val stop : t -> unit
