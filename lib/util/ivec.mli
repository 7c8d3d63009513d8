(** Growable int vectors: the append-only buffers behind product
    exploration (member lists, edge generations, boundary outboxes).

    The record is exposed read-only so hot loops can blit the backing
    array directly: [a.(0) .. a.(n - 1)] are the elements, the rest of [a]
    is spare capacity. *)

type t = private { mutable a : int array; mutable n : int }

val create : unit -> t

val push : t -> int -> unit
(** Append one element, doubling the capacity when full. *)

val append : t -> int array -> unit

val get : t -> int -> int
(** Unchecked read; the index must be below {!length}. *)

val length : t -> int

val to_array : t -> int array
(** A fresh array of the elements. *)

val clear : t -> unit
(** Drop the elements, keeping the capacity. *)

val reset : t -> unit
(** Drop the elements and release the capacity. *)

val capacity_bytes : t -> int
(** Bytes held by the backing array. *)
