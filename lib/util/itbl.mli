(** Open-addressing int -> int tables: the interning table behind product
    exploration.

    Two flat arrays (keys, values) probed linearly from {!mix} of the key,
    so a lookup touches no boxed data and an insertion allocates nothing
    until the table doubles.  Keys must be non-negative (packed state-pair
    keys are); bindings are never removed. *)

type t

val mix : int -> int
(** A 64-bit mix of an int key, non-negative: the probe hash, and the
    sharded explorer's partition function ([mix key mod shards]). *)

val create : int -> t
(** A table sized for about [n] bindings before its first resize. *)

val find_or_add : t -> int -> int -> int
(** [find_or_add t key v] is the value bound to [key]; when [key] is
    unbound it binds it to [v] first and returns [v].  Raises
    [Invalid_argument] on a negative key. *)

val find : t -> int -> default:int -> int
(** [find t key ~default] is the value bound to [key], or [default] when
    [key] is unbound (negative keys are never bound). *)

val length : t -> int
(** Number of bindings. *)

val copy : t -> t
(** An independent table with the same bindings: later insertions into
    either never show in the other. *)

val iter : (int -> int -> unit) -> t -> unit
(** [iter f t] calls [f key value] once per binding, in no particular
    order. *)

val reset : t -> unit
(** Drop every binding and release the arrays. *)
