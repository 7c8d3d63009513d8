(** The worker half of the distributed shard tier.

    During a product build a worker is a stateless frontier expander: an
    [expand] request carries shards' frontiers as packed pair keys and is
    answered with joint-move counts and successor keys, computed with
    the {!Mechaml_ts.Compose.moves} kernel from the session's operand automata
    alone — so a lost worker's request can be resent to any replacement.
    Interning, the merge and the CSR finalization stay on the coordinator
    ({!Distshard}).  After the build the worker is installed with its
    shards' finished forward and predecessor segments (held under its own
    {!Mechaml_util.Segment} budget) and runs the shard-local part of the global
    fixpoints on the {!Mechaml_mc.Worklist} kernel: its shards are the
    kernel's owned blocks, its outboxes the kernel's [emit], and the
    coordinator's boundary items are fed through the kernel's relaxation.

    Every request is checked against the session before the kernel sees
    it: bit vectors must match the [ctx] maps' length, [guard] is required
    for [eu]/[au], the [ctx] maps must number each shard, [adopt_seg]
    segments must be well-formed CSR over the shard's members, and
    boundary items must be states of the shard they are addressed to.  A
    violation is answered with a 400 and leaves the worker serving.

    The ops are [ping], [open], [expand], [ctx], [adopt_seg], [agg],
    [fix_init], [fix_round], [fix_done], [close] and [shutdown].  The
    coordinator must run the same build of the program.

    One worker process serves any number of sessions (keyed by [sid]), so a
    pre-started fleet ([--dist-connect]) is shared infrastructure: closing a
    session never shuts the worker down. *)

type t

val create : ?ppid:int -> Unix.file_descr -> t
(** A worker over a bound, listening socket.  With [ppid] the accept loop
    also exits when the parent changes — a forked worker orphaned by a
    coordinator crash reaps itself instead of leaking. *)

val serve : t -> unit
(** Blocking accept loop; returns after a [shutdown] op, a simulated crash
    ([die_after_rounds]), or (with [ppid]) coordinator death.  Closes the
    listening socket and every session's segment manager on the way out. *)

(** {1 In-process worker}

    For tests and the distribution-neutrality suites: the same [serve] loop
    on a fresh domain, reachable over a real socket. *)

type handle

val start : Mechaml_wire.Shardwire.addr -> handle
(** Bind, listen and serve on a new domain. *)

val addr : handle -> Mechaml_wire.Shardwire.addr

val stop : handle -> unit
(** Stop the loop, join the domain, unlink a Unix socket path. *)
