(** Completion wakeup for the service event loop: a non-blocking,
    close-on-exec self-pipe.  Pool workers (through [Pool.create
    ~on_complete]) and [Server.stop] call {!signal}; the loop keeps {!fd}
    in its [select] set and calls {!drain} when it turns readable, before
    it sweeps pending jobs.  Signals are coalesced: between two drains at
    most one byte is written, however many jobs retire. *)

type t

val create : unit -> t

val fd : t -> Unix.file_descr
(** The read end, for the loop's [select] set. *)

val signal : t -> unit
(** Domain- and signal-handler-safe.  Makes {!fd} readable unless a
    signal since the last {!drain} already did.  A caller that changed
    shared state before signalling is guaranteed that the loop observes
    the change after its next {!drain}.  No-op after {!close}. *)

val drain : t -> unit
(** Loop side: empty the pipe and re-arm {!signal}.  Call only when {!fd}
    is readable or its readiness does not matter; never blocks. *)

val close : t -> unit
(** Close both ends, after waiting out any {!signal} in progress.  Later
    signals do nothing. *)
