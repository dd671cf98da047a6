(* Completion wakeup: a non-blocking self-pipe whose read end sits in the
   event loop's select set.

   [pending] coalesces the writes: a writer writes only when it flips the
   flag from false to true, so a saturated pool costs at most one write
   per loop pass.  [drain] reads the pipe first and clears the flag
   second.  The reverse order loses wakeups for good: a writer that flips
   the cleared flag and writes between the clear and the read has its
   byte consumed by that read, leaving the flag set over an empty pipe —
   every later [signal] is then a no-op and the loop is never woken
   again.  In this order a writer that runs between the read and the
   clear sees the flag still set and writes nothing, but it changed its
   job's state before signalling, so the sweep that follows [drain]
   already sees that job; writers after the clear write a fresh byte.

   [writers] lets [close] wait out a writer caught between the flag and
   the write, so no byte ever lands on a closed (and possibly reused) fd
   number. *)

type t = {
  rd : Unix.file_descr;
  wr : Unix.file_descr;
  pending : bool Atomic.t;
  writers : int Atomic.t;
}

let create () =
  let rd, wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock rd;
  Unix.set_nonblock wr;
  { rd; wr; pending = Atomic.make false; writers = Atomic.make 0 }

let fd w = w.rd

let byte = Bytes.make 1 'w'

let signal w =
  Atomic.incr w.writers;
  if not (Atomic.exchange w.pending true) then
    (try ignore (Unix.single_write w.wr byte 0 1) with Unix.Unix_error _ -> ());
  Atomic.decr w.writers

(* Coalescing leaves at most a few bytes in the pipe; any left over only
   makes the next select return at once. *)
let drain w =
  (try ignore (Unix.read w.rd (Bytes.create 64) 0 64) with Unix.Unix_error _ -> ());
  Atomic.set w.pending false

(* Leaving [pending] set turns every later [signal] into a no-op; a
   writer that flipped it first is waited out. *)
let close w =
  Atomic.set w.pending true;
  while Atomic.get w.writers > 0 do
    Domain.cpu_relax ()
  done;
  (try Unix.close w.rd with Unix.Unix_error _ -> ());
  try Unix.close w.wr with Unix.Unix_error _ -> ()
