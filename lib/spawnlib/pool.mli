(** Prefork worker pool — the real-OS analog of the simulator's zygote
    templates ({!Ksim.Api.freeze} / {!Ksim.Api.spawn_from_template}).

    A pool spawns [size] worker processes up front via {!Spawn.spawn}
    (so process creation is paid once, while the master is still small),
    optionally runs a warm-up exchange with each, and then serves
    requests over a line-oriented stdin/stdout pipe protocol: one
    request line in, one reply line out.  Workers that crash are reaped
    and respawned under a {!Retry} policy, and the in-flight request is
    retried once on the replacement.

    Creating a pool sets [SIGPIPE] to ignored for the whole process, so
    that writes to a crashed worker surface as [EPIPE] instead of
    killing the master. *)

type error =
  | Spawn_error of Spawn.error  (** a (re)spawn failed after retries *)
  | Worker_lost
      (** the worker died mid-request and its freshly respawned
          replacement died too *)
  | Warmup_failed of string
      (** the warmup hook raised (e.g. [End_of_file] from a worker that
          crashed mid-warmup); the worker has been reaped, not leaked *)

val error_message : error -> string

type stats = {
  size : int;  (** configured pool size *)
  spawned : int;  (** workers started over the pool's lifetime *)
  respawns : int;  (** crash-respawn events *)
  served : int;  (** successful request/reply round-trips *)
}

type slot_stats = {
  slot : int;  (** worker slot index, 0-based *)
  mutable slot_served : int;  (** requests served from this slot *)
  mutable slot_crashes : int;  (** times a request found this slot dead *)
  mutable slot_failed : int;
      (** requests that ended in [Error] on this slot (respawn failed or
          the replacement died too) *)
  latency : Metrics.Window.t;
      (** request latency in seconds over a sliding wall-clock window;
          query with [now = Unix.gettimeofday ()]. Failed requests are
          recorded too — crash + respawn time is exactly the tail the
          window exists to show. Slot stats survive crash respawns — the
          slot is the serving unit, whatever pid currently fills it. *)
}

type t

val create :
  ?attr:Spawn.attr ->
  ?retry:Retry.policy ->
  ?warmup:(send:(string -> unit) -> recv:(unit -> string) -> unit) ->
  ?latency_window:float ->
  size:int ->
  prog:string ->
  argv:string list ->
  unit ->
  (t, error) result
(** [create ~size ~prog ~argv ()] starts [size] workers running [prog]
    with their stdin/stdout wired to per-worker pipes.  [warmup] is
    invoked once per fresh worker (including crash respawns) with
    [send]/[recv] closures speaking the line protocol, before the worker
    serves any pool request.  [retry] governs transient spawn failures
    (see {!Spawn.spawn_retrying}).  If any worker fails to start, the
    already-started ones are torn down and the error is returned.
    [latency_window] is the width in seconds of each slot's sliding
    latency window (default 10).

    @raise Invalid_argument if [size < 1]. *)

val submit : t -> string -> (string, error) result
(** [submit t line] dispatches [line] (newline appended) to the next
    worker round-robin and waits for one reply line.  A dead worker is
    reaped, its slot respawned, and the request retried once.

    @raise Invalid_argument if the pool has been shut down. *)

val size : t -> int
val pids : t -> int list
(** Current worker pids, in slot order. *)

val stats : t -> stats

val worker_stats : t -> slot_stats list
(** Per-slot counters and latency windows, in slot order. *)

val depth : t -> int
(** Requests currently in flight (queue depth as seen by the pool). *)

val max_depth : t -> int
(** High-water mark of {!depth} over the pool's lifetime. *)

val shutdown : t -> Process.status list
(** Close every worker's stdin (EOF tells well-behaved workers to exit),
    drain any remaining reply output to EOF — a worker blocked writing a
    reply larger than the pipe buffer would otherwise never exit and the
    wait would deadlock — then wait for each, returning their exit
    statuses in slot order. Idempotent: subsequent calls return [[]]. *)

(** Concurrent open-loop load driver over a pool: keeps up to
    [concurrency] requests in flight across all workers at once,
    multiplexing replies with [Unix.select]. Run it on a fresh pool
    (before any {!submit}) — it reads the reply pipes directly,
    bypassing the buffered channel [submit] uses. *)
module Load : sig
  type result = {
    sent : int;  (** requests written to a worker (including re-sends) *)
    completed : int;  (** replies received *)
    errors : int;  (** requests abandoned (respawn failed) *)
    retried : int;  (** requests re-queued after their worker died *)
    respawns : int;  (** workers replaced mid-run *)
    max_outstanding : int;  (** high-water mark of in-flight requests *)
    wall_s : float;  (** run duration, seconds *)
    latencies : float array;  (** per-reply latency in seconds, sorted *)
  }

  val run :
    ?concurrency:int ->
    ?kill_after:int ->
    requests:int ->
    request:(int -> string) ->
    t ->
    result
  (** [run ~requests ~request t] drives [requests] request/reply
      round-trips through the pool, keeping up to [concurrency]
      (default 256) outstanding; [request i] is the line sent for
      request [i]. Workers that die mid-run are respawned and their
      in-flight requests re-sent (the protocol must tolerate duplicate
      delivery). [kill_after n] is a crash-at-load probe: once [n]
      replies have arrived it stops the first live worker slot (slot 0
      unless that one is dead), sends it one more request and SIGKILLs
      it, so the worker provably dies owing a reply; [run] returns only
      after that worker has been reaped and its slot respawned, with its
      unanswered requests re-sent. One fresh request is held back until
      the kill for this, when [n < requests].

      @raise Invalid_argument if the pool is shut down.
      @raise Failure if no worker produces a reply for 30 seconds. *)
end
