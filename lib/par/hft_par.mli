(** [Hft_par]: multicore speculate-then-commit for the ATPG engines.

    Both engines ([Seq_atpg.run] and [Full_scan.atpg])
    split a fault campaign into collapsed fault classes and hand them to
    {!commit_in_order}: windows of pending classes are evaluated
    speculatively on a fixed-size OCaml 5 domain pool, then committed
    one by one in class order on the calling thread.  Workers drain
    their own deques of class indexes front-first (most commit-urgent
    first) and steal from the back of other workers' deques when they
    run dry.  The calling thread participates as worker 0, so
    [jobs = n] uses exactly [n] domains ([n - 1] spawned); pools persist
    per jobs count, so domain spawn costs are paid once per process. *)

val clamp_jobs : int -> int
(** Clamp a user-supplied jobs count to [1 .. 64]. *)

val jobs_from_env : unit -> int
(** Parse [HFT_JOBS]; unset, unparsable or < 1 mean [1]. *)

(** Scheduler telemetry for one campaign run by {!commit_in_order}.

    The driver accumulates it lock-free on every parallel run:
    per-worker cells are written only by their owning domain,
    commit-side tallies only by the orchestrating thread, and the merge
    happens after the wave barrier's happens-before edge.  Collection is
    purely observational — it never decides which task runs where or
    what gets committed.

    Three conservation laws hold by construction and are gated in CI:
    {ul
    {- [spec_hits + spec_misses + inline = tasks] — the commit loop
       buckets every dispatched task exactly once;}
    {- [Σ w_classes = committed classes] — hits are attributed to the
       evaluating worker, everything else to the orchestrator;}
    {- [Σ (busy + idle + stall) ≤ jobs × wall] — idle counts in-wave
       time only (parked workers are not busy-waiting).}} *)
module Stats : sig
  type worker = {
    w_domain : int;
    w_evaluated : int;  (** speculative tasks this worker ran *)
    w_classes : int;  (** committed classes attributed to it *)
    w_steals : int;  (** tasks it took from other workers' deques *)
    w_stolen : int;  (** tasks other workers took from its deque *)
    w_spec_hits : int;  (** its speculations replayed at commit *)
    w_spec_misses : int;  (** its speculations discarded at commit *)
    w_inline : int;  (** inline recomputes (orchestrator only) *)
    w_busy_ns : int;  (** time on speculative tasks *)
    w_idle_ns : int;  (** in-wave time not spent on tasks *)
    w_stall_ns : int;  (** commit-window time (orchestrator only) *)
  }

  type t = {
    s_jobs : int;
    s_waves : int;
    s_tasks : int;  (** tasks dispatched across all waves *)
    s_wall_ns : int;  (** collector lifetime *)
    s_window_fill : int;  (** Σ commit-window occupancy *)
    s_window_cap : int;  (** Σ commit-window capacity *)
    s_critical_ns : int;  (** Σ per-wave max busy + commit stalls *)
    s_workers : worker array;  (** indexed by domain id, worker 0 first *)
  }

  val busy_ns : t -> int
  val steals : t -> int
  val spec_hits : t -> int
  val spec_misses : t -> int
  val inline : t -> int

  (** Σ busy / (jobs × wall) — 1.0 means every domain spent the whole
      campaign on useful work. *)
  val utilization : t -> float

  (** Mean commit-window occupancy, Σfill / Σcap ([0] when no waves). *)
  val occupancy : t -> float

  (** spec_misses / tasks ([0] when no tasks). *)
  val spec_miss_rate : t -> float

  val to_json : t -> Hft_util.Json.t
end

(** [commit_in_order ~jobs ~n ~pending ~init ~eval ~commit ()] commits
    every index [i] of [0 .. n-1] that is still [pending i] when its turn
    comes, in ascending order, calling [commit ?spec i] exactly once per
    such index.  [commit] may resolve later indexes (a fault drop makes
    [pending] false for them); they are then skipped.

    With [jobs > 1] and [n > 1], windows of [2 × jobs] pending indexes
    are first evaluated speculatively on the domain pool: [eval ws i]
    runs on a worker with that worker's workspace [ws] (built by [init]
    on the worker, at most once per worker per call), and its result is
    passed to the commit as [~spec].  A window member resolved by an
    earlier commit discards its speculation (a miss); a member whose
    shard died ({!Hft_robust.Supervisor.protect}, chaos site [Shard])
    commits without [spec] (inline), and each dead shard records one
    [Degraded {site = "shard"}] journal event.

    {b Determinism contract.}  The sequence of [commit] calls — which
    indexes, in which order — is exactly the sequential loop's,
    [for i = 0 to n - 1 do if pending i then commit i done], at any
    jobs count and under any shard failure: only the presence of
    [spec] varies.  The caller keeps it bit-identical by making
    [commit ~spec i] equivalent to [commit i] ([eval] must be a pure
    function of [i] and the workspace, with its side effects deferred
    onto the [spec], e.g. an {!Hft_obs.Capture} tape replayed at
    commit).  The driver itself writes nothing the caller commits
    except the shard breadcrumbs above.

    [on_stats] receives the scheduler summary once, after the last
    commit: measured per-worker telemetry on the parallel path, or a
    degenerate one-busy-worker summary (no tasks, utilization 1.0)
    whose wall clock runs from [t0] (the campaign's start,
    {!Hft_obs.Clock.now}) on the sequential one. *)
val commit_in_order :
  ?on_stats:(Stats.t -> unit) -> t0:float -> jobs:int -> n:int ->
  pending:(int -> bool) -> init:(unit -> 'ws) -> eval:('ws -> int -> 'spec) ->
  commit:(?spec:'spec -> int -> unit) -> unit -> unit
