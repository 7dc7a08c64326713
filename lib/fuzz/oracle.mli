(** The differential oracles of the fuzz campaign: every cross-engine
    agreement check, factored into one place so [tools/fuzz_smoke] and
    the continuous campaign can never drift apart.

    The six checks ({!check_names}):
    - [fsim-diff] — naive vs cone-limited fault simulation must agree
      on the detected set;
    - [atpg-diff] — a fault detected by one of Naive/Drop ATPG and
      proved untestable by the other is a soundness bug (plus outcome
      conservation on both);
    - [par-diff] — the jobs=4 sharded Drop campaign must reproduce the
      sequential one bit for bit (stats, outcomes, tests, waterfall);
    - [replay-confirm] — every generation-time detection claim must be
      confirmed by an independent replay;
    - [chaos-conservation] — with injections armed at every engine
      site the supervised campaign must terminate, conserve outcomes
      and make only sound claims;
    - [guided-diff] — a statically-guided PODEM verdict may only
      improve on the unguided one, and guided tests must replay.

    Every check except [chaos-conservation] also reports each
    fsim-site degradation its run journals ([Degraded {site = "fsim"}]:
    [drop-pass-skipped], [final-fsim-*], [seq-replay-skipped]) as a
    finding: without chaos, one means a fault-simulation kernel raised
    and the supervisor hid it.

    Checks are deterministic given (netlist, [seed], [canary]):
    derived RNG/chaos seeds are fixed functions of [seed] and engine
    deadlines are step budgets, never wall clocks.  Each check runs
    under {!Hft_robust.Supervisor.guard}, so hangs, crashes and chaos
    injections come back as findings, not exceptions.

    The checks reset and read the global {!Hft_obs} recorder; callers
    with live telemetry of their own must wrap calls in
    [Hft_obs.isolated]. *)

type finding = {
  f_check : string;  (** the {!check_names} entry that fired *)
  f_detail : string;  (** human-readable evidence *)
}

type report = {
  r_findings : finding list;
  r_escalations : int;  (** checks that died under the supervisor *)
}

val check_names : string list

(** Step budget (cooperative deadline ticks) per engine attempt;
    deterministic, unlike a wall clock. *)
val default_step_budget : int

(** Run one named check.  [canary] disables PODEM's propagation
    fallbacks for the ATPG differential, re-exposing the historical
    seed-4246 unsound-Untestable bug class.  Returns the findings and
    the escalation count (0 or 1).  Raises [Invalid_argument] on an
    unknown name. *)
val run_check :
  ?canary:bool -> ?step_budget:int -> name:string -> seed:int ->
  Hft_gate.Netlist.t -> finding list * int

(** Run every check in {!check_names} order. *)
val run :
  ?canary:bool -> ?step_budget:int -> seed:int -> Hft_gate.Netlist.t ->
  report
