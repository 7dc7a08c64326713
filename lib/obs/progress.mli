(** Live campaign telemetry: the [hft-progress/1] JSONL stream, its
    terminal dashboard ([hft watch]), and the offline waterfall rebuild
    ([hft report --journal-in]).

    Start the streamer with {!start} and it taps the event journal
    ({!Journal.on_record}): span phases become [phase_begin] /
    [phase_end] events, ledger class resolutions drive cadenced
    coverage [snapshot] events (detected / dropped / aborted /
    untestable tallies, resolution rate, ETA from resolution velocity,
    cumulative GC stats, top expensive classes), and
    {!campaign_begin} / {!campaign_end} bracket each campaign with a
    [campaign_started] event and a [final] snapshot whose ["waterfall"]
    field is exactly [Ledger.waterfall_json ()] — it bit-matches the
    end-of-run report.

    Every event carries [schema], a strictly monotone [seq], and
    [time].  When the streamer is not started every hook is one ref
    dereference, and since it only ever reads engine state, engine
    effort counters are bit-identical with or without it.  A failing
    sink silences the stream instead of raising into the engine. *)

(** Where the JSONL goes.  Writes are flushed per event so a live tail
    sees complete lines. *)
type sink

val sink_of_channel : ?close:bool -> out_channel -> sink

(** In-memory sink, for tests. *)
val sink_of_buffer : Buffer.t -> sink

(** ["stderr"], ["fd:N"] (opened via [/dev/fd]) or a file path. *)
val sink_of_spec : string -> (sink, string) result

type config = {
  every_classes : int;
      (** Snapshot cadence: at most one per this many class
          resolutions (clamped to >= 1). *)
  min_interval_s : float;
      (** ... and at most one per this many seconds. *)
  top_k : int;  (** Expensive-class rows carried in each snapshot. *)
}

(** [{ every_classes = 8; min_interval_s = 0.0; top_k = 5 }] *)
val default_config : config

(** Install the streamer (replacing any previous one).  [metrics_out]
    names a file rewritten with {!Export.openmetrics} at every
    snapshot (atomically, via rename). *)
val start : ?config:config -> ?metrics_out:string -> sink -> unit

val active : unit -> bool

(** Events successfully written since {!start}. *)
val emitted : unit -> int

(** Emit a [stream_end] terminator, flush and close the sink,
    uninstall the journal tap. *)
val stop : unit -> unit

(** Bracket one campaign: emits [campaign_started] and resets the
    per-campaign cadence/rate state.  No-op when not {!active}. *)
val campaign_begin : label:string -> faults:int -> unit

(** Publish the scheduler-telemetry summary (typically
    [Hft_par.Stats.to_json]) carried by subsequent snapshots'
    ["parallel"] field — call just before {!campaign_end} so the final
    snapshot has it.  [None] (also the {!campaign_begin} reset) makes
    the field [null].  No-op when not {!active}. *)
val set_parallel : Hft_util.Json.t option -> unit

(** Emit the final snapshot ([final:true]) for the open campaign.
    No-op when not {!active} or no campaign is open. *)
val campaign_end : unit -> unit

(** {1 Watch: stream consumer} *)

(** Folded state of a (possibly live, possibly truncated) stream. *)
type view = {
  v_events : int;
  v_bad : int;  (** lines that did not parse *)
  v_campaign : string option;  (** latest campaign label *)
  v_phase : string option;  (** innermost open phase *)
  v_snapshot : Hft_util.Json.t option;  (** most recent snapshot event *)
  v_campaigns_done : int;  (** final snapshots seen *)
  v_finished : bool;
      (** a [stream_end] event was seen (emitted by {!stop}), or the
          last event was a final snapshot *)
  v_last_seq : int;
  v_seq_ok : bool;  (** seq strictly monotone so far *)
  v_unknown_events : int;
      (** events with a [type] this watch does not know — skipped, but
          counted so the dashboard can warn that the stream is newer
          than the consumer *)
  v_unknown_fields : int;
      (** snapshot fields this watch does not know, same contract *)
}

val empty_view : view

(** Fold one JSONL line into the view (blank and unparseable lines are
    counted but otherwise ignored, so a torn live tail is safe). *)
val view_line : view -> string -> view

val view_of_lines : string list -> view

(** Multi-line dashboard: coverage bar, phase, class tallies, rates,
    ETA, GC, top expensive classes.  Plain ASCII — TTY handling (cursor
    movement) is the CLI's business. *)
val render_view : view -> string

(** One-line digest of a snapshot event, for non-TTY tails. *)
val snapshot_brief : Hft_util.Json.t -> string

(** {1 Offline waterfall rebuild} *)

type offline = {
  off_source : string;  (** ["journal"] or ["ledger"] *)
  off_classes : int;
  off_faults : int;
  off_waterfall : (string * (int * int)) list;
      (** [(outcome, (classes, faults))] in {!Ledger.outcome_keys}
          order. *)
  off_tests : int;
  off_expensive : (string * string * int) list;
      (** [(rep, outcome, cost)], descending cost; ledger tapes only. *)
  off_phases : (string * float) list;
      (** [(phase, elapsed ms)] summed over the tape's [Phase_end]
          events, first-seen order; journal tapes only. *)
  off_shard : Hft_util.Json.t option;
      (** The first [Shard_stats] event as it stands on the tape;
          journal tapes only. *)
}

(** Rebuild the coverage waterfall from an exported tape: either a
    journal JSONL ([--journal-out], via [Class_resolved] and
    [Test_generated] events) or a ledger JSONL ([--ledger-out], class
    rows verbatim plus the expensive-class table).  A ledger tape is
    exact — it reproduces [Ledger.waterfall] field for field,
    never-targeted rows included.  A journal tape rebuilds the
    resolutions the bounded ring still held at export: for a campaign
    bigger than {!Journal.capacity} that is the surviving window, not
    the whole run, and never-targeted classes (which never journal a
    resolution) do not appear. *)
val offline_of_lines : string list -> (offline, string) result

(** Same shape as [Ledger.waterfall_json], so offline and live reports
    compare field for field. *)
val offline_waterfall_json : offline -> Hft_util.Json.t

(** One-line scheduler summary of an [off_shard] event. *)
val shard_brief : Hft_util.Json.t -> string
