(* Live campaign telemetry: the hft-progress/1 stream.

   Everything built so far (metrics, spans, journal, ledger) is
   post-hoc — nothing is visible until the campaign returns.  This
   module streams the campaign *while it runs*: typed JSONL events
   (campaign started, phase begin/end, cadenced coverage snapshots, a
   final snapshot) written to a sink the caller picks (file, fd or
   stderr), with strictly monotone sequence numbers so a tail can
   detect gaps and truncation.

   The subsystem is deliberately parasitic: it installs itself as the
   journal's [on_record] tap and reads the ledger, so the engines are
   untouched — when the streamer is not started (or observability is
   off) every entry point is one ref dereference, and the engines'
   effort counters are bit-identical either way because the streamer
   only ever *reads* engine state.

   Bounded and non-throwing by construction: emission is cadenced (at
   most one snapshot per [every_classes] resolutions and per
   [min_interval_s] seconds), per-event cost is one JSON serialisation
   plus a line write, and a failing sink (full disk, closed pipe)
   flips the stream into a sink-dead state instead of raising into the
   engine.

   Snapshot contract: the ["waterfall"] field is exactly
   [Ledger.waterfall_json ()], so the final snapshot of a campaign
   bit-matches the waterfall `hft report` prints for the same run.

   The ETA model: resolution velocity.  [resolved / elapsed] classes
   per second since campaign start, so [eta_s = remaining / rate] —
   no per-class cost model, just the ledger's observed throughput
   (null until the first resolution). *)

(* ------------------------------------------------------------------ *)
(* Sinks                                                              *)

type sink = {
  sk_write : string -> unit;
  sk_flush : unit -> unit;
  sk_close : unit -> unit;
}

let sink_of_channel ?(close = false) oc =
  {
    sk_write = (fun s -> output_string oc s);
    sk_flush = (fun () -> flush oc);
    sk_close = (fun () -> if close then close_out oc else flush oc);
  }

let sink_of_buffer b =
  {
    sk_write = Buffer.add_string b;
    sk_flush = (fun () -> ());
    sk_close = (fun () -> ());
  }

(* "stderr", "fd:N" (via /dev/fd, so no unsafe descriptor forging) or a
   file path. *)
let sink_of_spec spec =
  if spec = "stderr" then Ok (sink_of_channel stderr)
  else if String.length spec > 3 && String.sub spec 0 3 = "fd:" then begin
    match int_of_string_opt (String.sub spec 3 (String.length spec - 3)) with
    | None -> Error (Printf.sprintf "bad fd spec %S" spec)
    | Some fd ->
      (try
         Ok
           (sink_of_channel ~close:true
              (open_out_gen [ Open_wronly; Open_append ] 0o644
                 (Printf.sprintf "/dev/fd/%d" fd)))
       with Sys_error e -> Error (Printf.sprintf "cannot open fd %d: %s" fd e))
  end
  else
    try Ok (sink_of_channel ~close:true (open_out spec))
    with Sys_error e -> Error (Printf.sprintf "cannot open %S: %s" spec e)

(* ------------------------------------------------------------------ *)
(* Configuration and stream state                                     *)

type config = {
  every_classes : int;  (* snapshot at most once per N resolutions *)
  min_interval_s : float;  (* ... and at most once per this many seconds *)
  top_k : int;  (* expensive-class rows carried in snapshots *)
}

let default_config = { every_classes = 8; min_interval_s = 0.0; top_k = 5 }

type state = {
  st_sink : sink;
  st_cfg : config;
  st_metrics_out : string option;
  mutable st_seq : int;
  mutable st_emitted : int;
  mutable st_dead : bool;  (* sink failed; stop writing, never raise *)
  mutable st_phases : string list;  (* open-phase stack, innermost first *)
  (* per-campaign: *)
  mutable st_campaign : string option;
  mutable st_started : float;
  mutable st_since_snap : int;  (* resolutions since the last snapshot *)
  mutable st_last_snap : float;
  mutable st_snapshots : int;  (* intermediate snapshots this campaign *)
  mutable st_parallel : Hft_util.Json.t option;
      (* scheduler-telemetry summary, published by the flow just before
         campaign_end so the final snapshot carries it *)
}

let state : state option ref = ref None

let active () = !state <> None

let emitted () = match !state with Some st -> st.st_emitted | None -> 0

(* ------------------------------------------------------------------ *)
(* Emission                                                           *)

let schema = "hft-progress/1"

let emit st fields =
  if not st.st_dead then begin
    let seq = st.st_seq in
    st.st_seq <- seq + 1;
    let doc =
      Hft_util.Json.Obj
        (("schema", Hft_util.Json.String schema)
         :: ("seq", Hft_util.Json.Int seq)
         :: ("time", Hft_util.Json.Float (Clock.now ()))
         :: fields)
    in
    try
      st.st_sink.sk_write (Hft_util.Json.to_string doc);
      st.st_sink.sk_write "\n";
      st.st_sink.sk_flush ();
      st.st_emitted <- st.st_emitted + 1
    with Sys_error _ -> st.st_dead <- true
  end

let rewrite_metrics st =
  match st.st_metrics_out with
  | None -> ()
  | Some path ->
    (* Atomic-ish rewrite: a scraper never reads a torn exposition. *)
    (try
       let tmp = path ^ ".tmp" in
       let oc = open_out tmp in
       output_string oc (Export.openmetrics ());
       close_out oc;
       Sys.rename tmp path
     with Sys_error _ -> ())

let gc_json () =
  let g = Gc.quick_stat () in
  (* [Gc.minor_words] separately: quick_stat's figure excludes the
     live minor heap. *)
  Hft_util.Json.Obj
    [ ("minor_words", Hft_util.Json.Float (Gc.minor_words ()));
      ("major_words", Hft_util.Json.Float g.Gc.major_words);
      ("compactions", Hft_util.Json.Int g.Gc.compactions) ]

(* Classes with a terminal outcome: everything but never_targeted. *)
let resolved_classes () =
  List.fold_left
    (fun acc (k, (c, _)) -> if k = "never_targeted" then acc else acc + c)
    0 (Ledger.waterfall ())

let snapshot_fields ~final st =
  let open Hft_util.Json in
  let now = Clock.now () in
  let elapsed = now -. st.st_started in
  let classes = Ledger.n_classes () in
  let resolved = resolved_classes () in
  let rate = if elapsed > 0.0 then float_of_int resolved /. elapsed else 0.0 in
  let remaining = classes - resolved in
  let eta =
    if rate > 0.0 && remaining > 0 then Float (float_of_int remaining /. rate)
    else Null
  in
  [ ("type", String "snapshot");
    ("final", Bool final);
    ("campaign",
     match st.st_campaign with Some c -> String c | None -> Null);
    ("phase",
     match st.st_phases with p :: _ -> String p | [] -> Null);
    ("elapsed_s", Float elapsed);
    ("classes", Int classes);
    ("resolved", Int resolved);
    ("tests", Int (Ledger.n_tests ()));
    ("rate_cps", Float rate);
    ("eta_s", eta);
    ("waterfall", Ledger.waterfall_json ());
    ("gc", gc_json ());
    ("parallel",
     match st.st_parallel with Some j -> j | None -> Null);
    ("top",
     List
       (List.map
          (fun (r : Ledger.row) ->
            Obj
              [ ("rep", String r.Ledger.lr_rep);
                ("outcome", String (Ledger.resolution_key r.Ledger.lr_resolution));
                ("cost", Int (Ledger.cost r)) ])
          (Ledger.top_expensive ~k:st.st_cfg.top_k))) ]

let emit_snapshot ~final st =
  emit st (snapshot_fields ~final st);
  st.st_since_snap <- 0;
  st.st_last_snap <- Clock.now ();
  if not final then st.st_snapshots <- st.st_snapshots + 1;
  rewrite_metrics st

(* ------------------------------------------------------------------ *)
(* Journal tap                                                        *)

let on_journal (e : Journal.entry) =
  match !state with
  | None -> ()
  | Some st ->
    (match e.Journal.e_event with
     | Journal.Phase_begin { name } ->
       st.st_phases <- name :: st.st_phases;
       emit st
         [ ("type", Hft_util.Json.String "phase_begin");
           ("name", Hft_util.Json.String name) ]
     | Journal.Phase_end { name; elapsed } ->
       (match st.st_phases with
        | top :: rest when top = name -> st.st_phases <- rest
        | _ ->
          (* Defensive: drop through to the matching frame, as Span
             does when a callee escapes. *)
          let rec pop = function
            | top :: rest when top = name -> rest
            | _ :: rest -> pop rest
            | [] -> []
          in
          st.st_phases <- pop st.st_phases);
       emit st
         [ ("type", Hft_util.Json.String "phase_end");
           ("name", Hft_util.Json.String name);
           ("elapsed_s", Hft_util.Json.Float elapsed) ]
     | Journal.Class_resolved _ when st.st_campaign <> None ->
       st.st_since_snap <- st.st_since_snap + 1;
       if
         st.st_since_snap >= st.st_cfg.every_classes
         && Clock.now () -. st.st_last_snap >= st.st_cfg.min_interval_s
       then emit_snapshot ~final:false st
     | _ -> ())

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)

let start ?(config = default_config) ?metrics_out sink =
  (match !state with
   | Some st -> st.st_sink.sk_close ()
   | None -> ());
  state :=
    Some
      {
        st_sink = sink;
        st_cfg =
          { config with every_classes = max 1 config.every_classes };
        st_metrics_out = metrics_out;
        st_seq = 0;
        st_emitted = 0;
        st_dead = false;
        st_phases = [];
        st_campaign = None;
        st_started = Clock.now ();
        st_since_snap = 0;
        st_last_snap = neg_infinity;
        st_snapshots = 0;
        st_parallel = None;
      };
  Journal.on_record := on_journal

let stop () =
  match !state with
  | None -> ()
  | Some st ->
    Journal.on_record := (fun _ -> ());
    (* Explicit terminator: spans may close (phase_end) after the last
       campaign's final snapshot, so a tail cannot use "final snapshot
       at EOF" alone to decide the stream is over. *)
    emit st
      [ ("type", Hft_util.Json.String "stream_end");
        ("events", Hft_util.Json.Int st.st_emitted) ];
    (try st.st_sink.sk_close () with Sys_error _ -> ());
    state := None

let campaign_begin ~label ~faults =
  match !state with
  | None -> ()
  | Some st ->
    st.st_campaign <- Some label;
    st.st_started <- Clock.now ();
    st.st_since_snap <- 0;
    st.st_last_snap <- neg_infinity;
    st.st_snapshots <- 0;
    st.st_parallel <- None;
    emit st
      [ ("type", Hft_util.Json.String "campaign_started");
        ("campaign", Hft_util.Json.String label);
        ("faults", Hft_util.Json.Int faults) ]

let set_parallel j =
  match !state with
  | None -> ()
  | Some st -> st.st_parallel <- j

let campaign_end () =
  match !state with
  | None -> ()
  | Some st ->
    if st.st_campaign <> None then begin
      emit_snapshot ~final:true st;
      st.st_campaign <- None
    end

(* ------------------------------------------------------------------ *)
(* Watch: fold a stream into a view and render a dashboard            *)

type view = {
  v_events : int;  (* parsed events *)
  v_bad : int;  (* lines that did not parse as events *)
  v_campaign : string option;
  v_phase : string option;
  v_snapshot : Hft_util.Json.t option;  (* most recent snapshot *)
  v_campaigns_done : int;  (* final snapshots seen *)
  v_finished : bool;  (* stream_end seen, or final snapshot at the tail *)
  v_last_seq : int;
  v_seq_ok : bool;  (* sequence numbers strictly monotone so far *)
  v_unknown_events : int;  (* event kinds this watch does not know *)
  v_unknown_fields : int;  (* snapshot fields this watch does not know *)
}

let empty_view =
  {
    v_events = 0;
    v_bad = 0;
    v_campaign = None;
    v_phase = None;
    v_snapshot = None;
    v_campaigns_done = 0;
    v_finished = false;
    v_last_seq = -1;
    v_seq_ok = true;
    v_unknown_events = 0;
    v_unknown_fields = 0;
  }

(* Forward-compat contract: a watch built against schema N must render a
   stream from schema N+1 instead of crashing or silently mis-reading
   it.  Unknown event kinds and unknown snapshot fields are therefore
   skipped but *counted*, and the dashboard prints one warning line so
   the operator knows data is being ignored. *)
let known_snapshot_fields =
  [ "schema"; "seq"; "time"; "type"; "final"; "campaign"; "phase";
    "elapsed_s"; "classes"; "resolved"; "tests"; "rate_cps"; "eta_s";
    "waterfall"; "gc"; "top"; "parallel" ]

let unknown_snapshot_fields doc =
  match doc with
  | Hft_util.Json.Obj fields ->
    List.length
      (List.filter
         (fun (k, _) -> not (List.mem k known_snapshot_fields))
         fields)
  | _ -> 0

let member_str k j =
  match Hft_util.Json.member k j with
  | Some (Hft_util.Json.String s) -> Some s
  | _ -> None

let member_int k j =
  match Hft_util.Json.member k j with
  | Some (Hft_util.Json.Int i) -> Some i
  | _ -> None

let member_float k j =
  match Hft_util.Json.member k j with
  | Some (Hft_util.Json.Float f) -> Some f
  | Some (Hft_util.Json.Int i) -> Some (float_of_int i)
  | _ -> None

let view_line v line =
  if String.trim line = "" then v
  else
    match Hft_util.Json.parse line with
    | Error _ -> { v with v_bad = v.v_bad + 1 }
    | Ok doc ->
      let seq = Option.value ~default:(-1) (member_int "seq" doc) in
      let v =
        {
          v with
          v_events = v.v_events + 1;
          v_seq_ok = v.v_seq_ok && seq > v.v_last_seq;
          v_last_seq = max seq v.v_last_seq;
          v_finished = false;
        }
      in
      (match member_str "type" doc with
       | Some "campaign_started" ->
         { v with v_campaign = member_str "campaign" doc; v_snapshot = None }
       | Some "phase_begin" -> { v with v_phase = member_str "name" doc }
       | Some "phase_end" -> { v with v_phase = None }
       | Some "snapshot" ->
         let final =
           Hft_util.Json.member "final" doc
           = Some (Hft_util.Json.Bool true)
         in
         {
           v with
           v_snapshot = Some doc;
           v_phase =
             (match member_str "phase" doc with
              | Some p -> Some p
              | None -> v.v_phase);
           v_campaigns_done =
             (v.v_campaigns_done + (if final then 1 else 0));
           v_finished = final;
           v_unknown_fields =
             v.v_unknown_fields + unknown_snapshot_fields doc;
         }
       | Some "stream_end" -> { v with v_finished = true }
       | Some _ ->
         (* A kind this watch predates: skip it, count it, keep going. *)
         { v with v_unknown_events = v.v_unknown_events + 1 }
       | None -> v)

let view_of_lines lines = List.fold_left view_line empty_view lines

(* Waterfall cell: [member.outcome.{classes,faults}]. *)
let wf_cell wf key =
  match Hft_util.Json.member key wf with
  | Some cell ->
    ( Option.value ~default:0 (member_int "classes" cell),
      Option.value ~default:0 (member_int "faults" cell) )
  | None -> (0, 0)

let bar ~width frac =
  let frac = Float.max 0.0 (Float.min 1.0 frac) in
  let full = int_of_float (frac *. float_of_int width) in
  String.make full '#' ^ String.make (width - full) '-'

let fmt_rate r =
  if r >= 100.0 then Printf.sprintf "%.0f" r else Printf.sprintf "%.1f" r

let fmt_s s = Printf.sprintf "%.2fs" s

(* One-line digest of a snapshot, for non-TTY tails. *)
let snapshot_brief doc =
  let wf =
    Option.value ~default:(Hft_util.Json.Obj [])
      (Hft_util.Json.member "waterfall" doc)
  in
  let faults = Option.value ~default:0 (member_int "faults" wf) in
  let detected =
    List.fold_left
      (fun acc k -> acc + snd (wf_cell wf k))
      0
      [ "drop_detected"; "podem_detected"; "salvaged" ]
  in
  let pct =
    if faults > 0 then 100.0 *. float_of_int detected /. float_of_int faults
    else 0.0
  in
  Printf.sprintf "snapshot seq=%d %s%s resolved %d/%d coverage %.1f%% eta %s"
    (Option.value ~default:(-1) (member_int "seq" doc))
    (match member_str "campaign" doc with
     | Some c -> c ^ " "
     | None -> "")
    (if Hft_util.Json.member "final" doc = Some (Hft_util.Json.Bool true)
     then "[final]"
     else "")
    (Option.value ~default:0 (member_int "resolved" doc))
    (Option.value ~default:0 (member_int "classes" doc))
    pct
    (match member_float "eta_s" doc with
     | Some e -> fmt_s e
     | None -> "-")

let render_view v =
  let b = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  line "hft watch — %d events%s · campaigns finished: %d%s"
    v.v_events
    (if v.v_seq_ok then "" else " · SEQ GAP")
    v.v_campaigns_done
    (if v.v_finished then " · stream complete" else "");
  if v.v_unknown_events > 0 || v.v_unknown_fields > 0 then
    line
      "warning   stream is newer than this watch: skipped %d unknown \
       event(s), %d unknown snapshot field(s)"
      v.v_unknown_events v.v_unknown_fields;
  (match v.v_campaign with
   | Some c ->
     line "campaign  %s%s" c
       (match v.v_phase with Some p -> " · phase " ^ p | None -> "")
   | None -> ());
  (match v.v_snapshot with
   | None -> line "(no snapshot yet)"
   | Some doc ->
     let wf =
       Option.value ~default:(Hft_util.Json.Obj [])
         (Hft_util.Json.member "waterfall" doc)
     in
     let faults = Option.value ~default:0 (member_int "faults" wf) in
     let detected =
       List.fold_left
         (fun acc k -> acc + snd (wf_cell wf k))
         0
         [ "drop_detected"; "podem_detected"; "salvaged" ]
     in
     let frac =
       if faults > 0 then float_of_int detected /. float_of_int faults
       else 0.0
     in
     line "coverage  [%s] %.1f%% (%d/%d faults detected)" (bar ~width:30 frac)
       (100.0 *. frac) detected faults;
     let cls k = fst (wf_cell wf k) in
     line
       "classes   %d/%d resolved · drop %d · podem %d · salvaged %d · \
        aborted %d · untestable %d · pending %d"
       (Option.value ~default:0 (member_int "resolved" doc))
       (Option.value ~default:0 (member_int "classes" doc))
       (cls "drop_detected") (cls "podem_detected") (cls "salvaged")
       (cls "aborted") (cls "untestable") (cls "never_targeted");
     line "tests %d · rate %s classes/s · eta %s · elapsed %s"
       (Option.value ~default:0 (member_int "tests" doc))
       (fmt_rate (Option.value ~default:0.0 (member_float "rate_cps" doc)))
       (match member_float "eta_s" doc with
        | Some e -> fmt_s e
        | None -> "-")
       (fmt_s (Option.value ~default:0.0 (member_float "elapsed_s" doc)));
     (match Hft_util.Json.member "gc" doc with
      | Some gc ->
        line "gc        minor %.3g w · major %.3g w · compactions %d"
          (Option.value ~default:0.0 (member_float "minor_words" gc))
          (Option.value ~default:0.0 (member_float "major_words" gc))
          (Option.value ~default:0 (member_int "compactions" gc))
      | None -> ());
     (match Hft_util.Json.member "top" doc with
      | Some (Hft_util.Json.List (_ :: _ as rows)) ->
        line "top       %s"
          (String.concat " | "
             (List.map
                (fun r ->
                  Printf.sprintf "%s (%s, cost %d)"
                    (Option.value ~default:"?" (member_str "rep" r))
                    (Option.value ~default:"?" (member_str "outcome" r))
                    (Option.value ~default:0 (member_int "cost" r)))
                rows))
      | _ -> ());
     (match Hft_util.Json.member "parallel" doc with
      | Some (Hft_util.Json.Obj _ as par) ->
        line
          "parallel  jobs %d · tasks %d · steals %d · spec hit/miss \
           %d/%d · utilization %.0f%%"
          (Option.value ~default:1 (member_int "jobs" par))
          (Option.value ~default:0 (member_int "tasks" par))
          (Option.value ~default:0 (member_int "steals" par))
          (Option.value ~default:0 (member_int "spec_hits" par))
          (Option.value ~default:0 (member_int "spec_misses" par))
          (100.0
          *. Option.value ~default:0.0 (member_float "utilization" par));
        (match Hft_util.Json.member "workers" par with
         | Some (Hft_util.Json.List workers) ->
           List.iter
             (fun w ->
               let util =
                 Option.value ~default:0.0 (member_float "utilization" w)
               in
               line "  w%-2d     [%s] %3.0f%% · %d classes · %d steals"
                 (Option.value ~default:0 (member_int "domain" w))
                 (bar ~width:20 util) (100.0 *. util)
                 (Option.value ~default:0 (member_int "classes" w))
                 (Option.value ~default:0 (member_int "steals" w)))
             workers
         | _ -> ())
      | _ -> ()));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Offline waterfall rebuild (hft report --journal-in)                *)

type offline = {
  off_source : string;  (* "journal" or "ledger" *)
  off_classes : int;
  off_faults : int;
  off_waterfall : (string * (int * int)) list;  (* outcome_keys order *)
  off_tests : int;
  off_expensive : (string * string * int) list;  (* rep, outcome, cost *)
  off_phases : (string * float) list;  (* name, summed elapsed ms *)
  off_shard : Hft_util.Json.t option;  (* the Shard_stats event *)
}

(* A tape line is one of three shapes: a ledger class row (has "class"
   + "resolution"), a ledger test row (has "test" but no "type"), or a
   journal event (has "type").  A journal tape rebuilds the waterfall
   from Class_resolved events (last write per class wins, mirroring
   Ledger.resolve) with totals from the Collapse event, plus the
   per-phase elapsed sums and the scheduler summary; a ledger tape has
   the rows verbatim and also yields the expensive-class table. *)
let offline_of_lines lines =
  let docs =
    List.filter_map
      (fun l ->
        if String.trim l = "" then None
        else
          match Hft_util.Json.parse l with
          | Ok d -> Some d
          | Error _ -> None)
      lines
  in
  if docs = [] then Error "no parseable JSONL lines"
  else
    let is_ledger_row d =
      Hft_util.Json.member "class" d <> None
      && Hft_util.Json.member "resolution" d <> None
    in
    let tally_of assoc =
      (* outcome_keys order first, then any unknown keys, so the table
         stays stable across schema growth. *)
      let base =
        List.map
          (fun k ->
            (k, Option.value ~default:(0, 0) (List.assoc_opt k assoc)))
          Ledger.outcome_keys
      in
      let extra =
        List.filter (fun (k, _) -> not (List.mem k Ledger.outcome_keys)) assoc
      in
      base @ extra
    in
    if List.exists is_ledger_row docs then begin
      (* Ledger tape. *)
      let tally = Hashtbl.create 8 in
      let classes = ref 0 and faults = ref 0 and tests = ref 0 in
      let expensive = ref [] in
      List.iter
        (fun d ->
          if is_ledger_row d then begin
            let outcome =
              match Hft_util.Json.member "resolution" d with
              | Some r -> Option.value ~default:"?" (member_str "outcome" r)
              | None -> "?"
            in
            let members =
              match Hft_util.Json.member "members" d with
              | Some (Hft_util.Json.List l) -> List.length l
              | _ -> 0
            in
            incr classes;
            faults := !faults + members;
            let c, f =
              Option.value ~default:(0, 0) (Hashtbl.find_opt tally outcome)
            in
            Hashtbl.replace tally outcome (c + 1, f + members);
            expensive :=
              ( Option.value ~default:"?" (member_str "rep" d),
                outcome,
                Option.value ~default:0 (member_int "cost" d) )
              :: !expensive
          end
          else if
            Hft_util.Json.member "test" d <> None
            && Hft_util.Json.member "type" d = None
          then incr tests)
        docs;
      let assoc = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally [] in
      Ok
        {
          off_source = "ledger";
          off_classes = !classes;
          off_faults = !faults;
          off_waterfall = tally_of assoc;
          off_tests = !tests;
          off_expensive =
            List.sort
              (fun (_, _, a) (_, _, b) -> compare b a)
              (List.rev !expensive);
          off_phases = [];
          off_shard = None;
        }
    end
    else begin
      (* Journal tape. *)
      let resolved : (int, string * int) Hashtbl.t = Hashtbl.create 64 in
      let tests = ref 0 in
      let saw_event = ref false in
      (* Σ elapsed ms per phase name, first-seen order, summed in tape
         order. *)
      let phases = ref [] in
      let shard = ref None in
      List.iter
        (fun d ->
          match member_str "type" d with
          | Some "phase_end" ->
            saw_event := true;
            (match (member_str "name" d, member_float "elapsed_ms" d) with
             | Some name, Some e ->
               phases :=
                 if List.mem_assoc name !phases then
                   List.map
                     (fun (n, t) -> if n = name then (n, t +. e) else (n, t))
                     !phases
                 else !phases @ [ (name, e) ]
             | _ -> ())
          | Some "shard_stats" ->
            saw_event := true;
            if !shard = None then shard := Some d
          | Some "class_resolved" ->
            saw_event := true;
            (match member_int "class" d with
             | Some cls ->
               Hashtbl.replace resolved cls
                 ( Option.value ~default:"?" (member_str "outcome" d),
                   Option.value ~default:0 (member_int "faults" d) )
             | None -> ())
          | Some "test_generated" ->
            saw_event := true;
            incr tests
          | Some _ -> saw_event := true
          | None -> ())
        docs;
      if not !saw_event then Error "not a journal or ledger tape"
      else begin
        (* Totals come from the resolutions themselves: the Collapse
           event on the tape describes the full fault universe, not the
           sampled class space the campaign actually targeted (that
           registration is ledger-only).  A class the window never saw
           resolve is therefore absent, not never_targeted — only
           ledger tapes carry never-targeted rows. *)
        let tally = Hashtbl.create 8 in
        let res_classes = ref 0 and res_faults = ref 0 in
        Hashtbl.iter
          (fun _ (outcome, members) ->
            incr res_classes;
            res_faults := !res_faults + members;
            let c, f =
              Option.value ~default:(0, 0) (Hashtbl.find_opt tally outcome)
            in
            Hashtbl.replace tally outcome (c + 1, f + members))
          resolved;
        let assoc = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally [] in
        Ok
          {
            off_source = "journal";
            off_classes = !res_classes;
            off_faults = !res_faults;
            off_waterfall = tally_of assoc;
            off_tests = !tests;
            off_expensive = [];
            off_phases = !phases;
            off_shard = !shard;
          }
      end
    end

let offline_waterfall_json off =
  let open Hft_util.Json in
  Obj
    (("classes", Int off.off_classes)
     :: ("faults", Int off.off_faults)
     :: List.map
          (fun (k, (c, f)) ->
            (k, Obj [ ("classes", Int c); ("faults", Int f) ]))
          off.off_waterfall)

let shard_brief d =
  let num k def = Option.value ~default:def (member_float k d) in
  Printf.sprintf
    "scheduler: jobs %.0f · tasks %.0f · steals %.0f · spec hit/miss \
     %.0f/%.0f · utilization %.1f%%"
    (num "jobs" 1.0) (num "tasks" 0.0) (num "steals" 0.0)
    (num "spec_hits" 0.0) (num "spec_misses" 0.0)
    (100.0 *. num "utilization" 0.0)
