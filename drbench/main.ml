(* Benchmark entry point: run one workload for a fixed time, check its
   outputs and print its metrics.

     main.exe --workload build|serve|heal [--seed N] [--seconds S]
              [--trace 0|1]

   With --trace 0 one untraced pass measures the end-to-end metrics.
   With --trace 1 an untraced pass and then a traced pass run on the
   same seed, each for half of the seconds: the traced pass gives the
   per-layer metrics, the two passes' per-cycle schedule fingerprints
   must agree, and the report shows span coverage and tracing
   overhead. The last line of standard output is one JSON object:
   correct, attempted, failed, metrics. *)

open Drbench
module W = Work

let default_seed = 20070625

let usage () =
  prerr_endline
    "usage: main.exe --workload build|serve|heal [--seed N] [--seconds S] \
     [--trace 0|1]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

let parse () =
  let a =
    ref { workload = ""; seed = default_seed; seconds = 30.0; trace = false }
  in
  let int_of s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        a := { !a with workload = w };
        go rest
    | "--seed" :: s :: rest ->
        a := { !a with seed = int_of s };
        go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
         | Some v when v > 0.0 -> a := { !a with seconds = v }
         | _ -> usage ());
        go rest
    | "--trace" :: t :: rest ->
        (match t with
         | "0" -> a := { !a with trace = false }
         | "1" -> a := { !a with trace = true }
         | _ -> usage ());
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem !a.workload W.workloads) then usage ();
  !a

(* --- metrics ---------------------------------------------------------------- *)

let finite x = if Float.is_finite x then x else 0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Messages per event and false-positive percentage of the publishes
   counted by [get]. *)
let per_event get =
  let pubs = get "dissemination.publishes" in
  ( ratio (get "dissemination.msgs") pubs,
    100.0 *. ratio (get "dissemination.fp_share") pubs )

(* The end-to-end metrics: each is measured on every workload (see
   README.md for what each one measures where). *)
let end_to_end (p : W.pass) =
  (* heal: dissemination on the fresh tree, see README.md *)
  let msgs_per_event, fp_pct =
    per_event
      (match p.fresh with
       | Some t -> fun name -> Option.value ~default:0.0 (Hashtbl.find_opt t name)
       | None -> W.counted p)
  in
  [
    ("setup_s", "s", W.median p.setup_s);
    ( "peak_heap_mb", "MiB",
      float_of_int (p.heap_words * (Sys.word_size / 8)) /. 1048576.0 );
    ("build_words_per_join", "words", W.mean (W.first p p.build_words));
    ("join_msgs_per_join", "msgs", W.mean (W.first p p.build_msgs));
    ("publish_msgs_per_event", "msgs", msgs_per_event);
    ("fp_pct", "%", fp_pct);
    ("cycle_rounds", "rounds", W.mean (W.first p p.cycle_rounds));
    ("cycle_msgs", "msgs", W.mean (W.first p p.cycle_msgs));
    ("cycle_words", "words", W.mean (W.first p p.cycle_words));
  ]

(* Host times of the timed phase. On a shared host they drift by a
   quarter between runs minutes apart, so they are reported, and are
   per-layer metrics of a traced run, but are not gated end to end. *)
let host_times (p : W.pass) =
  [
    ("host.publish_per_s", "publishes/s", ratio 1.0 (W.median p.publish_s));
    ("host.quiet_round_s", "s", W.median p.quiet_s);
    ("host.cycle_s", "s", W.median p.cycle_s);
  ]

(* The named metrics of each workload's own claim. *)
let headline (p : W.pass) =
  let cycles = float_of_int (List.length p.cycle_s) in
  match p.workload with
  | "build" ->
      [
        ( "build_joins_per_s", "joins/s",
          ratio (float_of_int p.size) (W.median p.cycle_s) );
      ]
  | "serve" ->
      [
        ("agg_epochs_per_s", "epochs/s", ratio (float_of_int p.epochs) p.epoch_s);
        ("agg_bytes_per_epoch", "B", ratio p.agg_bytes (float_of_int p.epochs));
      ]
  | _ ->
      let msgs_per_event, fp_pct = per_event (W.counted p) in
      [
        ("heal_s", "s", W.median p.cycle_s);
        ("heal_rounds", "rounds", List.fold_left max 0.0 (W.first p p.cycle_rounds));
        ( "heal_msgs_per_fault", "msgs",
          ratio (List.fold_left ( +. ) 0.0 (W.first p p.cycle_msgs))
            (List.fold_left ( +. ) 0.0 (W.first p p.cycle_faults)) );
        ("heal_publish_msgs_per_event", "msgs", msgs_per_event);
        ("heal_fp_pct", "%", fp_pct);
        ("heal_cycles", "cycles", cycles);
      ]

(* Message kinds with a per-layer traffic metric. *)
let kinds =
  [ "JOIN"; "ADD_CHILD"; "COVER_SWEEP"; "INITIATE_NEW_CONNECTION"; "PUBLISH";
    "AGG_SUBSCRIBE"; "AGG_PARTIAL"; "AGG_RESULT"; "AGG_MERGE"; "HEARTBEAT";
    "SUSPECT" ]

(* The per-layer metrics of a traced pass. Host times and allocations
   are means per call, with self time beside each; simulated counts
   are per timed cycle unless named otherwise. *)
let per_layer (p : W.pass) =
  let c = W.counted p in
  let per_cycle name = c name /. float_of_int p.min_cycles in
  let cycles = float_of_int (List.length p.cycle_s) in
  let per_call name f =
    let k = Span.key name in
    ratio (f k) (float_of_int k.calls)
  in
  let timing name =
    [
      (name ^ "_s", "s", per_call name (fun k -> k.total_s));
      (name ^ "_self_s", "s", per_call name (fun k -> k.self_s));
    ]
  in
  let words name = [ (name ^ "_words", "words", per_call name (fun k -> k.total_words)) ] in
  let calls_per_cycle name = float_of_int (Span.key name).calls /. cycles in
  let pubs = c "dissemination.publishes" in
  let rounds = c "repair.round_reports" in
  let susp = c "fd.suspicions" in
  List.concat
    [
      timing "membership.join";
      words "membership.join";
      [
        ("membership.join_msgs", "msgs", ratio (c "membership.join_msgs") (c "membership.joins"));
        ("membership.join_hops_mean", "hops", ratio (c "membership.join_hops") (c "membership.joins"));
      ];
      timing "repair.round";
      words "repair.round";
      timing "repair.stabilize";
      [
        ("repair.execs", "count", per_cycle "repair.execs");
        ("repair.skipped", "count", per_cycle "repair.skipped");
        ("repair.probes", "count", per_cycle "repair.probes");
        ("repair.queue_depth", "count", ratio (c "repair.queue_depth") rounds);
        ("repair.mbr", "count", per_cycle "repair.mbr");
        ("repair.children", "count", per_cycle "repair.children");
        ("repair.parent", "count", per_cycle "repair.parent");
        ("repair.cover", "count", per_cycle "repair.cover");
        ("repair.structure", "count", per_cycle "repair.structure");
        ("election.root_actions", "count", per_cycle "repair.root");
        ("election.roots", "count", float_of_int p.roots);
      ];
      timing "dissemination.publish";
      words "dissemination.publish";
      [
        ("dissemination.msgs", "msgs", ratio (c "dissemination.msgs") pubs);
        ("dissemination.fp", "count", ratio (c "dissemination.fp") pubs);
        ("dissemination.fn", "count", ratio (c "dissemination.fn") pubs);
        ("dissemination.max_hops", "hops", c "dissemination.max_hops");
        ( "dissemination.precision", "ratio",
          ratio (c "dissemination.delivered") (c "dissemination.received") );
      ];
      timing "invariant.check";
      [ ("invariant.checks", "count", per_cycle "invariant.checks") ];
      timing "codec.encode";
      timing "codec.decode";
      [
        ("codec.encodes", "count", calls_per_cycle "codec.encode");
        ("codec.decodes", "count", calls_per_cycle "codec.decode");
        ("codec.bytes", "B", per_cycle "codec.bytes");
        ("codec.decode_errors", "count", W.counter "codec.decode_errors");
      ];
      timing "agg.inject";
      timing "agg.epoch";
      timing "agg.repair";
      [
        ("agg.repair_calls", "count", calls_per_cycle "agg.repair");
        ("agg.sent", "count", per_cycle "agg.sent");
        ("agg.suppressed", "count", per_cycle "agg.suppressed");
        ( "agg.suppression_ratio", "ratio",
          ratio (c "agg.suppressed") (c "agg.sent" +. c "agg.suppressed") );
        ("agg.merges", "count", per_cycle "agg.merges");
        ("agg.stale_dropped", "count", per_cycle "agg.stale_dropped");
        ("agg.inexact", "count", c "agg.inexact");
      ];
      timing "fd.tick";
      [
        ("fd.waves", "count", per_cycle "fd.waves");
        ("fd.suspicions", "count", per_cycle "fd.suspicions");
        ("fd.false_suspicions", "count", per_cycle "fd.false_suspicions");
        ( "fd.suspicion_precision", "ratio",
          ratio (susp -. c "fd.false_suspicions") susp );
        ("fd.confirms", "count", per_cycle "fd.confirms");
        ("fd.false_kills", "count", c "fd.false_kills");
        ( "fd.heartbeat_msgs", "msgs",
          per_cycle "traffic.HEARTBEAT.msgs" +. per_cycle "traffic.SUSPECT.msgs" );
        ( "fd.heartbeat_bytes", "B",
          per_cycle "traffic.HEARTBEAT.bytes" +. per_cycle "traffic.SUSPECT.bytes" );
      ];
      [
        ("engine.events", "count", per_cycle "engine.events");
        ("engine.msgs", "msgs", per_cycle "engine.msgs");
        ("engine.self_msgs", "msgs", per_cycle "engine.self_msgs");
        ("engine.bytes", "B", per_cycle "engine.bytes");
        ("gc.minor_words", "words", per_cycle "gc.minor_words");
        ("gc.major_words", "words", per_cycle "gc.major_words");
        ("gc.major_collections", "count", per_cycle "gc.major_collections");
      ];
      List.concat_map
        (fun k ->
          [
            ("traffic." ^ k ^ ".msgs", "msgs", per_cycle ("traffic." ^ k ^ ".msgs"));
            ("traffic." ^ k ^ ".bytes", "B", per_cycle ("traffic." ^ k ^ ".bytes"));
          ])
        kinds;
      [ ("trace.coverage_pct", "%", 100.0 *. ratio p.covered_s p.timed_s) ];
    ]

(* --- output ----------------------------------------------------------------- *)

let pr fmt = Printf.printf (fmt ^^ "\n%!")

let print_metrics title l =
  pr "%s" title;
  List.iter (fun (name, unit, v) -> pr "  %-34s %16.6g %s" name v unit) l

let json ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name (finite v) unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

let run_pass a ~traced ~seconds =
  Span.enable traced;
  let p =
    W.run ~workload:a.workload ~seed:a.seed ~seconds
      ~n:(W.default_n a.workload)
  in
  Span.enable false;
  p

let report_tally (p : W.pass) =
  pr "ops: %d attempted, %d failed" p.tally.attempted p.tally.failed;
  List.iter (fun s -> pr "  FAILED %s" s) (List.rev p.tally.notes)

(* setup_s and the host times: the metrics tracing can slow down. *)
let timings p = List.filter (fun (n, _, _) -> n = "setup_s") (end_to_end p) @ host_times p

let () =
  let a = parse () in
  pr "host: nproc %d, OCaml %s, word size %d bits"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.word_size;
  pr "workload %s, seed %d, %g s, trace %b" a.workload a.seed a.seconds a.trace;
  (* a traced run's two passes share the time *)
  let seconds = if a.trace then a.seconds /. 2.0 else a.seconds in
  let p = run_pass a ~traced:false ~seconds in
  let e2e = end_to_end p in
  pr "untraced pass: %d cycles, N = %d" (List.length p.cycle_s) p.size;
  print_metrics "end-to-end metrics:" e2e;
  pr "  set-ups: %s s"
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") p.setup_s));
  print_metrics "host times (not gated):" (host_times p);
  print_metrics "workload metrics:" (headline p);
  report_tally p;
  if not a.trace then begin
    let t = p.tally in
    print_endline
      (json ~correct:(t.failed = 0) ~attempted:t.attempted ~failed:t.failed e2e)
  end
  else begin
    let q = run_pass a ~traced:true ~seconds in
    pr "traced pass: %d cycles" (List.length q.cycle_s);
    report_tally q;
    let t = Check.tally () in
    Check.fingerprints t ~untraced:p.fingerprints ~traced:q.fingerprints;
    pr "schedule fingerprint: %d cycles compared, %s"
      (min (List.length p.fingerprints) (List.length q.fingerprints))
      (if t.failed = 0 then "identical" else "MISMATCH");
    (* the host times are the untraced pass's: free of tracing overhead *)
    let layer = per_layer q @ host_times p in
    print_metrics "per-layer metrics (traced pass; host.* untraced):" layer;
    pr "coverage: top-level layer spans cover %.1f%% of %.3f s timed wall time"
      (100.0 *. ratio q.covered_s q.timed_s)
      q.timed_s;
    pr "tracing overhead (traced - untraced):";
    List.iter2
      (fun (name, unit, u) (_, _, tr) ->
        pr "  %-34s %+14.6g %s (%+.1f%%)" name (tr -. u) unit
          (100.0 *. ratio (tr -. u) u))
      (timings p) (timings q);
    pr "span edges (parent -> child: calls):";
    List.iter (fun (pa, ch, k) -> pr "  %s -> %s: %d" pa ch k) (Span.edge_list ());
    let attempted = p.tally.attempted + q.tally.attempted in
    let failed = p.tally.failed + q.tally.failed + t.failed in
    print_endline (json ~correct:(failed = 0) ~attempted ~failed layer)
  end
