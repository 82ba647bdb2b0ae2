(* Tests for the adversarial model-checking harness (lib/mck): schedule
   strategies, the fuzz driver's determinism, the planted cover-sweep
   bug (detect -> shrink -> serialize -> replay), and the trace
   codec. *)

module O = Drtree.Overlay
module Inv = Drtree.Invariant
module R = Geometry.Rect
module P = Geometry.Point
module Schedule = Mck.Schedule
module Trace = Mck.Trace
module Fuzz = Mck.Fuzz
module Shrink = Mck.Shrink

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let rect x0 y0 x1 y1 = R.make2 ~x0 ~y0 ~x1 ~y1
let failure_str f = Format.asprintf "%a" Fuzz.pp_failure f

let outcome_str = function
  | Fuzz.Passed -> "passed"
  | Fuzz.Failed f -> failure_str f

(* --- Schedule strategies ------------------------------------------------------- *)

let build_under ?drop ?dup ~sched ~seed n =
  let ov = O.create ~seed () in
  let strat = Schedule.make ?drop ?dup ~seed:(seed * 7) sched in
  Schedule.install strat (O.engine ov);
  let rng = Sim.Rng.make (seed * 131) in
  for _ = 1 to n do
    ignore (O.join ov (Fuzz.random_rect rng))
  done;
  Schedule.uninstall (O.engine ov);
  ov

let test_fifo_matches_no_scheduler () =
  (* The FIFO strategy is the engine's own order: identical overlay. *)
  let a = build_under ~sched:Schedule.Fifo ~seed:41 30 in
  let b =
    let ov = O.create ~seed:41 () in
    let rng = Sim.Rng.make (41 * 131) in
    for _ = 1 to 30 do
      ignore (O.join ov (Fuzz.random_rect rng))
    done;
    ov
  in
  check_int "same height" (O.height b) (O.height a);
  check_bool "same adjacency" true
    (Drtree.Export.adjacency a = Drtree.Export.adjacency b)

let test_random_schedule_still_stabilizes () =
  let ov = build_under ~sched:Schedule.Random ~seed:42 40 in
  check_bool "stabilizes after reordered joins" true
    (O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov <> None)

let test_delay_checks_still_stabilizes () =
  let ov = build_under ~sched:Schedule.Delay_checks ~seed:43 40 in
  check_bool "stabilizes after check-starved joins" true
    (O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov <> None)

let test_round_robin_still_stabilizes () =
  let ov = build_under ~sched:Schedule.Round_robin ~seed:44 40 in
  check_bool "stabilizes after round-robin joins" true
    (O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov <> None)

let test_fault_counters () =
  let ov = build_under ~drop:0.2 ~dup:0.15 ~sched:Schedule.Random ~seed:45 40 in
  let eng = O.engine ov in
  check_bool "some messages lost" true (Sim.Engine.messages_lost eng > 0);
  check_bool "some messages duplicated" true
    (Sim.Engine.messages_duplicated eng > 0);
  check_bool "stabilizes afterwards" true
    (O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov <> None)

let test_duplication_budget () =
  (* The fault budget keeps hostile runs terminating; exceeding it is
     the supercritical regime (see Schedule.make). *)
  let ov = build_under ~dup:0.5 ~sched:Schedule.Random ~seed:46 40 in
  check_bool "duplications capped by the budget" true
    (Sim.Engine.messages_duplicated (O.engine ov) <= 64)

let test_kind_strings () =
  List.iter
    (fun k ->
      match Schedule.kind_of_string (Schedule.kind_to_string k) with
      | Ok k' -> check_bool "kind round-trips" true (k = k')
      | Error e -> Alcotest.fail e)
    Schedule.all_kinds;
  check_bool "unknown kind rejected" true
    (Result.is_error (Schedule.kind_of_string "zeal"))

(* --- Fuzz driver --------------------------------------------------------------- *)

let gen_trace rng mode i =
  let sched = List.nth Schedule.all_kinds (i mod 4) in
  let faulty = i mod 3 = 2 in
  Fuzz.random_trace rng
    ~nodes:(4 + (i mod 7))
    ~ops:(4 + (i mod 9))
    ~mode ~sched
    ~drop:(if faulty then 0.15 else 0.0)
    ~dup:(if faulty then 0.1 else 0.0)
    ()

let fuzz_mode name mode =
  Alcotest.test_case name `Slow (fun () ->
      let rng = Sim.Rng.make 0xf0071 in
      match Fuzz.fuzz ~traces:200 ~gen:(gen_trace rng mode) () with
      | None -> ()
      | Some (i, tr, f) ->
          Alcotest.failf "trace %d failed at %s:@.%s" i (failure_str f)
            (Trace.to_string tr))

let test_run_trace_deterministic () =
  let rng = Sim.Rng.make 0xdada in
  for i = 0 to 19 do
    let tr = gen_trace rng Trace.Shared i in
    let a = Fuzz.run_trace tr and b = Fuzz.run_trace tr in
    check_string "same trace, same outcome" (outcome_str a) (outcome_str b)
  done

let test_wire_transport_traces () =
  (* The same traces must pass with every message serialized through
     the binary codec on every hop — and produce the same verdict as
     the inproc run, since the wire transport never alters the
     schedule. A decode failure would surface as a Final failure. *)
  let rng = Sim.Rng.make 0xdada in
  for i = 0 to 19 do
    let tr = gen_trace rng Trace.Shared i in
    let inproc = Fuzz.run_trace { tr with Trace.transport = Trace.Inproc } in
    let wire = Fuzz.run_trace { tr with Trace.transport = Trace.Wire } in
    check_string "wire verdict = inproc verdict" (outcome_str inproc)
      (outcome_str wire)
  done

(* --- Golden fingerprint corpus ---------------------------------------------------- *)

(* 48 fixed-seed random traces over every default-reachable axis —
   inproc/wire x full/incremental x oracle/heartbeat x single/sharded:2,
   each combination run clean-FIFO (shared), hostile-schedule
   (message passing) and lossy (drop + dup). Each run's verdict, final
   shape and counter fingerprint must match the committed expected
   output byte for byte: any change to a schedule decision, RNG draw,
   probe count or byte accounting shows up as a diff. *)

let golden_file = "golden_fingerprints.txt"

let golden_trace i =
  let transport = if i land 1 = 0 then Trace.Inproc else Trace.Wire in
  let scheduler =
    if i land 2 = 0 then Drtree.Config.Full_sweep else Drtree.Config.Incremental
  in
  let detector =
    if i land 4 = 0 then Drtree.Config.Oracle else Drtree.Config.default_heartbeat
  in
  let forest = Drtree.Config.Sharded { shards = 1 + ((i lsr 3) land 1) } in
  let mode, sched, drop, dup =
    match i / 16 with
    | 0 -> (Trace.Shared, Schedule.Fifo, 0.0, 0.0)
    | 1 -> (Trace.Message_passing, Schedule.Random, 0.0, 0.0)
    | _ -> (Trace.Shared, Schedule.Random, 0.1, 0.05)
  in
  Fuzz.random_trace (Sim.Rng.make (0x901d + i)) ~mode ~transport ~sched ~drop
    ~dup ~scheduler ~detector ~forest ()

let golden_line i =
  let tr = golden_trace i in
  let outcome, summary, fp = Fuzz.run_trace_full ~probes:2 tr in
  Format.asprintf "%02d %s %s %s %s %s drop=%g dup=%g | %s | %a | %a" i
    (Trace.mode_to_string tr.Trace.mode)
    (Trace.transport_to_string tr.Trace.transport)
    (Drtree.Config.scheduler_to_string tr.Trace.scheduler)
    (Drtree.Config.detector_to_string tr.Trace.detector)
    (Drtree.Config.forest_to_string tr.Trace.forest)
    tr.Trace.drop tr.Trace.dup (outcome_str outcome) Fuzz.pp_summary summary
    Fuzz.pp_fingerprint fp

let read_lines file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* On a mismatch the full actual corpus is written next to the test
   binary (golden_fingerprints.actual), ready to diff against the
   committed file. *)
let test_golden_corpus () =
  let actual = List.init 48 golden_line in
  let expected = read_lines golden_file in
  if actual <> expected then begin
    let out = "golden_fingerprints.actual" in
    let oc = open_out out in
    List.iter (fun l -> output_string oc (l ^ "\n")) actual;
    close_out oc;
    let first =
      let rec go i = function
        | a :: ra, e :: re -> if a = e then go (i + 1) (ra, re) else i
        | _ -> i
      in
      go 0 (actual, expected)
    in
    Alcotest.failf "golden corpus differs from %s at line %d (actual in %s):@.\
                    want %s@.got  %s"
      golden_file (first + 1) (Filename.concat (Sys.getcwd ()) out)
      (Option.value ~default:"<missing>" (List.nth_opt expected first))
      (Option.value ~default:"<missing>" (List.nth_opt actual first))
  end

(* --- The planted cover-sweep bug ------------------------------------------------ *)

let find_planted_failure () =
  let rng = Sim.Rng.make 0xb0b in
  let gen _ =
    Fuzz.random_trace rng ~nodes:8 ~ops:8 ~mode:Trace.Shared
      ~sched:Schedule.Fifo ~cover_sweep:false ()
  in
  match Fuzz.fuzz ~traces:200 ~gen () with
  | None ->
      Alcotest.fail "planted cover-sweep bug not detected within 200 traces"
  | Some (_, tr, f) -> (tr, f)

let test_planted_bug_detect_shrink_replay () =
  let tr, _ = find_planted_failure () in
  let small, f = Shrink.shrink tr in
  check_bool "shrunk dynamic part has at most 5 ops" true
    (List.length small.Trace.ops <= 5);
  check_bool "shrinking never grows the trace" true
    (List.length small.Trace.prelude + List.length small.Trace.ops
    <= List.length tr.Trace.prelude + List.length tr.Trace.ops);
  (* Serialize, reload, re-run: the same failure must reproduce. *)
  let file = Filename.temp_file "drtree-mck" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Trace.save file small;
      match Trace.load file with
      | Error e -> Alcotest.fail e
      | Ok reloaded -> (
          check_string "codec round-trips the counterexample"
            (Trace.to_string small)
            (Trace.to_string reloaded);
          match Fuzz.run_trace reloaded with
          | Fuzz.Failed f' ->
              check_string "replay reproduces the same failure"
                (failure_str f) (failure_str f')
          | Fuzz.Passed -> Alcotest.fail "replay did not reproduce"));
  (* Control: the identical scenario with the sweep enabled is fine —
     the failure really is the planted bug, not the scenario. *)
  match Fuzz.run_trace { small with Trace.cover_sweep = true } with
  | Fuzz.Passed -> ()
  | Fuzz.Failed f ->
      Alcotest.failf "control run (sweep enabled) failed: %s" (failure_str f)

let test_planted_bug_in_mp_mode () =
  let rng = Sim.Rng.make 0xcafe in
  let gen _ =
    Fuzz.random_trace rng ~nodes:8 ~ops:8 ~mode:Trace.Message_passing
      ~sched:Schedule.Fifo ~cover_sweep:false ()
  in
  match Fuzz.fuzz ~traces:200 ~gen () with
  | None ->
      Alcotest.fail "planted bug not detected in message-passing mode"
  | Some _ -> ()

(* --- Trace codec ---------------------------------------------------------------- *)

let exemplar =
  {
    Trace.seed = 77;
    mode = Trace.Message_passing;
    transport = Trace.Wire;
    min_fill = 2;
    max_fill = 5;
    sched = Schedule.Delay_checks;
    drop = 0.125;
    dup = 0.0625;
    cover_sweep = false;
    scheduler = Drtree.Config.Incremental;
    detector = Drtree.Config.Oracle;
    forest = Drtree.Config.Sharded { shards = 3 };
    prelude = [ rect 1.5 2.25 8.75 9.125; rect 0.1 0.2 0.3 0.4 ];
    ops =
      [
        Trace.Join (rect 10.0 20.0 30.0 40.0);
        Trace.Leave 3;
        Trace.Crash 0;
        Trace.Corrupt (2, 991);
        Trace.Publish (P.make2 55.5 66.25);
        Trace.Agg_query (Drtree.Message.Sum, rect 10.0 10.0 60.0 60.0);
        Trace.Stabilize 2;
      ];
  }

let test_codec_round_trip () =
  match Trace.of_string (Trace.to_string exemplar) with
  | Ok t ->
      check_string "all fields and ops survive"
        (Trace.to_string exemplar) (Trace.to_string t)
  | Error e -> Alcotest.fail e

let test_codec_float_exactness () =
  (* %.17g must round-trip awkward floats exactly. *)
  let r = rect 0.1 (1.0 /. 3.0) (Float.pi) 97.000000000000014 in
  let t = { Trace.default with Trace.prelude = [ r ] } in
  match Trace.of_string (Trace.to_string t) with
  | Ok t' -> check_bool "bit-exact rectangle" true
      (R.equal r (List.hd t'.Trace.prelude))
  | Error e -> Alcotest.fail e

let test_codec_rejects_garbage () =
  check_bool "bad header" true
    (Result.is_error (Trace.of_string "not a trace\nseed 1\nend\n"));
  check_bool "bad op" true
    (Result.is_error
       (Trace.of_string "drtree-trace v1\nop warp 1 2 3\nend\n"));
  check_bool "bad float" true
    (Result.is_error (Trace.of_string "drtree-trace v1\ndrop zeal\nend\n"));
  check_bool "bad aggregate function" true
    (Result.is_error
       (Trace.of_string "drtree-trace v1\nop agg zeal 0 0 1 1\nend\n"))

(* A heartbeat period survives the trace codec exactly, whatever its
   digits: [detector_to_string] must not round it (a rounded period
   would replay a different schedule). *)
let codec_detector_period_exact =
  QCheck2.Test.make ~name:"heartbeat period of_string . to_string = id"
    ~count:500
    QCheck2.Gen.(
      triple
        (oneof
           [ float_range 1e-6 1e6; map (fun k -> float_of_int k /. 8.) (int_range 1 80);
             map Float.abs float ])
        (int_range 1 9) (int_range 0 5))
    (fun (period, timeout_factor, fallbacks) ->
      QCheck2.assume (Float.is_finite period && period > 0.0);
      let d =
        Drtree.Config.Heartbeat { period; timeout_factor; fallbacks }
      in
      let t = { exemplar with Trace.detector = d } in
      (match Drtree.Config.detector_of_string (Drtree.Config.detector_to_string d) with
      | Ok d' when d' = d -> ()
      | Ok _ | Error _ ->
          QCheck2.Test.fail_reportf "detector string %S does not round-trip"
            (Drtree.Config.detector_to_string d));
      match Trace.of_string (Trace.to_string t) with
      | Ok t' -> t'.Trace.detector = d
      | Error e -> QCheck2.Test.fail_reportf "trace rejected: %s" e)

let test_codec_save_load () =
  let file = Filename.temp_file "drtree-mck" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Trace.save file exemplar;
      match Trace.load file with
      | Ok t ->
          check_string "file round-trip"
            (Trace.to_string exemplar) (Trace.to_string t)
      | Error e -> Alcotest.fail e)

(* One shard has two spellings in trace files: [forest single] (what
   the codec writes) and [forest sharded:1]. Both parse to the same
   value and replay to the same verdict, shape and fingerprint. *)
let test_codec_forest_one_shard () =
  let tr =
    Fuzz.random_trace (Sim.Rng.make 46_000) ~transport:Trace.Wire ~drop:0.1 ()
  in
  let text = Trace.to_string tr in
  let sharded_1 =
    String.concat "\n"
      (List.map
         (fun l -> if l = "forest single" then "forest sharded:1" else l)
         (String.split_on_char '\n' text))
  in
  check_bool "text carries forest sharded:1" true (sharded_1 <> text);
  let replay text =
    match Trace.of_string text with
    | Ok t ->
        let outcome, summary, fp = Fuzz.run_trace_full ~probes:2 t in
        Format.asprintf "%s | %a | %a" (outcome_str outcome) Fuzz.pp_summary
          summary Fuzz.pp_fingerprint fp
    | Error e -> Alcotest.failf "trace rejected: %s" e
  in
  (match Trace.of_string sharded_1 with
  | Ok t -> check_string "re-serialized as forest single" text (Trace.to_string t)
  | Error e -> Alcotest.fail e);
  check_string "same fingerprint" (replay text) (replay sharded_1)

(* --- Shrinker ------------------------------------------------------------------- *)

let test_shrink_requires_failure () =
  let passing = { Trace.default with Trace.prelude = [ rect 0.0 0.0 5.0 5.0 ] } in
  check_bool "refuses a passing trace" true
    (match Shrink.shrink passing with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_shrink_result_still_fails () =
  let tr, _ = find_planted_failure () in
  let small, _ = Shrink.shrink tr in
  match Fuzz.run_trace small with
  | Fuzz.Failed _ -> ()
  | Fuzz.Passed -> Alcotest.fail "shrunk trace must still fail"

let () =
  Alcotest.run "mck"
    [
      ( "schedules",
        [
          Alcotest.test_case "fifo = engine order" `Quick
            test_fifo_matches_no_scheduler;
          Alcotest.test_case "random reordering stabilizes" `Quick
            test_random_schedule_still_stabilizes;
          Alcotest.test_case "delay-checks stabilizes" `Quick
            test_delay_checks_still_stabilizes;
          Alcotest.test_case "round-robin stabilizes" `Quick
            test_round_robin_still_stabilizes;
          Alcotest.test_case "loss/duplication counters" `Quick
            test_fault_counters;
          Alcotest.test_case "duplication budget" `Quick
            test_duplication_budget;
          Alcotest.test_case "kind <-> string" `Quick test_kind_strings;
        ] );
      ( "fuzz",
        [
          fuzz_mode "200 traces, shared-state mode" Trace.Shared;
          fuzz_mode "200 traces, message-passing mode" Trace.Message_passing;
          Alcotest.test_case "run_trace is deterministic" `Quick
            test_run_trace_deterministic;
          Alcotest.test_case "wire transport, same verdicts" `Quick
            test_wire_transport_traces;
          Alcotest.test_case "48-trace golden fingerprint corpus" `Quick
            test_golden_corpus;
        ] );
      ( "planted-bug",
        [
          Alcotest.test_case "detect, shrink to <= 5 ops, replay" `Slow
            test_planted_bug_detect_shrink_replay;
          Alcotest.test_case "detected in mp mode too" `Slow
            test_planted_bug_in_mp_mode;
        ] );
      ( "codec",
        [
          Alcotest.test_case "round-trip" `Quick test_codec_round_trip;
          Alcotest.test_case "float exactness" `Quick
            test_codec_float_exactness;
          Alcotest.test_case "rejects garbage" `Quick
            test_codec_rejects_garbage;
          Alcotest.test_case "save/load" `Quick test_codec_save_load;
          Alcotest.test_case "forest sharded:1 replays as single" `Quick
            test_codec_forest_one_shard;
          QCheck_alcotest.to_alcotest codec_detector_period_exact;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "refuses passing traces" `Quick
            test_shrink_requires_failure;
          Alcotest.test_case "shrunk trace still fails" `Slow
            test_shrink_result_still_fails;
        ] );
    ]
