(* Self-test of the benchmark's output checks: each check is fed a
   hand-built failing case and must count it as a failed op, so no
   check can pass vacuously. Then each workload runs briefly at a small
   size, untraced and traced, and must pass every check with identical
   schedule fingerprints. *)

open Drbench
module O = Drtree.Overlay
module S = Sim.Node_id.Set

let report ~fn =
  {
    O.event_id = 7;
    matched = S.of_list [ 1; 2; 3 ];
    delivered = S.of_list (List.filteri (fun i _ -> i >= fn) [ 1; 2; 3 ]);
    received = S.of_list [ 1; 2; 3; 4 ];
    false_positives = 1;
    false_negatives = fn;
    messages = 5;
    max_hops = 2;
  }

let failed f =
  let t = Check.tally () in
  f t;
  t.Check.failed

let check_fails name f = Alcotest.(check bool) name true (failed f > 0)
let check_passes name f = Alcotest.(check int) name 0 (failed f)

let test_publish () =
  check_passes "no false negative" (fun t -> Check.publish t (report ~fn:0));
  check_fails "a false negative" (fun t -> Check.publish t (report ~fn:1))

let test_agg () =
  let agg t ~result ~oracle = Check.agg_result t ~qid:3 ~epoch:5 ~result ~oracle in
  check_passes "exact, current epoch" (fun t ->
      agg t ~result:(Some (5, Some 42.0)) ~oracle:(Some (Some 42.0)));
  check_passes "empty match set" (fun t ->
      agg t ~result:(Some (5, None)) ~oracle:(Some None));
  check_fails "off by one" (fun t ->
      agg t ~result:(Some (5, Some 43.0)) ~oracle:(Some (Some 42.0)));
  check_fails "stale epoch" (fun t ->
      agg t ~result:(Some (4, Some 42.0)) ~oracle:(Some (Some 42.0)));
  check_fails "no result" (fun t -> agg t ~result:None ~oracle:(Some (Some 42.0)));
  check_fails "value where the oracle has none" (fun t ->
      agg t ~result:(Some (5, Some 0.0)) ~oracle:(Some None));
  check_fails "unknown query" (fun t ->
      agg t ~result:(Some (5, Some 42.0)) ~oracle:None)

let test_heal () =
  let heal ?(rounds = 4) ?(legal = true) ?(unconfirmed = []) ?(false_kills = 0) t =
    Check.heal_cycle t ~cycle:1 ~rounds ~budget:30 ~legal ~unconfirmed ~false_kills
  in
  check_passes "converged" (fun t -> heal t);
  check_fails "an unconfirmed victim" (fun t -> heal ~unconfirmed:[ 12 ] t);
  check_fails "illegal tree" (fun t -> heal ~legal:false t);
  check_fails "over the round budget" (fun t -> heal ~rounds:31 t);
  check_fails "a false kill" (fun t -> heal ~false_kills:1 t)

let test_build () =
  let build ?(converged = true) ?(violations = 0) ?(size = 10) t =
    Check.build t ~ops:10 ~converged ~violations ~size ~expected:10
  in
  check_passes "legal" (fun t -> build t);
  Alcotest.(check int) "a violation fails every join" 10
    (failed (fun t -> build ~violations:1 t));
  check_fails "not converged" (fun t -> build ~converged:false t);
  check_fails "a lost member" (fun t -> build ~size:9 t)

let test_run_wide () =
  let t = Check.tally () in
  Check.publish t (report ~fn:0);
  Check.publish t (report ~fn:0);
  Check.zero t ~what:"decode errors" 1;
  Alcotest.(check int) "a decode error fails every op" 2 t.failed;
  check_passes "no decode error" (fun t -> Check.zero t ~what:"decode errors" 0)

let test_fingerprints () =
  let fp a = [ [ ("engine.msgs", a) ]; [ ("engine.msgs", a + 1) ] ] in
  check_passes "identical" (fun t ->
      Check.fingerprints t ~untraced:(fp 5) ~traced:(List.tl (List.rev (fp 5))));
  check_fails "a differing count" (fun t ->
      Check.fingerprints t ~untraced:(fp 5) ~traced:(fp 6));
  check_fails "nothing to compare" (fun t ->
      Check.fingerprints t ~untraced:(fp 5) ~traced:[])

(* A short untraced and traced pass of a workload at a small size. *)
let test_workload workload () =
  let pass traced =
    Span.enable traced;
    let p = Work.run ~workload ~seed:11 ~seconds:0.05 ~n:256 in
    Span.enable false;
    p
  in
  let u = pass false and t = pass true in
  List.iter
    (fun (p : Work.pass) ->
      Alcotest.(check (list string)) "no failure" [] p.tally.notes;
      Alcotest.(check int) "no failed op" 0 p.tally.failed;
      Alcotest.(check bool) "ops attempted" true (p.tally.attempted > 0))
    [ u; t ];
  check_passes "traced schedule = untraced schedule" (fun c ->
      Check.fingerprints c ~untraced:u.fingerprints ~traced:t.fingerprints)

let () =
  Alcotest.run "drbench"
    [
      ( "checks",
        [
          Alcotest.test_case "publish" `Quick test_publish;
          Alcotest.test_case "aggregate" `Quick test_agg;
          Alcotest.test_case "heal cycle" `Quick test_heal;
          Alcotest.test_case "build" `Quick test_build;
          Alcotest.test_case "run-wide" `Quick test_run_wide;
          Alcotest.test_case "fingerprints" `Quick test_fingerprints;
        ] );
      ( "workloads",
        List.map
          (fun w -> Alcotest.test_case w `Quick (test_workload w))
          Work.workloads );
    ]
