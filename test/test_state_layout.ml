(* The flat interned state store (DESIGN.md §11): the intern table's
   slot contract under churn, packed dirty keys, the dense level array
   of [State] against a per-height model under random activation
   sequences, run fingerprints, and the legacy layout directive in the
   trace codec. *)

module R = Geometry.Rect
module St = Drtree.State
module Intern = Drtree.Intern
module Dirty = Drtree.Dirty
module Trace = Mck.Trace
module Fuzz = Mck.Fuzz

let check_bool msg expected actual = Alcotest.(check bool) msg expected actual

(* --- Intern table: qcheck slot contract ---------------------------------- *)

(* Dense assignment: n distinct interns with no releases occupy exactly
   slots 0..n-1, in first-sight order. *)
let intern_dense =
  QCheck2.Test.make ~name:"intern hands out dense slots in first-sight order"
    ~count:100
    QCheck2.Gen.(list_size (int_range 0 50) (int_range 0 1000))
    (fun ids ->
      let t = Intern.create ~capacity:1 () in
      let expected = ref [] in
      List.iter
        (fun id ->
          let fresh = not (Intern.mem t id) in
          let slot = Intern.intern t id in
          if fresh then begin
            if slot <> Intern.live t - 1 then
              QCheck2.Test.fail_reportf
                "fresh id %d got slot %d, want next dense slot %d" id slot
                (Intern.live t - 1);
            expected := (id, slot) :: !expected
          end)
        ids;
      let distinct = List.length !expected in
      if Intern.live t <> distinct then
        QCheck2.Test.fail_reportf "live %d <> distinct ids %d" (Intern.live t)
          distinct;
      if Intern.capacity t <> distinct then
        QCheck2.Test.fail_reportf "capacity %d <> distinct ids %d"
          (Intern.capacity t) distinct;
      true)

(* The full churn contract, against a model: random intern/release
   sequences must keep (a) live slots stable (an id's slot never moves
   while live), (b) the live map injective (a freed slot is never
   handed out while some live id still maps to it), and (c) both
   directions round-tripping. *)
let intern_churn =
  QCheck2.Test.make
    ~name:"slots stable, never aliased, round-tripping across churn"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 120) (pair bool (int_range 0 40)))
    (fun ops ->
      let t = Intern.create ~capacity:4 () in
      let model = Hashtbl.create 16 (* id -> slot, live entries only *) in
      List.iter
        (fun (is_intern, id) ->
          if is_intern then begin
            let slot = Intern.intern t id in
            (match Hashtbl.find_opt model id with
            | Some old when old <> slot ->
                QCheck2.Test.fail_reportf
                  "live id %d moved from slot %d to %d" id old slot
            | Some _ -> ()
            | None ->
                Hashtbl.iter
                  (fun id' slot' ->
                    if slot' = slot then
                      QCheck2.Test.fail_reportf
                        "slot %d of live id %d aliased to id %d" slot id' id)
                  model;
                Hashtbl.replace model id slot);
            match Intern.resolve t slot with
            | Some id' when id' = id -> ()
            | other ->
                QCheck2.Test.fail_reportf
                  "resolve (intern %d) = %s, want Some %d" id
                  (match other with
                  | None -> "None"
                  | Some i -> Printf.sprintf "Some %d" i)
                  id
          end
          else begin
            Intern.release t id;
            Hashtbl.remove model id;
            if Intern.find t id <> None then
              QCheck2.Test.fail_reportf "released id %d still found" id
          end)
        ops;
      if Intern.live t <> Hashtbl.length model then
        QCheck2.Test.fail_reportf "live %d <> model %d" (Intern.live t)
          (Hashtbl.length model);
      Hashtbl.iter
        (fun id slot ->
          if Intern.find t id <> Some slot then
            QCheck2.Test.fail_reportf "id %d lost its slot %d" id slot;
          if Intern.resolve t slot <> Some id then
            QCheck2.Test.fail_reportf "slot %d lost its id %d" slot id)
        model;
      (* iter agrees with the model and visits in slot order. *)
      let seen = ref [] in
      Intern.iter t (fun id slot -> seen := (id, slot) :: !seen);
      let seen = List.rev !seen in
      if List.length seen <> Hashtbl.length model then
        QCheck2.Test.fail_reportf "iter visited %d, model has %d"
          (List.length seen) (Hashtbl.length model);
      ignore
        (List.fold_left
           (fun prev (_, slot) ->
             if slot <= prev then
               QCheck2.Test.fail_reportf "iter out of slot order at %d" slot;
             slot)
           (-1) seen);
      true)

let test_intern_negative_id () =
  let t = Intern.create () in
  (try
     ignore (Intern.intern t (-1));
     Alcotest.fail "negative id must be rejected"
   with Invalid_argument _ -> ());
  check_bool "find tolerates negative ids" true (Intern.find t (-3) = None);
  check_bool "resolve tolerates wild slots" true (Intern.resolve t 99 = None)

(* --- Packed dirty keys --------------------------------------------------- *)

let dirty_pack_round_trip =
  QCheck2.Test.make ~name:"packed (id, height) keys mark, mem and drain sorted"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 60) (pair (int_range 0 5000) (int_range (-2) 40)))
    (fun entries ->
      let d = Dirty.create () in
      let expect = Hashtbl.create 16 in
      List.iter
        (fun (p, h) ->
          Dirty.mark d p h;
          if h >= 0 then Hashtbl.replace expect (p, h) ())
        entries;
      List.iter
        (fun (p, h) ->
          if h >= 0 && not (Dirty.mem d p h) then
            QCheck2.Test.fail_reportf "marked (%d, %d) not found" p h)
        entries;
      if Dirty.cardinal d <> Hashtbl.length expect then
        QCheck2.Test.fail_reportf "cardinal %d <> %d" (Dirty.cardinal d)
          (Hashtbl.length expect);
      let drained = Dirty.drain d in
      if List.length drained <> Hashtbl.length expect then
        QCheck2.Test.fail_reportf "drained %d <> %d" (List.length drained)
          (Hashtbl.length expect);
      List.iter
        (fun (p, h) ->
          if not (Hashtbl.mem expect (p, h)) then
            QCheck2.Test.fail_reportf "drain invented (%d, %d)" p h)
        drained;
      (* Deterministic lexicographic order: the packed-int sort must
         equal sorting the pairs. *)
      if drained <> List.sort compare drained then
        QCheck2.Test.fail_reportf "drain not in (id, height) order";
      if not (Dirty.is_empty d) then QCheck2.Test.fail_reportf "drain left dirt";
      true)

(* --- State: the dense level array against a model ------------------------ *)

(* Drive a [State] and a per-height model (a table holding exactly the
   active levels) through the same random activate/deactivate/write
   sequence; every observation must agree. In particular re-activation
   must see fresh cells, not the stale spares left above [top]. *)
type model_level = {
  m_children : Sim.Node_id.Set.t;
  m_parent : int;
  m_underloaded : bool;
}

let state_matches_model =
  QCheck2.Test.make ~name:"levels match a per-height model"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 40) (pair (int_range 0 3) (int_range 0 12)))
    (fun ops ->
      let id = 7 in
      let filter = R.make2 ~x0:1.0 ~y0:2.0 ~x1:3.0 ~y1:4.0 in
      let fresh =
        { m_children = Sim.Node_id.Set.empty; m_parent = id;
          m_underloaded = false }
      in
      let s = St.create ~id ~filter () in
      let model = Hashtbl.create 8 and top = ref 0 in
      Hashtbl.replace model 0 fresh;
      let apply (op, h) =
        match op with
        | 0 ->
            ignore (St.activate s h);
            for h' = 0 to h do
              if not (Hashtbl.mem model h') then Hashtbl.replace model h' fresh
            done;
            top := max !top h
        | 1 ->
            St.deactivate_above s h;
            for h' = max h 0 + 1 to !top do
              Hashtbl.remove model h'
            done;
            top := min !top (max h 0)
        | 2 -> (
            match St.level s h with
            | Some l ->
                let children = Sim.Node_id.Set.of_list [ h; h + 1 ] in
                l.St.parent <- h + 100;
                l.St.children <- children;
                let m = Hashtbl.find model h in
                Hashtbl.replace model h
                  { m with m_children = children; m_parent = h + 100 }
            | None -> ())
        | _ -> (
            match St.level s h with
            | Some l ->
                l.St.underloaded <- not l.St.underloaded;
                let m = Hashtbl.find model h in
                Hashtbl.replace model h
                  { m with m_underloaded = not m.m_underloaded }
            | None -> ())
      in
      List.iter
        (fun op ->
          apply op;
          if St.top s <> !top then
            QCheck2.Test.fail_reportf "top %d, model %d" (St.top s) !top;
          for h = -1 to !top + 2 do
            if St.is_active s h <> Hashtbl.mem model h then
              QCheck2.Test.fail_reportf "activity at %d differs" h;
            match (St.level s h, Hashtbl.find_opt model h) with
            | None, None -> ()
            | Some l, Some m ->
                if
                  not
                    (Sim.Node_id.Set.equal l.St.children m.m_children
                    && l.St.parent = m.m_parent
                    && l.St.underloaded = m.m_underloaded
                    && R.equal l.St.mbr filter)
                then QCheck2.Test.fail_reportf "level %d differs" h
            | _ -> QCheck2.Test.fail_reportf "presence at %d differs" h
          done;
          let words =
            Hashtbl.fold
              (fun _ m acc -> acc + Sim.Node_id.Set.cardinal m.m_children + 6)
              model 0
          in
          if St.memory_words s <> words then
            QCheck2.Test.fail_reportf "memory_words %d, model %d"
              (St.memory_words s) words;
          let root =
            (Hashtbl.find model !top).m_parent = id
          in
          if St.is_root s (St.top s) <> root then
            QCheck2.Test.fail_reportf "is_root differs")
        ops;
      true)

(* --- Run fingerprints ----------------------------------------------------- *)

(* The counter fingerprint is deterministic in the trace, and a
   genuinely different run is distinguished: one extra prelude join
   must show up in the message counters. *)
let test_fingerprints_distinguish () =
  let rng = Sim.Rng.make 33_000 in
  let tr = Fuzz.random_trace rng () in
  let _, _, fp = Fuzz.run_trace_full ~probes:2 tr in
  let _, _, fp_again = Fuzz.run_trace_full ~probes:2 tr in
  check_bool "same trace, same fingerprint" true (fp = fp_again);
  let tr' =
    { tr with Trace.prelude = tr.Trace.prelude @ [ Fuzz.random_rect rng ] }
  in
  let _, _, fp' = Fuzz.run_trace_full ~probes:2 tr' in
  check_bool "a perturbed run is distinguished" true (fp <> fp')

(* --- Trace codec: the legacy layout directive ----------------------------- *)

(* Traces saved while the state store had two layouts carry a
   [layout hashed|flat] line. Both still parse, the line is dropped on
   re-serialization, and the trace replays to exactly the fingerprint
   of the same text without it. *)
let test_legacy_layout_directive () =
  let tr =
    Fuzz.random_trace (Sim.Rng.make 34_000) ~transport:Trace.Wire ~drop:0.1 ()
  in
  let text = Trace.to_string tr in
  let with_layout kind =
    String.concat "\n"
      (List.concat_map
         (fun l ->
           if String.starts_with ~prefix:"scheduler " l then
             [ l; "layout " ^ kind ]
           else [ l ])
         (String.split_on_char '\n' text))
  in
  let replay text =
    match Trace.of_string text with
    | Ok t -> t
    | Error e -> Alcotest.failf "legacy trace rejected: %s" e
  in
  let fingerprint t =
    let outcome, summary, fp = Fuzz.run_trace_full ~probes:2 t in
    Format.asprintf "%s | %a | %a"
      (match outcome with
      | Fuzz.Passed -> "passed"
      | Fuzz.Failed f -> Format.asprintf "%a" Fuzz.pp_failure f)
      Fuzz.pp_summary summary Fuzz.pp_fingerprint fp
  in
  let base = fingerprint (replay text) in
  List.iter
    (fun kind ->
      let legacy = with_layout kind in
      check_bool ("text carries layout " ^ kind) true (legacy <> text);
      let t = replay legacy in
      Alcotest.(check string)
        ("layout " ^ kind ^ " line dropped on re-serialization")
        text (Trace.to_string t);
      Alcotest.(check string)
        ("layout " ^ kind ^ " replays to the same fingerprint")
        base (fingerprint t))
    [ "hashed"; "flat" ];
  check_bool "unknown layout rejected" true
    (Result.is_error (Trace.of_string "drtree-trace v1\nlayout bogus\nend\n"))

let () =
  Alcotest.run "state-layout"
    [
      ( "intern",
        [
          QCheck_alcotest.to_alcotest intern_dense;
          QCheck_alcotest.to_alcotest intern_churn;
          Alcotest.test_case "invalid inputs" `Quick test_intern_negative_id;
        ] );
      ("dirty", [ QCheck_alcotest.to_alcotest dirty_pack_round_trip ]);
      ("state", [ QCheck_alcotest.to_alcotest state_matches_model ]);
      ( "differential",
        [
          Alcotest.test_case "fingerprints distinguish real divergence" `Quick
            test_fingerprints_distinguish;
        ] );
      ( "codec",
        [
          Alcotest.test_case "legacy layout directive is ignored" `Quick
            test_legacy_layout_directive;
        ] );
    ]
