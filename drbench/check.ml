(* Output checks. Each check judges one op (a join batch, a publish, a
   (query, epoch) result, a heal cycle) against a guarantee of the
   paper and tallies it; a failed check is a failed op. The checks are
   pure functions of what the program returned, so the self-test can
   feed each one a hand-built failing case. *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** first few failure descriptions *)
}

let tally () = { attempted = 0; failed = 0; notes = [] }

let record t ~ops ok what =
  t.attempted <- t.attempted + ops;
  if not ok then begin
    t.failed <- t.failed + ops;
    if List.length t.notes < 8 then t.notes <- what () :: t.notes
  end

(* Zero false negatives: every subscriber whose filter contains the
   event received it (the paper's first guarantee). *)
let publish t (r : Drtree.Overlay.publish_report) =
  record t ~ops:1 (r.false_negatives = 0) (fun () ->
      Printf.sprintf "event %d: %d false negatives" r.event_id
        r.false_negatives)

(* A tct = 0 standing query over integer readings must report, for the
   epoch just evaluated, exactly the value recomputed from the raw
   reading log. *)
let agg_result t ~qid ~epoch ~result ~oracle =
  let ok =
    match (result, oracle) with
    | Some (e, v), Some expect -> e = epoch && v = expect
    | _ -> false
  in
  record t ~ops:1 ok (fun () ->
      let pv = function
        | None -> "none"
        | Some v -> Printf.sprintf "%g" v
      in
      Printf.sprintf "query %d epoch %d: got %s, oracle %s" qid epoch
        (match result with
         | None -> "no result"
         | Some (e, v) -> Printf.sprintf "epoch %d value %s" e (pv v))
        (match oracle with None -> "unknown" | Some v -> pv v))

(* A heal cycle converged: the tree is legal and the failure detector
   confirmed every silently crashed victim, within the round budget. *)
let heal_cycle t ~cycle ~rounds ~budget ~legal ~unconfirmed ~false_kills =
  record t ~ops:1
    (rounds <= budget && legal && unconfirmed = [] && false_kills = 0)
    (fun () ->
      Printf.sprintf
        "cycle %d: %d rounds (budget %d), legal %b, %d unconfirmed, %d false \
         kills"
        cycle rounds budget legal (List.length unconfirmed) false_kills)

(* A built tree: [stabilize] converged, Definition 3.1 holds and every
   joined process is a member. Charged to the [ops] joins it holds. *)
let build t ~ops ~converged ~violations ~size ~expected =
  record t ~ops
    (converged && violations = 0 && size = expected)
    (fun () ->
      Printf.sprintf "build: converged %b, %d violations, size %d of %d"
        converged violations size expected)

(* A run-wide guarantee, judged once at the end of a pass: when it
   does not hold, no op of the pass can be trusted and all of them
   fail. *)
let run_wide t ok what =
  if not ok then begin
    t.attempted <- max 1 t.attempted;
    t.failed <- t.attempted;
    if List.length t.notes < 8 then t.notes <- what () :: t.notes
  end

(* A run-wide count that must stay zero (decode errors, violations of
   the legal state at the end). *)
let zero t ~what n = run_wide t (n = 0) (fun () -> Printf.sprintf "%s = %d" what n)

(* Traced and untraced runs of one seed must yield the same simulated
   counts after every cycle both completed: the outside wrappers may
   not change the schedule. Compares the common prefix. *)
let fingerprints t ~untraced ~traced =
  let rec common a b =
    match (a, b) with
    | x :: a, y :: b -> (x, y) :: common a b
    | _ -> []
  in
  let pairs = common untraced traced in
  let bad = List.filter (fun (x, y) -> x <> y) pairs in
  run_wide t
    (pairs <> [] && bad = [])
    (fun () ->
      if pairs = [] then "no cycle to compare traced and untraced counts"
      else
        Printf.sprintf "schedule fingerprint differs in %d of %d cycles"
          (List.length bad) (List.length pairs))
