(* The three workloads. Each is closed loop from one client: every
   call into the overlay returns only after the engine drained.
   Inputs derive from the seed alone. One pass sets the workload up
   several times (reporting the median), then runs timed cycles for
   [seconds], checking outputs as it goes; the checks themselves are
   not timed.

   When [Span.enabled] is set, every call into a layer below goes
   through [Span.time] and the wire codec, the aggregation repair hook
   and the failure-detector round hook are re-installed as timed
   wrappers of the same functions. The schedule does not change: the
   per-cycle fingerprints of a traced and an untraced pass must
   agree. *)

module O = Drtree.Overlay
module Inv = Drtree.Invariant
module Tele = Drtree.Telemetry
module Cfg = Drtree.Config
module Msg = Drtree.Message
module Engine = Sim.Engine
module Rng = Sim.Rng
module R = Geometry.Rect
module P = Geometry.Point

let space = Workload.Space.default
let now = Sim.Clock.now

(* The seed of the [k]-th input stream of a run seeded with [seed]:
   streams of different run seeds never coincide (for k < 16). *)
let derive seed k = (seed * 16) + k

let default_n = function
  | "build" -> 65536
  | "serve" -> 16384
  | "heal" -> 8192
  | w -> invalid_arg ("unknown workload " ^ w)

let workloads = [ "build"; "serve"; "heal" ]

(* Heal cycles: 1% of the processes crash silently, another 1% have
   their state corrupted, and as many fresh subscribers join. *)
let fault_fraction = 0.01
let heal_round_budget = 30

(* Publish batches of [g * g] events: after each build, in each serve
   tick, after each heal cycle, and on each freshly built heal tree. *)
let grid_build = 10
let grid_serve = 6
let grid_heal = 8
let grid_fresh = 16

(* --- simulated counters ---------------------------------------------------- *)

(* Summed over a pass from the return values and counters of the
   layers; identical in traced and untraced passes. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let count name v =
  Hashtbl.replace counters name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)

(* --- layer calls ----------------------------------------------------------- *)

let k_join = Span.key "membership.join"
let k_round = Span.key "repair.round"
let k_stabilize = Span.key "repair.stabilize"
let k_publish = Span.key "dissemination.publish"
let k_check = Span.key "invariant.check"
let k_encode = Span.key "codec.encode"
let k_decode = Span.key "codec.decode"
let k_inject = Span.key "agg.inject"
let k_epoch = Span.key "agg.epoch"
let k_agg_repair = Span.key "agg.repair"
let k_fd_tick = Span.key "fd.tick"

let msgs ov = Engine.messages_sent (O.engine ov)

(* Frame bytes the traced wire codec has produced (traced passes only). *)
let frame_bytes = ref 0

let join ov r =
  let m0 = msgs ov in
  let id = Span.time k_join (fun () -> O.join ov r) in
  count "membership.joins" 1.0;
  count "membership.join_msgs" (float_of_int (msgs ov - m0));
  count "membership.join_hops" (float_of_int (O.last_join_hops ov));
  id

let is_legal ov =
  count "invariant.checks" 1.0;
  Span.time k_check (fun () -> Inv.is_legal ov)

let violations ov =
  count "invariant.checks" 1.0;
  Span.time k_check (fun () -> List.length (Inv.check ov))

let round ov =
  Span.time k_round (fun () -> O.stabilize_round ov)

let stabilize ov =
  Span.time k_stabilize (fun () ->
      O.stabilize ~max_rounds:100 ~legal:is_legal ov)

let publish ov ~from p =
  let r = Span.time k_publish (fun () -> O.publish ov ~from p) in
  count "dissemination.publishes" 1.0;
  count "dissemination.msgs" (float_of_int r.O.messages);
  count "dissemination.fp" (float_of_int r.O.false_positives);
  count "dissemination.fn" (float_of_int r.O.false_negatives);
  count "dissemination.delivered"
    (float_of_int (Sim.Node_id.Set.cardinal r.O.delivered));
  count "dissemination.received"
    (float_of_int (Sim.Node_id.Set.cardinal r.O.received));
  count "dissemination.fp_share"
    (float_of_int r.O.false_positives /. float_of_int (max 1 (O.size ov)));
  if float_of_int r.O.max_hops > counter "dissemination.max_hops" then
    Hashtbl.replace counters "dissemination.max_hops"
      (float_of_int r.O.max_hops);
  r

(* The wire transport; traced passes time every encode and decode. *)
let transport () =
  if not !Span.enabled then Msg.Codec.transport
  else
    Sim.Transport.wire
      {
        Sim.Transport.encode =
          (fun m ->
            Span.leaf k_encode (fun () ->
                let s = Msg.Codec.encode m in
                frame_bytes := !frame_bytes + String.length s;
                s));
        decode = (fun s -> Span.leaf k_decode (fun () -> Msg.Codec.decode s));
      }

let attach_agg ov =
  let rt = Agg.Runtime.attach ov in
  if !Span.enabled then
    O.set_agg_repair ov
      (Some (fun () -> Span.time k_agg_repair (fun () -> Agg.Runtime.repair rt)));
  rt

let attach_fd ov =
  let fd = Fd.Runtime.attach ov in
  if !Span.enabled then
    O.set_fd_round ov
      (Some (fun () -> Span.time k_fd_tick (fun () -> Fd.Runtime.tick fd)));
  fd

(* --- pass results ---------------------------------------------------------- *)

type pass = {
  workload : string;
  size : int;
  tally : Check.tally;
  mutable setup_s : float list;
  mutable build_words : float list;  (** minor words per join *)
  mutable build_msgs : float list;  (** join-phase messages per join *)
  mutable cycle_s : float list;
  mutable cycle_rounds : float list;
  mutable cycle_msgs : float list;
  mutable cycle_faults : float list;  (** heal: crashes + corruptions *)
  mutable quiet_s : float list;
  mutable publish_s : float list;  (** wall time of each publish *)
  mutable epoch_s : float;  (** serve: wall time of inject + run_epoch *)
  mutable epochs : int;
  mutable agg_bytes : float;  (** serve: frame bytes sent by epochs *)
  mutable fingerprints : (string * int) list list;
  mutable timed_s : float;  (** wall time of every timed segment *)
  mutable timed_words : float;  (** minor words allocated in them *)
  mutable cycle_words : float list;  (** timed minor words per cycle *)
  mutable covered_s : float;  (** part of it inside top-level spans *)
  mutable roots : int;  (** rooted shards at the end *)
  mutable fresh : (string, float) Hashtbl.t option;
      (** heal: the counters of a publish batch on the fresh tree *)
  mutable min_cycles : int;
  mutable heap_words : int;
      (** the process's peak major heap as of cycle [min_cycles] *)
  mutable counted : (string, float) Hashtbl.t;
      (** the counters as of the end of cycle [min_cycles]: simulated
          counts over a fixed prefix, so they repeat exactly per seed *)
}

(* Time one segment of the timed phase, and the share of it that the
   top-level layer spans cover. *)
let timed p f =
  let c0 = !Span.top_level_s in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 in
  p.timed_words <- p.timed_words +. (Gc.minor_words () -. w0);
  p.timed_s <- p.timed_s +. dt;
  p.covered_s <- p.covered_s +. (!Span.top_level_s -. c0);
  (v, dt)

(* A simulated count over the first [min_cycles] cycles. *)
let counted p name = Option.value ~default:0.0 (Hashtbl.find_opt p.counted name)

let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

(* Per-cycle samples of the first [min_cycles] cycles. *)
let first p l = take p.min_cycles l

let with_time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean l =
  match l with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let round_count ov = List.length (Tele.rounds (O.telemetry ov))

(* --- shared phases --------------------------------------------------------- *)

(* Join every rectangle one at a time, then stabilize to a legal tree.
   Returns whether [stabilize] converged, and records the minor words
   and join-phase messages per join. *)
let build_tree p ov rects =
  let n = float_of_int (List.length rects) in
  let m0 = msgs ov in
  let w0 = Gc.minor_words () in
  List.iter (fun r -> ignore (join ov r)) rects;
  let m1 = msgs ov in
  let conv = stabilize ov <> None in
  p.build_words <- ((Gc.minor_words () -. w0) /. n) :: p.build_words;
  p.build_msgs <- (float_of_int (m1 - m0) /. n) :: p.build_msgs;
  conv

(* A timed batch of publishes from uniformly random live publishers,
   each checked for false negatives. *)
let publish_batch p ov rng ids points =
  List.iter
    (fun pt ->
      let from = Rng.pick_array rng ids in
      let r, dt = timed p (fun () -> publish ov ~from pt) in
      p.publish_s <- dt :: p.publish_s;
      Check.publish p.tally r)
    points

let quiet_round p ov =
  let (), dt = timed p (fun () -> round ov) in
  p.quiet_s <- dt :: p.quiet_s

let make_pass workload size =
  {
    workload; size; tally = Check.tally (); setup_s = [];
    build_words = []; build_msgs = []; cycle_s = []; cycle_rounds = [];
    cycle_msgs = []; cycle_faults = []; quiet_s = []; publish_s = [];
    epoch_s = 0.0; epochs = 0; agg_bytes = 0.0; fingerprints = [];
    timed_s = 0.0; timed_words = 0.0; cycle_words = []; covered_s = 0.0;
    roots = 0;
    fresh = None; min_cycles = 1; heap_words = 0; counted = Hashtbl.create 1;
  }

(* Run [setup] [reps] times, each from a collected heap that no
   longer holds the previous set-up's result, and return the last
   result. [setup] records its own time. *)
let repeat_setup reps setup =
  let last = ref None in
  for i = 0 to reps - 1 do
    last := None;
    Gc.full_major ();
    last := Some (setup i)
  done;
  Option.get !last

let subscriptions ~seed n =
  Workload.Subscription_gen.uniform () space (Rng.make seed) n

(* [g * g] uniform events, one in each cell of a [g * g] grid over the
   space (jittered stratified sampling), in random order: uniform like
   [Event_gen.uniform], with far less seed-to-seed variance in the
   averages a batch yields. *)
let events rng g =
  let w = 100.0 /. float_of_int g in
  List.init (g * g) (fun c ->
      let x = float_of_int (c mod g) *. w and y = float_of_int (c / g) *. w in
      P.make2 (x +. Rng.float rng w) (y +. Rng.float rng w))
  |> Rng.shuffle rng

(* Telemetry and engine counts as of now, for per-layer deltas over
   the timed phase and for the schedule fingerprint. *)
type snap = {
  s_engine : int * int * int * int;  (** events, msgs, self msgs, bytes *)
  s_repairs : int list;  (** per Tele.repair_kinds *)
  s_probes : int;
  s_execs : int;
  s_rounds : int;
  s_agg : int * int * int * int;  (** sent, suppressed, merges, stale *)
  s_fd : int * int * int * int;
  s_traffic : (string * Tele.traffic) list;
  s_frame_bytes : int;
  s_gc : float * float * int;
}

let snap ov =
  let e = O.engine ov and t = O.telemetry ov in
  let g = Gc.quick_stat () in
  {
    s_engine =
      ( Engine.events_processed e, Engine.messages_sent e,
        Engine.self_messages e, Engine.bytes_sent e );
    s_repairs = List.map (Tele.repair_count t) Tele.repair_kinds;
    s_probes = Tele.probes t;
    s_execs = Tele.execs t;
    s_rounds = List.length (Tele.rounds t);
    s_agg =
      (Tele.agg_sent t, Tele.agg_suppressed t, Tele.agg_merges t,
       Tele.agg_stale_dropped t);
    s_fd =
      (Tele.fd_suspicions t, Tele.fd_false_suspicions t, Tele.fd_confirms t,
       Tele.fd_false_kills t);
    s_traffic = Tele.traffic_entries t;
    s_frame_bytes = !frame_bytes;
    s_gc = (g.Gc.minor_words, g.Gc.major_words, g.Gc.major_collections);
  }

(* Accumulate the simulated deltas between two snapshots into the
   pass counters (per-layer metrics divide them by the cycle count). *)
let add_delta ov a b =
  let d (x : int) y = float_of_int (y - x) in
  let e0, m0, s0, b0 = a.s_engine and e1, m1, s1, b1 = b.s_engine in
  count "engine.events" (d e0 e1);
  count "engine.msgs" (d m0 m1);
  count "engine.self_msgs" (d s0 s1);
  count "engine.bytes" (d b0 b1);
  count "codec.bytes" (d a.s_frame_bytes b.s_frame_bytes);
  List.iter2
    (fun (k, x) y -> count ("repair." ^ String.lowercase_ascii (Tele.repair_label k)) (d x y))
    (List.combine Tele.repair_kinds a.s_repairs)
    b.s_repairs;
  count "repair.probes" (d a.s_probes b.s_probes);
  count "repair.round_reports" (d a.s_rounds b.s_rounds);
  count "repair.execs" (d a.s_execs b.s_execs);
  let rounds = Tele.rounds (O.telemetry ov) in
  List.iteri
    (fun i (r : Tele.round_report) ->
      if i >= a.s_rounds && i < b.s_rounds then begin
        count "repair.skipped" (float_of_int r.skipped);
        count "repair.queue_depth" (float_of_int r.queue_depth)
      end)
    rounds;
  let as0, ap0, am0, at0 = a.s_agg and as1, ap1, am1, at1 = b.s_agg in
  count "agg.sent" (d as0 as1);
  count "agg.suppressed" (d ap0 ap1);
  count "agg.merges" (d am0 am1);
  count "agg.stale_dropped" (d at0 at1);
  let f0, ff0, c0, k0 = a.s_fd and f1, ff1, c1, k1 = b.s_fd in
  count "fd.suspicions" (d f0 f1);
  count "fd.false_suspicions" (d ff0 ff1);
  count "fd.confirms" (d c0 c1);
  count "fd.false_kills" (d k0 k1);
  List.iter
    (fun (kind, (t : Tele.traffic)) ->
      let t0 =
        match List.assoc_opt kind a.s_traffic with
        | Some t0 -> t0
        | None -> { Tele.sent_msgs = 0; sent_bytes = 0; recv_msgs = 0; recv_bytes = 0 }
      in
      count ("traffic." ^ kind ^ ".msgs") (d t0.sent_msgs t.sent_msgs);
      count ("traffic." ^ kind ^ ".bytes") (d t0.sent_bytes t.sent_bytes))
    b.s_traffic;
  let mi0, ma0, mc0 = a.s_gc and mi1, ma1, mc1 = b.s_gc in
  count "gc.minor_words" (mi1 -. mi0);
  count "gc.major_words" (ma1 -. ma0);
  count "gc.major_collections" (d mc0 mc1)

(* Run [f] as one timed-phase cycle, charging its simulated deltas.
   Returns [f]'s value and the snapshot taken after it. *)
let cycle ov f =
  let a = snap ov in
  let v = f () in
  let b = snap ov in
  add_delta ov a b;
  (v, b)

(* Simulated counts that identify the schedule, from the snapshot [s]
   that ends a cycle. *)
let fingerprint ?agg ?fd ov s =
  let events, msgs, _, bytes = s.s_engine and sent, suppressed, _, _ = s.s_agg in
  [
    ("engine.msgs", msgs);
    ("engine.bytes", bytes);
    ("engine.events", events);
    ("rounds", s.s_rounds);
    ("height", O.height ov);
    ("agg.sent", sent);
    ("agg.suppressed", suppressed);
    ("agg.epoch", match agg with Some rt -> Agg.Runtime.epoch rt | None -> 0);
    ("fd.waves", match fd with Some d -> Fd.Runtime.wave d | None -> 0);
  ]
  @ List.concat_map
      (fun (kind, (t : Tele.traffic)) ->
        [ (kind ^ ".msgs", t.sent_msgs); (kind ^ ".bytes", t.sent_bytes) ])
      s.s_traffic

(* The timed phase: run cycles [1, 2, ...] for [seconds], and at least
   [min_cycles] of them. After those, a cycle is started only while
   one as long as the last fits before the deadline. Counters and spans
   start from zero here, so set-up work is not charged to the layers;
   the counters are snapshot after cycle [min_cycles]. *)
let cycles p ~min_cycles ~seconds body =
  p.min_cycles <- min_cycles;
  Hashtbl.reset counters;
  if !Span.enabled then Span.reset ();
  let stop = now () +. seconds in
  let i = ref 0 and last = ref 0.0 in
  while !i < min_cycles || now () +. !last < stop do
    incr i;
    let t0 = now () and w0 = p.timed_words in
    body !i;
    last := now () -. t0;
    p.cycle_words <- (p.timed_words -. w0) :: p.cycle_words;
    if !i = min_cycles then begin
      p.counted <- Hashtbl.copy counters;
      p.heap_words <- (Gc.quick_stat ()).Gc.top_heap_words
    end
  done

(* Close a pass: run-wide checks and end-of-run facts. *)
let finish p ov =
  let errors = Engine.decode_errors (O.engine ov) in
  count "codec.decode_errors" (float_of_int errors);
  Check.zero p.tally ~what:"decode errors" errors;
  Check.zero p.tally ~what:"violations at the end" (violations ov);
  p.roots <- List.length (List.filter Option.is_some (O.shard_roots ov));
  p.build_words <- List.rev p.build_words;
  p.build_msgs <- List.rev p.build_msgs;
  p.fingerprints <- List.rev p.fingerprints;
  p.cycle_rounds <- List.rev p.cycle_rounds;
  p.cycle_msgs <- List.rev p.cycle_msgs;
  p.cycle_faults <- List.rev p.cycle_faults;
  p.cycle_words <- List.rev p.cycle_words;
  p

(* --- build ----------------------------------------------------------------- *)

(* The write path: N subscribers join one at a time under the default
   configuration on the in-process transport, then stabilize. Each
   cycle builds one of [build_trees] trees from its own inputs, so the
   counted cycles average over that many trees. Set-up generates the
   inputs. *)
let build_trees = 3

let build ~seed ~seconds ~n =
  let p = make_pass "build" n in
  let inputs =
    repeat_setup 11 (fun _ ->
        let t0 = now () in
        let inputs =
          Array.init build_trees (fun k -> subscriptions ~seed:(derive seed k) n)
        in
        p.setup_s <- (now () -. t0) :: p.setup_s;
        inputs)
  in
  let rng = Rng.make (derive seed 3) in
  let last = ref None in
  cycles p ~min_cycles:build_trees ~seconds (fun i ->
    let k = (i - 1) mod build_trees in
    (* drop the previous tree before building the next one *)
    last := None;
    let ov = O.create ~seed:(derive seed k) () in
    last := Some ov;
    let converged, _ =
      cycle ov (fun () ->
          let conv, dt = timed p (fun () -> build_tree p ov inputs.(k)) in
          p.cycle_s <- dt :: p.cycle_s;
          conv)
    in
    p.cycle_rounds <- float_of_int (round_count ov) :: p.cycle_rounds;
    p.cycle_msgs <- float_of_int (msgs ov) :: p.cycle_msgs;
    Check.build p.tally ~ops:n ~converged ~violations:(violations ov)
      ~size:(O.size ov) ~expected:n;
    let (), s =
      cycle ov (fun () ->
          quiet_round p ov;
          publish_batch p ov rng (Array.of_list (O.alive_ids ov)) (events rng grid_build))
    in
    p.fingerprints <- fingerprint ov s :: p.fingerprints);
  finish p (Option.get !last)

(* --- serve ----------------------------------------------------------------- *)

(* E24's standing queries: COUNT over everything, SUM over the left
   half, AVG over the centre, MAX over the lower-right quadrant. With
   four shards they cover four, two, four and one shards. *)
let std_queries rt ~owner =
  List.map
    (fun (x0, y0, x1, y1, fn) ->
      Agg.Runtime.register rt ~tct:0.0 ~owner ~rect:(R.make2 ~x0 ~y0 ~x1 ~y1) fn)
    [
      (0.0, 0.0, 100.0, 100.0, Agg.Aggregate.Count);
      (0.0, 0.0, 50.0, 100.0, Agg.Aggregate.Sum);
      (25.0, 25.0, 75.0, 75.0, Agg.Aggregate.Avg);
      (50.0, 0.0, 100.0, 50.0, Agg.Aggregate.Max);
    ]

(* E24's readings: one integer value per process, at its filter
   centre, random-walking in occasional integer steps; integers keep
   float sums exact, so a tct = 0 result must equal the oracle. *)
type producers = { rng : Rng.t; ids : int array; pts : P.t array; vals : float array }

let producers ~seed ov =
  let rng = Rng.make seed in
  let ids = Array.of_list (O.alive_ids ov) in
  let pts =
    Array.map
      (fun id ->
        match O.state ov id with
        | Some s -> R.center (Drtree.State.filter s)
        | None -> P.make2 50.0 50.0)
      ids
  in
  let vals = Array.map (fun _ -> float_of_int (20 + Rng.int rng 60)) ids in
  { rng; ids; pts; vals }

let emit pr rt =
  Array.iteri
    (fun i id ->
      let v = pr.vals.(i) in
      let v =
        if Rng.float pr.rng 1.0 < 0.2 then v +. float_of_int (Rng.int pr.rng 7 - 3)
        else v
      in
      pr.vals.(i) <- v;
      Span.leaf k_inject (fun () -> Agg.Runtime.inject rt ~from:id pr.pts.(i) v))
    pr.ids

let serve_cfg = Cfg.make ~forest:(Cfg.Sharded { shards = 4 }) ()

(* The read path: a built forest of four shards on the wire transport
   answers standing aggregate queries and publishes every tick, with
   one quiescent repair round per tick. Set-up builds the forest and
   registers the queries, three times. *)
let serve ~seed ~seconds ~n =
  let p = make_pass "serve" n in
  let rects = subscriptions ~seed:(derive seed 0) n in
  let setup _ =
    let t0 = now () in
    let ov =
      O.create ~cfg:serve_cfg ~transport:(transport ()) ~seed:(derive seed 0) ()
    in
    let converged = build_tree p ov rects in
    let rt = attach_agg ov in
    let owner = List.hd (O.alive_ids ov) in
    let qids = std_queries rt ~owner in
    let pr = producers ~seed:(derive seed 1) ov in
    p.setup_s <- (now () -. t0) :: p.setup_s;
    Check.build p.tally ~ops:n ~converged ~violations:(violations ov)
      ~size:(O.size ov) ~expected:n;
    (ov, rt, qids, pr)
  in
  let ov, rt, qids, pr = repeat_setup 3 setup in
  let ids = Array.of_list (O.alive_ids ov) in
  let rng = Rng.make (derive seed 2) in
  cycles p ~min_cycles:24 ~seconds (fun _ ->
    let m0 = msgs ov and r0 = round_count ov in
    let t_cycle, s =
      cycle ov (fun () ->
          let b0 = Engine.bytes_sent (O.engine ov) in
          let (), t_epoch =
            timed p (fun () ->
                emit pr rt;
                Span.time k_epoch (fun () -> Agg.Runtime.run_epoch rt))
          in
          p.epoch_s <- p.epoch_s +. t_epoch;
          p.epochs <- p.epochs + 1;
          p.agg_bytes <-
            p.agg_bytes +. float_of_int (Engine.bytes_sent (O.engine ov) - b0);
          let epoch = Agg.Runtime.epoch rt in
          List.iter
            (fun qid ->
              let f0 = p.tally.failed in
              Check.agg_result p.tally ~qid ~epoch
                ~result:(Agg.Runtime.result rt qid)
                ~oracle:(Agg.Runtime.oracle rt ~epoch qid);
              if p.tally.failed > f0 then count "agg.inexact" 1.0)
            qids;
          let (), t_pub =
            with_time (fun () -> publish_batch p ov rng ids (events rng grid_serve))
          in
          quiet_round p ov;
          t_epoch +. t_pub +. List.hd p.quiet_s)
    in
    p.cycle_s <- t_cycle :: p.cycle_s;
    p.cycle_rounds <- float_of_int (round_count ov - r0) :: p.cycle_rounds;
    p.cycle_msgs <- float_of_int (msgs ov - m0) :: p.cycle_msgs;
    p.fingerprints <- fingerprint ~agg:rt ov s :: p.fingerprints);
  finish p ov

(* --- heal ------------------------------------------------------------------ *)

let heal_cfg = Cfg.make ~detector:Cfg.default_heartbeat ()

(* The paper's self-stabilization claim under the heartbeat detector:
   every cycle crashes 1% of the processes silently, corrupts another
   1% and lets as many fresh subscribers join, then runs repair rounds
   until the tree is legal and every crash is confirmed. Set-up builds
   three trees from their own inputs; the cycles run on the last. *)
let heal ~seed ~seconds ~n =
  let p = make_pass "heal" n in
  let rng = Rng.make (derive seed 3) in
  let setup k =
    let rects = subscriptions ~seed:(derive seed k) n in
    let t0 = now () in
    let ov =
      O.create ~cfg:heal_cfg ~transport:(transport ()) ~seed:(derive seed k) ()
    in
    let fd = attach_fd ov in
    let converged = build_tree p ov rects in
    p.setup_s <- (now () -. t0) :: p.setup_s;
    Check.build p.tally ~ops:n ~converged ~violations:(violations ov)
      ~size:(O.size ov) ~expected:n;
    (* Dissemination cost and accuracy of the freshly built tree, not
       timed. Under repeated faults both drift upward at a
       seed-dependent rate; the post-heal batches below check for
       false negatives and time the publishes, and the report shows
       the drift. *)
    let ids = Array.of_list (O.alive_ids ov) in
    List.iter
      (fun pt -> Check.publish p.tally (publish ov ~from:(Rng.pick_array rng ids) pt))
      (events rng grid_fresh);
    (ov, fd)
  in
  let ov, fd = repeat_setup 3 setup in
  p.fresh <- Some (Hashtbl.copy counters);
  let fresh = ref (subscriptions ~seed:(derive seed 4) (n * 4)) in
  cycles p ~min_cycles:10 ~seconds (fun i ->
    let m0 = msgs ov in
    let w0 = Fd.Runtime.wave fd in
    let fk0 = Tele.fd_false_kills (O.telemetry ov) in
    let (rounds, crashed, faults), _ =
      cycle ov (fun () ->
          let (rounds, crashed, faults), dt =
            timed p (fun () ->
                let crashed =
                  Drtree.Corrupt.random_victims ov rng ~fraction:fault_fraction
                in
                List.iter (O.crash_silent ov) crashed;
                let corrupted =
                  Drtree.Corrupt.random_victims ov rng ~fraction:fault_fraction
                in
                List.iter
                  (fun v -> ignore (Drtree.Corrupt.any ov rng v))
                  corrupted;
                List.iter
                  (fun _ ->
                    match !fresh with
                    | r :: rest ->
                        fresh := rest;
                        ignore (join ov r)
                    | [] -> ())
                  crashed;
                let healed () =
                  List.for_all (Fd.Runtime.is_confirmed fd) crashed
                  && is_legal ov
                in
                let rounds = ref 0 in
                while (not (healed ())) && !rounds < heal_round_budget do
                  incr rounds;
                  round ov
                done;
                (!rounds, crashed, List.length crashed + List.length corrupted))
          in
          p.cycle_s <- dt :: p.cycle_s;
          (rounds, crashed, faults))
    in
    p.cycle_rounds <- float_of_int rounds :: p.cycle_rounds;
    p.cycle_msgs <- float_of_int (msgs ov - m0) :: p.cycle_msgs;
    p.cycle_faults <- float_of_int faults :: p.cycle_faults;
    Check.heal_cycle p.tally ~cycle:i ~rounds ~budget:heal_round_budget
      ~legal:(is_legal ov)
      ~unconfirmed:
        (List.filter (fun v -> not (Fd.Runtime.is_confirmed fd v)) crashed)
      ~false_kills:(Tele.fd_false_kills (O.telemetry ov) - fk0);
    let (), s =
      cycle ov (fun () ->
          quiet_round p ov;
          publish_batch p ov rng (Array.of_list (O.alive_ids ov)) (events rng grid_heal))
    in
    p.fingerprints <- fingerprint ~fd ov s :: p.fingerprints;
    count "fd.waves" (float_of_int (Fd.Runtime.wave fd - w0)));
  finish p ov

let run ~workload ~seed ~seconds ~n =
  Hashtbl.reset counters;
  match workload with
  | "build" -> build ~seed ~seconds ~n
  | "serve" -> serve ~seed ~seconds ~n
  | "heal" -> heal ~seed ~seconds ~n
  | w -> invalid_arg ("unknown workload " ^ w)
