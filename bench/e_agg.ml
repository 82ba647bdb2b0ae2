(* In-network aggregation experiments (lib/agg): traffic vs a
   per-producer flooding baseline under the TiNA temporal coherency
   tolerance (E24), aggregate error under churn + message loss with
   exact recovery after stabilization (E25), and forest-native
   aggregation — exactness and cross-shard merge traffic vs shard
   count (E30, DESIGN.md §15). Registration lives in
   [Experiments.register]. *)

module R = Geometry.Rect
module P = Geometry.Point
module O = Drtree.Overlay
module Inv = Drtree.Invariant
module Tele = Drtree.Telemetry
module Rng = Sim.Rng
module Engine = Sim.Engine
module Sg = Workload.Subscription_gen
module Table = Stats.Table
open Harness

(* Per-producer readings: one integer-valued sample per node per epoch
   at the node's filter center, random-walking in occasional integer
   steps — the slowly-changing sensor signal TiNA's suppression is
   designed for. Integer values keep float sums exact, so tct = 0
   error is a protocol property, not rounding. *)
type producers = {
  rng : Rng.t;
  points : (Sim.Node_id.t, P.t) Hashtbl.t;
  values : (Sim.Node_id.t, float) Hashtbl.t;
}

let producers_make ~seed ids_points =
  let t =
    { rng = Rng.make seed; points = Hashtbl.create 256;
      values = Hashtbl.create 256 }
  in
  List.iter
    (fun (id, p) ->
      Hashtbl.replace t.points id p;
      Hashtbl.replace t.values id (float_of_int (20 + Rng.int t.rng 60)))
    ids_points;
  t

let producers_add t id p =
  Hashtbl.replace t.points id p;
  Hashtbl.replace t.values id (float_of_int (20 + Rng.int t.rng 60))

(* Advance the random walk and inject this epoch's readings. *)
let producers_emit t rt ov =
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.points id with
      | None -> ()
      | Some p ->
          let v = Hashtbl.find t.values id in
          let v =
            if Rng.float t.rng 1.0 < 0.2 then
              v +. float_of_int (Rng.int t.rng 7 - 3)
            else v
          in
          Hashtbl.replace t.values id v;
          Agg.Runtime.inject rt ~from:id p v)
    (O.alive_ids ov)

(* |tree result - oracle| for one query at the runtime's current
   epoch; [stale] counts results from an older epoch (lost or late). *)
let query_error rt qid =
  let e = Agg.Runtime.epoch rt in
  let expect =
    match Agg.Runtime.oracle rt ~epoch:e qid with
    | Some v -> v
    | None -> None
  in
  match Agg.Runtime.result rt qid with
  | Some (re, got) when re = e -> (
      match (got, expect) with
      | Some g, Some x -> (abs_float (g -. x), false)
      | None, None -> (0.0, false)
      | Some g, None | None, Some g -> (abs_float g, false))
  | Some _ | None -> (
      (* no fresh result: the full oracle value went missing *)
      match expect with
      | Some x -> (abs_float x, true)
      | None -> (0.0, true))

let std_queries rt ~owner ~tct =
  [
    Agg.Runtime.register rt ~tct ~owner
      ~rect:(R.make2 ~x0:0.0 ~y0:0.0 ~x1:100.0 ~y1:100.0)
      Agg.Aggregate.Count;
    Agg.Runtime.register rt ~tct ~owner
      ~rect:(R.make2 ~x0:0.0 ~y0:0.0 ~x1:50.0 ~y1:100.0)
      Agg.Aggregate.Sum;
    Agg.Runtime.register rt ~tct ~owner
      ~rect:(R.make2 ~x0:25.0 ~y0:25.0 ~x1:75.0 ~y1:75.0)
      Agg.Aggregate.Avg;
    Agg.Runtime.register rt ~tct ~owner
      ~rect:(R.make2 ~x0:50.0 ~y0:0.0 ~x1:100.0 ~y1:50.0)
      Agg.Aggregate.Max;
  ]

(* --- E24: aggregation traffic vs flooding, sweep over tct ---------------- *)

let e24 () =
  let n = 256 and epochs = 50 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E24  aggregation traffic vs flooding baseline, tct sweep (N=%d, \
            %d epochs, 4 queries, wire transport; TiNA: ~50%% reduction at \
            modest tolerance)"
           n epochs)
      ~columns:
        [ "tct"; "tree msgs/ep"; "suppr/ep"; "flood msgs/ep"; "reduction %";
          "tree B/ep"; "flood B/ep"; "byte red %";
          "mean |err|"; "max |err|"; "max |err|/src" ]
  in
  (* per-kind wire traffic of the tct = 0 run, captured for the
     breakdown below the table *)
  let traffic0 = ref [] in
  List.iter
    (fun tct ->
      let rng = Rng.make 2401 in
      let rects = Sg.uniform () space rng n in
      let ov =
        build_overlay ~transport:Drtree.Message.Codec.transport ~seed:24 rects
      in
      let ids_points =
        List.map (fun id ->
            match O.state ov id with
            | Some s -> (id, R.center (Drtree.State.filter s))
            | None -> (id, P.make2 50.0 50.0))
          (O.alive_ids ov)
      in
      let rt = Agg.Runtime.attach ov in
      let owner = List.hd (O.alive_ids ov) in
      let qids = std_queries rt ~owner ~tct in
      let prod = producers_make ~seed:2402 ids_points in
      (* producers are static in E24, so each query's source count is
         fixed: the per-source error is what the tolerance bounds
         (TiNA's per-reading view of tct) *)
      let sources qid =
        match Agg.Runtime.query rt qid with
        | None -> 1
        | Some q ->
            max 1
              (List.length
                 (List.filter
                    (fun (_, p) -> R.contains_point q.Agg.Query.q_rect p)
                    ids_points))
      in
      let err_sum = ref 0.0 and err_max = ref 0.0 and err_n = ref 0 in
      let err_src_max = ref 0.0 in
      let bytes0 = Engine.bytes_sent (O.engine ov) in
      for _ = 1 to epochs do
        producers_emit prod rt ov;
        Agg.Runtime.run_epoch rt;
        List.iter
          (fun qid ->
            let e, _stale = query_error rt qid in
            err_sum := !err_sum +. e;
            err_max := max !err_max e;
            err_src_max :=
              max !err_src_max (e /. float_of_int (sources qid));
            incr err_n)
          qids
      done;
      let tele = O.telemetry ov in
      let nq = List.length qids in
      let fe = float_of_int epochs in
      (* tree traffic: climbing partials + one root->owner result per
         query per epoch; flooding baseline: every producer reports
         every query every epoch. *)
      let tree =
        float_of_int (Tele.agg_sent tele + (nq * epochs)) /. fe
      in
      let flood = float_of_int (n * nq) in
      (* bytes: the engine's frame counter over the epoch loop (the
         wire transport sizes every Agg_partial / Agg_result exactly);
         the flooding baseline pays one representative partial frame
         per producer per query per epoch. *)
      let tree_bytes =
        float_of_int (Engine.bytes_sent (O.engine ov) - bytes0) /. fe
      in
      let partial_frame =
        Drtree.Message.Codec.encoded_size
          (Drtree.Message.Agg_partial
             {
               query_id = 0;
               epoch = epochs;
               child = owner;
               at = 1;
               partial =
                 { a_count = n; a_sum = 12345.0; a_min = 20.0; a_max = 80.0 };
             })
      in
      let flood_bytes = flood *. float_of_int partial_frame in
      if tct = 0.0 then traffic0 := Tele.traffic_entries tele;
      Table.add_rowf table "%g|%.1f|%.1f|%.0f|%.1f|%.0f|%.0f|%.1f|%.3f|%.3f|%.3f"
        tct tree
        (float_of_int (Tele.agg_suppressed tele) /. fe)
        flood
        (100.0 *. (1.0 -. (tree /. flood)))
        tree_bytes flood_bytes
        (100.0 *. (1.0 -. (tree_bytes /. flood_bytes)))
        (!err_sum /. float_of_int (max 1 !err_n))
        !err_max !err_src_max;
      Agg.Runtime.detach rt)
    [ 0.0; 1.0; 2.0; 4.0; 8.0 ];
  Table.print table;
  (* Per-kind breakdown of the tct = 0 run: where the bytes actually
     go (dominated by Agg_partial, with the one-off Agg_subscribe
     flood and per-epoch Agg_result beside it). *)
  let bt =
    Table.create ~title:"E24b per-kind wire traffic, tct=0 run (whole run)"
      ~columns:[ "kind"; "sent"; "sent B"; "B/msg"; "recv"; "recv B" ]
  in
  List.iter
    (fun (kind, tr) ->
      Table.add_rowf bt "%s|%d|%d|%.1f|%d|%d" kind tr.Tele.sent_msgs
        tr.Tele.sent_bytes
        (float_of_int tr.Tele.sent_bytes
        /. float_of_int (max 1 tr.Tele.sent_msgs))
        tr.Tele.recv_msgs tr.Tele.recv_bytes)
    !traffic0;
  Table.print bt

(* --- E25: aggregate error under churn and message loss ------------------- *)

let e25 () =
  let n = 200 and epochs = 30 and drop = 0.1 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E25  aggregate error under churn + %g%% loss (N=%d, %d epochs, \
            tct=0), then exact recovery after stabilization"
           (100.0 *. drop) n epochs)
      ~columns:
        [ "query"; "mean |err|"; "max |err|"; "stale results";
          "|err| after repair" ]
  in
  let rng = Rng.make 2501 in
  let rects = Sg.uniform () space rng n in
  let ov = build_overlay ~seed:25 rects in
  let ids_points =
    List.map (fun id ->
        match O.state ov id with
        | Some s -> (id, R.center (Drtree.State.filter s))
        | None -> (id, P.make2 50.0 50.0))
      (O.alive_ids ov)
  in
  let rt = Agg.Runtime.attach ov in
  let owner = List.hd (O.alive_ids ov) in
  let qids = std_queries rt ~owner ~tct:0.0 in
  let prod = producers_make ~seed:2502 ids_points in
  let nq = List.length qids in
  let err_sum = Array.make nq 0.0 and err_max = Array.make nq 0.0 in
  let stale = Array.make nq 0 in
  Engine.set_drop_rate (O.engine ov) drop;
  for ep = 1 to epochs do
    (* churn: occasional silent crash (never the owner) and fresh join *)
    if Rng.float rng 1.0 < 0.3 then begin
      match List.filter (fun id -> id <> owner) (O.alive_ids ov) with
      | [] -> ()
      | ids -> O.crash ov (Rng.pick rng ids)
    end;
    if Rng.float rng 1.0 < 0.3 then begin
      let r = List.hd (Sg.uniform () space rng 1) in
      let id = O.join ov r in
      producers_add prod id (R.center r)
    end;
    producers_emit prod rt ov;
    Agg.Runtime.run_epoch rt;
    List.iteri
      (fun i qid ->
        let e, st = query_error rt qid in
        err_sum.(i) <- err_sum.(i) +. e;
        err_max.(i) <- max err_max.(i) e;
        if st then stale.(i) <- stale.(i) + 1)
      qids;
    (* the overlay keeps repairing while the losses continue *)
    if ep mod 3 = 0 then O.stabilize_round ov
  done;
  (* recovery: reliable delivery, stabilize to a legal state (the
     rounds co-run Agg_repair), then one fresh epoch must be exact. *)
  Engine.set_drop_rate (O.engine ov) 0.0;
  ignore (O.stabilize ~max_rounds:100 ~legal:Inv.is_legal ov);
  producers_emit prod rt ov;
  Agg.Runtime.run_epoch rt;
  List.iteri
    (fun i qid ->
      let after, _ = query_error rt qid in
      let q = Option.get (Agg.Runtime.query rt qid) in
      Table.add_rowf table "%s|%.3f|%.3f|%d|%.3f"
        (Agg.Aggregate.fn_to_string q.Agg.Query.q_fn)
        (err_sum.(i) /. float_of_int epochs)
        err_max.(i) stale.(i) after)
    qids;
  Table.print table;
  Format.printf "  legal after recovery: %b@." (Inv.is_legal ov)

(* --- E30: forest-native aggregation, exactness and traffic vs shards ------ *)

type agg_measure = {
  m_sent : int;  (* tree partials over the whole run *)
  m_merges : int;  (* cross-shard Agg_merge partials over the run *)
  m_suppressed : int;
  m_tree_ep : float;  (* partials + merges + results, per epoch *)
  m_mean_err : float;
  m_max_err : float;
  m_stale : int;
}

(* One E24-style measurement (uniform workload, wire transport, the
   four standard queries, random-walk producers at filter centers) at
   a given forest configuration. Same seeds and constants as E24, so
   at N=256 the one-shard measurement reproduces E24's tct=0 row. *)
let agg_measure ~forest ~n ~epochs ~tct =
  let cfg = Drtree.Config.make ~forest () in
  let rng = Rng.make 2401 in
  let rects = Sg.uniform () space rng n in
  let ov =
    build_overlay ~cfg ~transport:Drtree.Message.Codec.transport ~seed:24
      rects
  in
  let ids_points =
    List.map (fun id ->
        match O.state ov id with
        | Some s -> (id, R.center (Drtree.State.filter s))
        | None -> (id, P.make2 50.0 50.0))
      (O.alive_ids ov)
  in
  let rt = Agg.Runtime.attach ov in
  let owner = List.hd (O.alive_ids ov) in
  let qids = std_queries rt ~owner ~tct in
  let prod = producers_make ~seed:2402 ids_points in
  let err_sum = ref 0.0 and err_max = ref 0.0 and err_n = ref 0 in
  let stale_n = ref 0 in
  for _ = 1 to epochs do
    producers_emit prod rt ov;
    Agg.Runtime.run_epoch rt;
    List.iter
      (fun qid ->
        let e, st = query_error rt qid in
        err_sum := !err_sum +. e;
        err_max := max !err_max e;
        if st then incr stale_n;
        incr err_n)
      qids
  done;
  let tele = O.telemetry ov in
  let nq = List.length qids in
  let m =
    {
      m_sent = Tele.agg_sent tele;
      m_merges = Tele.agg_merges tele;
      m_suppressed = Tele.agg_suppressed tele;
      m_tree_ep =
        float_of_int (Tele.agg_sent tele + Tele.agg_merges tele + (nq * epochs))
        /. float_of_int epochs;
      m_mean_err = !err_sum /. float_of_int (max 1 !err_n);
      m_max_err = !err_max;
      m_stale = !stale_n;
    }
  in
  Agg.Runtime.detach rt;
  m

let e30 () =
  let sizes = sizes_of_env "DRTREE_E30_SIZES" ~default:[ 256 ] in
  let epochs = 50 and tct = 0.0 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E30  forest-native aggregation: exactness and merge traffic vs \
            shard count (tct=0, %d epochs, 4 queries, wire transport; same \
            seeds as E24, so shards=1 at N=256 reproduces E24's tct=0 row)"
           epochs)
      ~columns:
        [ "N"; "shards"; "tree msgs/ep"; "merges/ep"; "suppr/ep";
          "mean |err|"; "max |err|"; "stale" ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun shards ->
          let m =
            agg_measure ~forest:(Drtree.Config.Sharded { shards }) ~n ~epochs
              ~tct
          in
          (* tct = 0 keeps every query exact at any shard count: the
             subscription fan-out covers every producer's home shard
             (the zero-false-negative argument, E29's dual). *)
          if m.m_max_err <> 0.0 then
            failwith
              (Printf.sprintf "E30: nonzero error %g at N=%d shards=%d"
                 m.m_max_err n shards);
          if m.m_stale > 0 then
            failwith
              (Printf.sprintf "E30: %d stale result(s) at N=%d shards=%d"
                 m.m_stale n shards);
          if (shards = 1) <> (m.m_merges = 0) then
            failwith
              (Printf.sprintf
                 "E30: merge plane %s at N=%d shards=%d (%d merges)"
                 (if shards = 1 then "ran under a single tree"
                  else "never ran under a forest")
                 n shards m.m_merges);
          Table.add_rowf table "%d|%d|%.1f|%.2f|%.1f|%.3f|%.3f|%d" n shards
            m.m_tree_ep
            (float_of_int m.m_merges /. float_of_int epochs)
            (float_of_int m.m_suppressed /. float_of_int epochs)
            m.m_mean_err m.m_max_err m.m_stale)
        [ 1; 2; 4 ])
    sizes;
  Table.print table
