module Node_id = Sim.Node_id
module Engine = Sim.Engine

(* Root role management: creation on root splits (Fig. 6), root
   condensation after departures, and reconciliation of competing
   claimants. Root {e discovery} (claimants, designation, the contact
   oracle) lives in {!Access} — it is a read-side query every layer
   needs. *)

(* Create_Root(left, right): a root split elects the member with the
   largest MBR as the new root (Fig. 6), one level up. *)
let create_root (net : Access.net) left right h =
  let winner, loser =
    if Access.area_of net h right > Access.area_of net h left then
      (right, left)
    else (left, right)
  in
  match Access.read net winner with
  | None -> ()
  | Some sw ->
      let lw = State.activate sw (h + 1) in
      lw.State.children <- Node_id.Set.of_list [ left; right ];
      lw.State.parent <- winner;
      Repair.compute_mbr net sw (h + 1);
      Repair.update_underloaded net.Access.cfg lw;
      Access.mark net winner (h + 1);
      List.iter
        (fun id ->
          match Access.read net id with
          | Some s when State.is_active s h ->
              (State.level_exn s h).State.parent <- winner;
              Access.mark net id h
          | Some _ | None -> ())
        [ left; loser ]

(* Root condensation: an interior root left with a single member (its
   own lower instance, after departures) hands the root role down —
   the R-tree "root has at least two children" rule. If the single
   member is another process, that member becomes the root. *)
let shrink_root (net : Access.net) =
  let rec shrink id =
    match Access.read net id with
    | None -> ()
    | Some s ->
        let top = State.top s in
        if top >= 1 && State.is_root s top then begin
          let l = State.level_exn s top in
          let members =
            Node_id.Set.filter
              (fun c -> Node_id.equal c id || Access.read net c <> None)
              l.State.children
          in
          let condense () =
            State.deactivate_above s (top - 1);
            (State.level_exn s (top - 1)).State.parent <- id;
            Access.mark net id (top - 1);
            Telemetry.clear_fp net.Access.tele id top;
            Telemetry.record_repair net.Access.tele Telemetry.Root
          in
          match Node_id.Set.elements members with
          | [] ->
              condense ();
              shrink id
          | [ only ] when Node_id.equal only id ->
              condense ();
              shrink id
          | [ only ] -> (
              (* A foreign single member: it takes over as root. *)
              match Access.read net only with
              | Some so when State.is_active so (top - 1) ->
                  (State.level_exn so (top - 1)).State.parent <- only;
                  Access.mark net only (top - 1);
                  condense ();
                  shrink only
              | Some _ | None -> ())
          | _ :: _ :: _ -> ()
        end
  in
  (* Per shard, ascending: each tree of the forest condenses its own
     root (at one shard, the one tree's). *)
  for s = 0 to Access.shard_count net - 1 do
    match Access.designated_root_in net s with
    | None -> ()
    | Some r -> shrink r
  done

(* Competing root claimants (after partitions heal or corruption):
   every non-designated claimant re-joins through the designated one.
   Scoped per shard — claimants of different shards are not
   competitors, they are the forest. *)
let reconcile_roots (net : Access.net) =
  for shard = 0 to Access.shard_count net - 1 do
    match Access.root_claimants_in net shard with
    | [] | [ _ ] -> ()
    | claimants -> (
        match Access.designated_root_in net shard with
        | None -> ()
        | Some chosen ->
            List.iter
              (fun o ->
                if not (Node_id.equal o chosen) then
                  match Access.read net o with
                  | Some s ->
                      let top = State.top s in
                      let mbr =
                        match State.mbr_at s top with
                        | Some r -> r
                        | None -> State.filter s
                      in
                      Engine.inject net.Access.engine ~dst:chosen
                        (Message.Join
                           { joiner = o; mbr; height = top; phase = `Up;
                             hops = 0 })
                  | None -> ())
              claimants)
  done
