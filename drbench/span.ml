(* In-memory span recorder for the traced run.

   A span is one timed call into a layer's public function, made from
   the benchmark's own code. Open spans form a stack, so every span
   knows its parent: its self time is its duration minus the time its
   child spans cover. Spans are aggregated per layer key (call count,
   total and self time, minor-heap words) and per (parent, child) edge
   as they close; nothing is written out until the run ends.

   While recording is off (until [enable true]), [time k f] costs
   [f ()] plus one branch. *)

type key = {
  name : string;
  mutable calls : int;
  mutable total_s : float;
  mutable self_s : float;
  mutable total_words : float;
  mutable parents : (key * int ref) list;  (** calls per parent key *)
}

type frame = {
  k : key;
  t0 : float;
  w0 : float;
  mutable child_s : float;
}

let keys : (string, key) Hashtbl.t = Hashtbl.create 32
let stack : frame list ref = ref []
let enabled = ref false

(* Wall time covered by spans with no parent: the numerator of the
   coverage report. *)
let top_level_s = ref 0.0

let key name =
  match Hashtbl.find_opt keys name with
  | Some k -> k
  | None ->
      let k =
        { name; calls = 0; total_s = 0.0; self_s = 0.0; total_words = 0.0;
          parents = [] }
      in
      Hashtbl.replace keys name k;
      k

let reset () =
  Hashtbl.iter
    (fun _ k ->
      k.calls <- 0;
      k.total_s <- 0.0;
      k.self_s <- 0.0;
      k.total_words <- 0.0;
      k.parents <- [])
    keys;
  stack := [];
  top_level_s := 0.0

(* Turning recording on clears what an earlier pass recorded; turning
   it off keeps the record for the report. *)
let enable b =
  if b then reset ();
  enabled := b

let count_parent k parent =
  match List.assq_opt parent k.parents with
  | Some n -> incr n
  | None -> k.parents <- (parent, ref 1) :: k.parents

let close fr =
  let dt = Sim.Clock.now () -. fr.t0 in
  let dw = Gc.minor_words () -. fr.w0 in
  let k = fr.k in
  k.calls <- k.calls + 1;
  k.total_s <- k.total_s +. dt;
  k.self_s <- k.self_s +. (dt -. fr.child_s);
  k.total_words <- k.total_words +. dw;
  match !stack with
  | _ :: (parent :: _ as rest) ->
      stack := rest;
      parent.child_s <- parent.child_s +. dt;
      count_parent k parent.k
  | _ ->
      stack := [];
      top_level_s := !top_level_s +. dt

let time k f =
  if not !enabled then f ()
  else begin
    let fr =
      { k; t0 = Sim.Clock.now (); w0 = Gc.minor_words (); child_s = 0.0 }
    in
    stack := fr :: !stack;
    match f () with
    | v ->
        close fr;
        v
    | exception e ->
        close fr;
        raise e
  end

(* A span with no children, timed without an allocation count: for
   calls too small and frequent (the codec) to pay for a full frame.
   Its allocation shows in the enclosing span's words. *)
let leaf k f =
  if not !enabled then f ()
  else begin
    let t0 = Sim.Clock.now () in
    let v = f () in
    let dt = Sim.Clock.now () -. t0 in
    k.calls <- k.calls + 1;
    k.total_s <- k.total_s +. dt;
    k.self_s <- k.self_s +. dt;
    (match !stack with
     | parent :: _ ->
         parent.child_s <- parent.child_s +. dt;
         count_parent k parent.k
     | [] -> top_level_s := !top_level_s +. dt);
    v
  end

(* (parent, child, calls) for every parent -> child edge seen. *)
let edge_list () =
  Hashtbl.fold
    (fun _ k acc ->
      List.fold_left (fun acc (p, n) -> (p.name, k.name, !n) :: acc) acc k.parents)
    keys []
  |> List.sort compare
