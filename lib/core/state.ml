module Rect = Geometry.Rect
module Node_id = Sim.Node_id

type level = {
  mutable children : Node_id.Set.t;
  mutable mbr : Rect.t;
  mutable parent : Node_id.t;
  mutable underloaded : bool;
}

(* Active heights are always the dense range 0..top ([activate] fills
   every height below, [deactivate_above] only trims from the top, so
   gaps are unrepresentable): the levels live in a plain array
   delimited by [top], making every hot-path read an array index
   (DESIGN.md §11). Cells above [top] are inert spares — re-activation
   resets them in place to the fresh-level values. *)
type t = {
  id : Node_id.t;
  filter : Rect.t;
  mutable levels : level array;
  mutable top : int;
  seen : (int, unit) Hashtbl.t;
  seen_order : int Queue.t;
      (* insertion order of [seen], oldest first: the eviction queue
         that keeps the dedup window at [seen_capacity] entries *)
  seen_capacity : int;
}

let fresh_level ~id ~filter =
  { children = Node_id.Set.empty; mbr = filter; parent = id;
    underloaded = false }

(* In-place equivalent of installing a [fresh_level]: cells are reused
   across deactivate/activate cycles instead of reallocated. *)
let reset_level ~id ~filter l =
  l.children <- Node_id.Set.empty;
  l.mbr <- filter;
  l.parent <- id;
  l.underloaded <- false

let create ?(seen_capacity = 4096) ~id ~filter () =
  if seen_capacity < 1 then invalid_arg "State.create: seen_capacity < 1";
  { id; filter; levels = Array.init 4 (fun _ -> fresh_level ~id ~filter);
    top = 0; seen = Hashtbl.create 16; seen_order = Queue.create ();
    seen_capacity }

let id s = s.id
let filter s = s.filter
let top s = s.top

let is_active s h = h >= 0 && h <= s.top
let level s h = if h < 0 || h > s.top then None else Some s.levels.(h)

let level_exn s h =
  match level s h with
  | Some l -> l
  | None ->
      invalid_arg
        (Format.asprintf "State.level_exn: %a inactive at height %d"
           Node_id.pp s.id h)

let activate s h =
  if h < 0 then invalid_arg "State.activate: negative height";
  let cap = Array.length s.levels in
  if h >= cap then begin
    let ncap = max (h + 1) (2 * cap) in
    s.levels <-
      Array.init ncap (fun i ->
          if i < cap then s.levels.(i)
          else fresh_level ~id:s.id ~filter:s.filter)
  end;
  (* Spare cells above [top] may hold stale values from a previous
     activation; bring the newly active range up fresh. *)
  for h' = s.top + 1 to h do
    reset_level ~id:s.id ~filter:s.filter s.levels.(h')
  done;
  if h > s.top then s.top <- h;
  level_exn s h

(* Cells above [top] are inert; [activate] resets them. *)
let deactivate_above s h = if s.top > max h 0 then s.top <- max h 0

let is_root s h =
  h = s.top
  &&
  match level s h with
  | Some l -> Node_id.equal l.parent s.id
  | None -> false

let mbr_at s h = Option.map (fun l -> l.mbr) (level s h)

let memory_words s =
  let per_level l acc =
    acc + Node_id.Set.cardinal l.children + 4 (* mbr bounds *) + 1 (* parent *)
    + 1 (* flag *)
  in
  let acc = ref 0 in
  for h = 0 to s.top do
    acc := per_level s.levels.(h) !acc
  done;
  !acc

let pp ppf s =
  Format.fprintf ppf "@[<v>%a filter=%a top=%d" Node_id.pp s.id Rect.pp
    s.filter s.top;
  for h = 0 to s.top do
    let l = s.levels.(h) in
    Format.fprintf ppf "@,  h%d: parent=%a mbr=%a children={%a}%s" h
      Node_id.pp l.parent Rect.pp l.mbr
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Node_id.pp)
      (Node_id.Set.elements l.children)
      (if l.underloaded then " underloaded" else "")
  done;
  Format.fprintf ppf "@]"

let mark_seen s event_id =
  if Hashtbl.mem s.seen event_id then false
  else begin
    Hashtbl.replace s.seen event_id ();
    Queue.push event_id s.seen_order;
    while Hashtbl.length s.seen > s.seen_capacity do
      Hashtbl.remove s.seen (Queue.pop s.seen_order)
    done;
    true
  end

let seen_size s = Hashtbl.length s.seen

let clear_seen s =
  Hashtbl.reset s.seen;
  Queue.clear s.seen_order
