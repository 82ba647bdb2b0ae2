module Node_id = Sim.Node_id

(* A stable intern table from process ids to dense array slots: the
   index space of the flat state store (DESIGN.md §11).

   Today engine-assigned ids are themselves dense, so the table looks
   redundant; it exists so that nothing above it depends on that
   accident. A slot, once assigned, never moves while its id holds it
   — every array the slot indexes stays valid across arbitrary churn —
   and [release] recycles slots through a LIFO free list so a future
   transport with sparse ids (real sockets) keeps the store compact.
   The DR-tree overlay itself never releases: crashed processes' state
   stays readable ({!Invariant} walks ancestor chains through dead
   processes), exactly as the hashed store retains it.

   Both directions are plain int arrays: [slots] is indexed by id
   (dense by construction of the engine; -1 = never interned) and
   [ids] by slot (-1 = free). Lookup is an array read — no hashing on
   the hot path, which is the point of the exercise. *)

type t = {
  mutable slots : int array; (* id -> slot, -1 when not interned *)
  mutable ids : int array; (* slot -> id, -1 when free *)
  mutable free : int list; (* released slots, reused LIFO *)
  mutable next : int; (* next never-used slot *)
  mutable live : int;
}

let create ?(capacity = 64) () =
  let capacity = max 1 capacity in
  { slots = Array.make capacity (-1); ids = Array.make capacity (-1);
    free = []; next = 0; live = 0 }

let grow_to arr n =
  let cap = Array.length arr in
  if n <= cap then arr
  else begin
    let ncap = max n (2 * cap) in
    let a = Array.make ncap (-1) in
    Array.blit arr 0 a 0 cap;
    a
  end

let find t id =
  if id < 0 || id >= Array.length t.slots then None
  else match t.slots.(id) with -1 -> None | s -> Some s

let mem t id = find t id <> None

let resolve t slot =
  if slot < 0 || slot >= Array.length t.ids then None
  else match t.ids.(slot) with -1 -> None | id -> Some id

let intern t id =
  if id < 0 then invalid_arg "Intern.intern: negative id";
  t.slots <- grow_to t.slots (id + 1);
  match t.slots.(id) with
  | -1 ->
      let slot =
        match t.free with
        | s :: rest ->
            t.free <- rest;
            s
        | [] ->
            let s = t.next in
            t.next <- s + 1;
            s
      in
      t.ids <- grow_to t.ids (slot + 1);
      t.slots.(id) <- slot;
      t.ids.(slot) <- id;
      t.live <- t.live + 1;
      slot
  | slot -> slot

let release t id =
  match find t id with
  | None -> ()
  | Some slot ->
      t.slots.(id) <- -1;
      t.ids.(slot) <- -1;
      t.free <- slot :: t.free;
      t.live <- t.live - 1

let live t = t.live
let capacity t = t.next

(* Slot order — deterministic, and the iteration order of every flat
   array the table indexes. *)
let iter t f =
  for slot = 0 to t.next - 1 do
    match t.ids.(slot) with -1 -> () | id -> f id slot
  done
