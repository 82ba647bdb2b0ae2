(** Stable intern table: process ids to dense array slots.

    The index space of the flat state store (DESIGN.md §11): the
    {!Access} store keeps one array cell per interned process, and a
    slot never moves while its id holds it, so slots stay valid as
    indexes across arbitrary join/leave/crash churn. Slots are handed
    out densely — never-used slots in increasing order, released slots
    recycled LIFO — so the store's arrays stay compact.

    The DR-tree overlay interns on join and {e never releases}: a
    crashed process's state must stay readable ({!Invariant} walks
    ancestor chains through dead processes). {!release} exists for layers whose id space is
    genuinely sparse (a future socket transport); its slot-reuse
    contract is pinned by the qcheck suite in [test_state_layout.ml]. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty table. [capacity] (default 64) pre-sizes the arrays. *)

val intern : t -> Sim.Node_id.t -> int
(** [intern t id] is [id]'s slot, assigning one on first sight.
    Idempotent; a live id's slot is stable for its lifetime. Fresh
    slots are the lowest released slot (LIFO) or the next never-used
    one, so the slot space stays dense: after [n] interns with no
    releases the slots are exactly [0 .. n-1].
    @raise Invalid_argument on a negative id. *)

val find : t -> Sim.Node_id.t -> int option
(** The slot currently held by [id], without interning. *)

val mem : t -> Sim.Node_id.t -> bool

val resolve : t -> int -> Sim.Node_id.t option
(** The id currently holding a slot: [resolve t (intern t id) = Some id]
    for every live [id]. [None] for free or never-assigned slots. *)

val release : t -> Sim.Node_id.t -> unit
(** Return [id]'s slot to the free list for reuse by a {e later}
    [intern]; a no-op for unknown ids. While an id is live its slot is
    never handed to another id. *)

val live : t -> int
(** Number of currently interned ids. *)

val capacity : t -> int
(** Extent of the slot space: every assigned slot is below this, so it
    is the length any slot-indexed array must have. Monotone — releases
    recycle slots but never shrink the extent. *)

val iter : t -> (Sim.Node_id.t -> int -> unit) -> unit
(** Live (id, slot) pairs in slot order — deterministic. *)
