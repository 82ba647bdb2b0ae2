(** Per-process DR-tree state (§3.2, "Data Structures").

    {2 Level convention}

    The paper numbers tree levels from the root (root = 0, growing
    toward the leaves), but a root split would then renumber every
    level — impossible to do locally. We use the equivalent
    {e height-from-leaves} convention: leaf instances sit at height
    [0], their parents at height [1], the root instance at height
    [height of the tree]. The paper's level [l+1] (children) is our
    height [h-1].

    A process [p] is recursively its own child (§3): if [p] is an
    interior instance at height [h], then [p] is active at every
    height [0..h], [p ∈ children h' p] for [1 <= h' <= h], and
    [parent h' p = p] for [h' < h]. Only the topmost instance has an
    external parent (the root's topmost parent is itself).

    Per active height the process keeps the paper's four variables:
    children set, MBR, parent pointer and the [underloaded] flag. The
    subscription [filter] is constant and non-corruptible. All other
    fields are mutable: transient faults may set them to arbitrary
    values ({!Corrupt}), and the stabilization modules must recover. *)

type level = {
  mutable children : Sim.Node_id.Set.t;
      (** children at height [h] (instances at height [h-1]); empty and
          meaningless at height [0] *)
  mutable mbr : Geometry.Rect.t;
  mutable parent : Sim.Node_id.t;
  mutable underloaded : bool;
}

type t

val create :
  ?seen_capacity:int ->
  id:Sim.Node_id.t ->
  filter:Geometry.Rect.t ->
  unit ->
  t
(** A fresh, isolated process: active at height [0] only, with
    [mbr = filter] and [parent = id] (it is its own root).
    [seen_capacity] (default 4096, see {!Config.t}) bounds the
    {!mark_seen} dedup window. The levels are a dense array delimited
    by [top], exploiting the invariant that active heights are always
    the contiguous range [0..top] (DESIGN.md §11).
    @raise Invalid_argument if [seen_capacity < 1]. *)

val id : t -> Sim.Node_id.t
val filter : t -> Geometry.Rect.t

val top : t -> int
(** Topmost active height. *)

val is_active : t -> int -> bool
(** [is_active s h] is true iff the process has an instance at height
    [h] (0 <= h <= top). *)

val level : t -> int -> level option
(** The state of the instance at height [h], if active. *)

val level_exn : t -> int -> level
(** @raise Invalid_argument when inactive at [h]. *)

val activate : t -> int -> level
(** [activate s h] makes the process active at height [h] (creating
    empty level state, parent = self, mbr = filter) and at every
    height below it, raising [top] as needed. Returns the level. *)

val deactivate_above : t -> int -> unit
(** [deactivate_above s h] drops every instance strictly above height
    [h] (after losing a role to another process). *)

val is_root : t -> int -> bool
(** [is_root s h]: the instance at [h] is the tree root — it is the
    topmost instance and its parent is the process itself. *)

val mbr_at : t -> int -> Geometry.Rect.t option
(** MBR of the instance at height [h] ([filter] at height 0 unless
    corrupted). *)

val memory_words : t -> int
(** Rough memory footprint in words of the maintenance state: per
    active level, the children ids + 4 MBR bounds + parent +
    flag. Lemma 3.1's measure. *)

val pp : Format.formatter -> t -> unit

(** {2 Delivery bookkeeping (dissemination metrics)} *)

val mark_seen : t -> int -> bool
(** [mark_seen s event_id] registers that this process was touched by
    the event; returns [true] the first time, [false] on duplicates
    (transport-level dedup, makes dissemination idempotent under
    corrupted topologies). The table is a FIFO window of at most
    [seen_capacity] ids — the oldest is evicted beyond that, so a
    long-lived process's memory stays flat; dedup holds within the
    window, which spans far more than one dissemination. *)

val seen_size : t -> int
(** Current population of the dedup window (for the memory-flatness
    regression test). *)

val clear_seen : t -> unit
