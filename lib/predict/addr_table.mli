(** PC-indexed, direct-mapped address prediction table (paper §3.2.2).
    Each entry holds \{tag, PA, ST, STC\} driven by the Figure 3 state
    machine; a probe that misses makes no prediction, and entries are
    (re)allocated at update time. *)

type t

val create : int -> t
(** [create entries]; raises [Invalid_argument] on a non-positive
    size. *)

val size : t -> int

val peek : t -> int -> bool
(** Pure tag check: whether the table predicts an address for this
    pc.  No statistics; used during issue-cycle search. *)

val probe : t -> int -> bool
(** Like {!peek} but counts a probe, and a hit on a tag match (the
    decode-stage access). *)

val predicted_address : t -> int -> int
(** The address predicted for this pc; meaningful only after a
    {!peek} or {!probe} hit. *)

val update : t -> int -> int -> bool
(** [update t pc ca]: feed the computed address at the MEM stage;
    allocates/replaces on tag mismatch.  Returns whether the predicted
    address matched. *)

type stats = { st_probes : int; st_hits : int; st_correct : int }

val stats : t -> stats

(** {2 Fault-injection hooks}

    Direct slot access for {!Elag_verify.Fault}, which corrupts
    \{tag, PA, ST, STC\} state mid-run to prove predictions are
    timing-only hints.  Not used on the simulation fast path. *)

val slot : t -> int -> int * Stride_entry.t
(** [(tag, entry)] at a slot index ([tag = -1] when invalid); the
    stride entry is the live mutable record.  Raises
    [Invalid_argument] out of range. *)

val set_tag : t -> int -> int -> unit
(** Overwrite a slot's tag (e.g. [-1] to invalidate, or a bogus pc to
    detach the entry from its load).  Raises [Invalid_argument] out of
    range. *)
