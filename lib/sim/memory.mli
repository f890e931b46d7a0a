(** Paged little-endian byte-addressable memory of {!default_size}
    bytes.  Untouched 4 KiB pages share one read-only zero page; a page
    is allocated on its first write, so a memory costs its page table
    plus the pages its program writes. *)

type t

exception Fault of int
(** Raised on out-of-range accesses, carrying the faulting address. *)

val default_size : int
(** 16 MiB: every access must lie inside [\[0, default_size)]. *)

val create : unit -> t
(** An all-zero memory; allocates only the page table. *)

val read_byte_u : t -> int -> int
val read_byte_s : t -> int -> int
val read_half_u : t -> int -> int
val read_half_s : t -> int -> int

val read_word : t -> int -> int
(** Normalized to the signed 32-bit range. *)

val write_byte : t -> int -> int -> unit
val write_half : t -> int -> int -> unit
val write_word : t -> int -> int -> unit

val load_image : t -> (int * string) list -> unit
(** Copy an initial data image (address, bytes) into memory. *)
