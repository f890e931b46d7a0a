(* Set-associative cache model with LRU replacement (tags only — data
   correctness is the emulator's job).  The paper's configuration is
   direct-mapped ([ways = 1], the default); higher associativity is
   available for the ablation benches.  [probe] is pure; [access]
   fills on a miss.  Every operation is allocation-free: it runs on the
   timing pipeline's per-retire path. *)

type t =
  { line_bits : int
  ; sets : int
  ; set_mask : int         (* sets - 1 when sets is a power of two, else -1 *)
  ; ways : int
  ; tags : int array       (* sets*ways entries, -1 = invalid; tag = line *)
  ; stamps : int array     (* LRU timestamps, parallel to tags *)
  ; mutable clock : int
  ; mutable accesses : int
  ; mutable misses : int }

let log2 n =
  let rec go k v = if v >= n then k else go (k + 1) (v * 2) in
  go 0 1

let create ?(ways = 1) ~size_bytes ~line_bytes () =
  if
    size_bytes <= 0 || line_bytes <= 0 || ways <= 0
    || size_bytes mod (line_bytes * ways) <> 0
  then invalid_arg "Cache.create";
  let sets = size_bytes / line_bytes / ways in
  { line_bits = log2 line_bytes
  ; sets
  ; set_mask = (if sets land (sets - 1) = 0 then sets - 1 else -1)
  ; ways
  ; tags = Array.make (sets * ways) (-1)
  ; stamps = Array.make (sets * ways) 0
  ; clock = 0
  ; accesses = 0
  ; misses = 0 }

(* First slot of the set holding [line] ([line >= 0]: a logical shift). *)
let set_base t line =
  (if t.set_mask >= 0 then line land t.set_mask else line mod t.sets) * t.ways

(* Index of the slot in [i, stop) holding [tag], or -1. *)
let rec find_way (tags : int array) (tag : int) i stop =
  if i = stop then -1
  else if Array.unsafe_get tags i = tag then i
  else find_way tags tag (i + 1) stop

let lookup t line =
  let base = set_base t line in
  find_way t.tags line base (base + t.ways)

(* Pure hit test: no statistics, no fill, no LRU update. *)
let probe t addr = lookup t (addr lsr t.line_bits) >= 0

let victim_way t base =
  let best = ref base in
  for i = base + 1 to base + t.ways - 1 do
    if t.stamps.(i) < t.stamps.(!best) then best := i
  done;
  !best

(* Count the access and refresh LRU on a hit; returns the hit slot or
   -1 on a miss (counted). *)
let touch t line =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let i = lookup t line in
  if i >= 0 then t.stamps.(i) <- t.clock else t.misses <- t.misses + 1;
  i

(* A load-side access: counts, updates LRU, fills the line on a miss. *)
let access t addr =
  let line = addr lsr t.line_bits in
  touch t line >= 0
  || begin
    let v = victim_way t (set_base t line) in
    t.tags.(v) <- line;
    t.stamps.(v) <- t.clock;
    false
  end

(* A store-side access: write-through, no write-allocate. *)
let access_store t addr = touch t (addr lsr t.line_bits) >= 0

let stats t = (t.accesses, t.misses)
