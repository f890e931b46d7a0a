(* PC-indexed, direct-mapped address prediction table (paper §3.2.2).

   Each entry holds {tag, PA, ST, STC} driven by the Figure 3 state
   machine.  A probe that misses makes no prediction; the entry is
   (re)allocated at update time. *)

type slot =
  { mutable tag : int  (* -1 = invalid *)
  ; entry : Stride_entry.t }

type t =
  { slots : slot array
  ; mask : int  (* entries - 1 when entries is a power of two, else -1 *)
  ; mutable probes : int
  ; mutable hits : int
  ; mutable correct : int }

let create entries =
  if entries <= 0 then invalid_arg "Addr_table.create";
  { slots =
      Array.init entries (fun _ -> { tag = -1; entry = Stride_entry.allocate 0 })
  ; mask = (if entries land (entries - 1) = 0 then entries - 1 else -1)
  ; probes = 0
  ; hits = 0
  ; correct = 0 }

let size t = Array.length t.slots

(* [pc >= 0]; a mask instead of a division for power-of-two sizes *)
let index t pc = if t.mask >= 0 then pc land t.mask else pc mod Array.length t.slots

(* Pure tag check: does the table predict an address for [pc]?  No
   statistics. *)
let peek t pc = t.slots.(index t pc).tag = pc

(* Probe at decode: the counted {!peek}. *)
let probe t pc =
  t.probes <- t.probes + 1;
  let hit = peek t pc in
  if hit then t.hits <- t.hits + 1;
  hit

(* The address the slot [pc] maps to predicts; meaningful after a
   {!peek} or {!probe} hit. *)
let predicted_address t pc =
  Stride_entry.predicted_address t.slots.(index t pc).entry

(* Update at the MEM stage with the computed address; allocates or
   replaces the entry on a tag mismatch.  Returns whether a previously
   predicted address matched (for statistics). *)
let update t pc ca =
  let slot = t.slots.(index t pc) in
  if slot.tag = pc then begin
    let correct = Stride_entry.update slot.entry ca in
    if correct then t.correct <- t.correct + 1;
    correct
  end
  else begin
    slot.tag <- pc;
    Stride_entry.replace slot.entry ca;
    false
  end

type stats = { st_probes : int; st_hits : int; st_correct : int }

let stats t = { st_probes = t.probes; st_hits = t.hits; st_correct = t.correct }

(* --- fault-injection hooks (lib/verify) ------------------------------ *)

let slot t i =
  if i < 0 || i >= Array.length t.slots then invalid_arg "Addr_table.slot";
  let s = t.slots.(i) in
  (s.tag, s.entry)

let set_tag t i tag =
  if i < 0 || i >= Array.length t.slots then invalid_arg "Addr_table.set_tag";
  t.slots.(i).tag <- tag
