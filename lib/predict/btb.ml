(* Branch target buffer: direct-mapped, tagged, with 2-bit saturating
   counters (the paper's 1K-entry, 2-bit configuration). *)

type slot =
  { mutable tag : int  (* -1 = invalid *)
  ; mutable target : int
  ; mutable counter : int (* 0..3; >=2 predicts taken *) }

type t =
  { slots : slot array
  ; mask : int  (* entries - 1 when entries is a power of two, else -1 *) }

type prediction = { pred_taken : bool; pred_target : int }

let create entries =
  if entries <= 0 then invalid_arg "Btb.create";
  { slots = Array.init entries (fun _ -> { tag = -1; target = 0; counter = 0 })
  ; mask = (if entries land (entries - 1) = 0 then entries - 1 else -1) }

(* [pc >= 0]; a mask instead of a division for power-of-two sizes *)
let index t pc = if t.mask >= 0 then pc land t.mask else pc mod Array.length t.slots

(* Predict the outcome of the control instruction at [pc].  A BTB miss
   predicts not-taken (sequential fetch). *)
let predict t pc =
  let slot = t.slots.(index t pc) in
  if slot.tag = pc then { pred_taken = slot.counter >= 2; pred_target = slot.target }
  else { pred_taken = false; pred_target = pc + 1 }

(* Resolve with the actual outcome; returns [true] when the earlier
   prediction was correct (same direction, and same target if taken).
   Allocation-free: it runs once per retired control transfer. *)
let update t pc ~taken ~target =
  let slot = t.slots.(index t pc) in
  let hit = slot.tag = pc in
  let pred_taken = hit && slot.counter >= 2 in
  let pred_target = if hit then slot.target else pc + 1 in
  let correct = pred_taken = taken && ((not taken) || pred_target = target) in
  if hit then begin
    slot.counter <-
      (if taken then Int.min 3 (slot.counter + 1) else Int.max 0 (slot.counter - 1));
    if taken then slot.target <- target
  end
  else if taken then begin
    (* allocate on taken branches *)
    slot.tag <- pc;
    slot.target <- target;
    slot.counter <- 2
  end;
  correct

(* --- fault-injection hooks (lib/verify) ------------------------------ *)

let size t = Array.length t.slots

let slot_valid t i =
  if i < 0 || i >= Array.length t.slots then invalid_arg "Btb.slot_valid";
  t.slots.(i).tag >= 0

let corrupt t ~slot:i ?target ?counter ?tag () =
  if i < 0 || i >= Array.length t.slots then invalid_arg "Btb.corrupt";
  let s = t.slots.(i) in
  (match target with Some v -> s.target <- v | None -> ());
  (match counter with Some v -> s.counter <- max 0 (min 3 v) | None -> ());
  (match tag with Some v -> s.tag <- v | None -> ())
