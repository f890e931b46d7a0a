(* Base-register cache (BRIC) for the hardware-only early-calculation
   baseline, after Austin & Sohi: an N-entry cache of base-register
   identities whose values are kept coherent with the register file by
   multicast writes.  At one entry it is the paper's R_addr (§3.2.1).

   Value coherence is modeled by the pipeline through the register
   scoreboard (a cached value is stale exactly when a write to the
   register is in flight), so the structure itself only tracks which
   registers are resident, with LRU replacement, plus the cycle an
   entry became resident (an entry allocated by this very load has no
   value yet). *)

type t =
  { capacity : int
  ; regs : int array         (* resident registers, MRU first *)
  ; valid_from : int array   (* cycle each entry's value becomes usable *)
  ; mutable resident : int   (* live prefix length of the two arrays *)
  ; mutable probes : int
  ; mutable hits : int
  ; mutable evictions : int }

let create capacity =
  if capacity <= 0 then invalid_arg "Bric.create";
  { capacity
  ; regs = Array.make capacity 0
  ; valid_from = Array.make capacity 0
  ; resident = 0
  ; probes = 0
  ; hits = 0
  ; evictions = 0 }

(* Position of [reg] in the MRU order, or -1. *)
let rec position t reg i =
  if i = t.resident then -1
  else if t.regs.(i) = reg then i
  else position t reg (i + 1)

(* Shift entries [0, i) down one place and put (reg, valid_from) first. *)
let make_mru t i reg valid_from =
  for j = i downto 1 do
    t.regs.(j) <- t.regs.(j - 1);
    t.valid_from.(j) <- t.valid_from.(j - 1)
  done;
  t.regs.(0) <- reg;
  t.valid_from.(0) <- valid_from

(* Pure hit test: resident with a usable value, no side effects. *)
let peek t ~cycle reg =
  let i = position t reg 0 in
  i >= 0 && cycle >= t.valid_from.(i)

(* Probe for [reg] at [cycle]; allocates on miss (the entry's value
   becomes usable next cycle, after the register file is read).
   Returns true when the register was resident with a usable value. *)
let probe t ~cycle reg =
  t.probes <- t.probes + 1;
  let i = position t reg 0 in
  if i >= 0 then begin
    let valid_from = t.valid_from.(i) in
    make_mru t i reg valid_from;
    let usable = cycle >= valid_from in
    if usable then t.hits <- t.hits + 1;
    usable
  end
  else begin
    (* a full cache drops its LRU (last) entry *)
    if t.resident >= t.capacity then t.evictions <- t.evictions + 1
    else t.resident <- t.resident + 1;
    make_mru t (t.resident - 1) reg (cycle + 1);
    false
  end

type stats = { br_probes : int; br_hits : int; br_evictions : int }

let stats t = { br_probes = t.probes; br_hits = t.hits; br_evictions = t.evictions }

(* --- fault-injection hooks (lib/verify) ------------------------------ *)

let flush t = t.resident <- 0

let delay t ~until =
  for i = 0 to t.resident - 1 do
    if t.valid_from.(i) < until then t.valid_from.(i) <- until
  done

let resident_count t = t.resident
