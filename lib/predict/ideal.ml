(* Unbounded per-PC stride predictor used for the prediction-rate
   methodology of Table 2: "a simulation methodology that performs
   individual operation prediction ... not affected by the limitations
   of a prediction cache".

   Every static load gets its own Figure 3 state machine; the
   prediction rate of a load is the fraction of its dynamic executions
   whose address was predicted correctly (the first execution cannot
   be). *)

type counters =
  { mutable executions : int
  ; mutable correct : int
  ; entry : Stride_entry.t }

(* Indexed by pc, grown on demand; [unseen] marks a pc with no load
   executed yet.  Observing a load allocates only on its first
   execution. *)
type t = { mutable by_pc : counters array }

let unseen = { executions = 0; correct = 0; entry = Stride_entry.allocate 0 }

let create () : t = { by_pc = Array.make 256 unseen }

let find (t : t) pc =
  if pc >= 0 && pc < Array.length t.by_pc then t.by_pc.(pc) else unseen

(* Observe one dynamic execution of the load at [pc] with computed
   address [ca]. *)
let observe (t : t) ~pc ~ca =
  let n = Array.length t.by_pc in
  if pc >= n then begin
    let by_pc = Array.make (Int.max (2 * n) (pc + 1)) unseen in
    Array.blit t.by_pc 0 by_pc 0 n;
    t.by_pc <- by_pc
  end;
  let c = t.by_pc.(pc) in
  if c == unseen then
    (* first execution: the allocation records ca, and the update that
       follows cannot have been predicted *)
    let c = { executions = 1; correct = 0; entry = Stride_entry.allocate ca } in
    t.by_pc.(pc) <- c;
    ignore (Stride_entry.update c.entry ca)
  else begin
    c.executions <- c.executions + 1;
    if Stride_entry.update c.entry ca then c.correct <- c.correct + 1
  end

let rate (t : t) pc =
  let c = find t pc in
  if c.executions > 0 then
    Some (float_of_int c.correct /. float_of_int c.executions)
  else None

let executions (t : t) pc = (find t pc).executions

(* Aggregate prediction rate over a set of loads, dynamically weighted:
   total correct / total executions. *)
let aggregate_rate (t : t) pcs =
  let correct, total =
    List.fold_left
      (fun (c, n) pc ->
        let k = find t pc in
        (c + k.correct, n + k.executions))
      (0, 0) pcs
  in
  if total = 0 then None else Some (float_of_int correct /. float_of_int total)
