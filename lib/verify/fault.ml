(* Deterministic fault injection into live predictor state.

   Mechanics: the faulted run is an {!Oracle.trace} with a trigger
   check on the retire count as its observer.  When a trigger fires, the
   plan's corruption is applied directly to the pipeline's predictor
   structures through the fault hooks ({!Elag_sim.Pipeline.addr_table}
   and friends).  Corruption draws randomness only from the plan's own
   seeded {!Xorshift} stream, and triggers fire on retire counts, so a
   plan is a pure function of (config, program, plan) — re-running it
   can never flake.

   The invariants checked against the fault-free baseline:
   - program output byte-identical,
   - retired-instruction stream identical ({!Oracle.same_stream}),
   - cycle count >= the fault-free cycle count.

   The first two hold by construction (the pipeline only observes the
   emulator); running them as an executable suite is what protects
   that construction from future refactors.  The third is an empirical
   property of each curated plan: corruptions were chosen to be
   adversarial (lost predictions, misdirected BTB targets), and
   determinism makes the once-verified inequality permanent. *)

module Pipeline = Elag_sim.Pipeline
module Addr_table = Elag_predict.Addr_table
module Stride_entry = Elag_predict.Stride_entry
module Bric = Elag_predict.Bric
module Btb = Elag_predict.Btb
module Json = Elag_telemetry.Json

type target =
  | Table_scramble of { slot : int }
  | Table_pa of { slot : int }
  | Table_state of { slot : int }
  | Bric_flush
  | Bric_delay of { cycles : int }
  | Raddr_unbind
  | Btb_target of { slot : int }
  | Btb_scramble of { slot : int }

type plan =
  { name : string
  ; seed : int
  ; first : int
  ; period : int option
  ; target : target }

(* CLI names for targets: the pp form without brackets, with optional
   ":N" parameters ("table-scramble:17", "bric-delay:8").  Parameters
   default sensibly so `elag fault W MECH bric-flush` just works. *)
let target_of_string s =
  let name, param =
    match String.index_opt s ':' with
    | None -> (s, None)
    | Some i ->
      ( String.sub s 0 i
      , int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  let p default = Option.value param ~default in
  match name with
  | "table-scramble" -> Some (Table_scramble { slot = p 0 })
  | "table-pa" -> Some (Table_pa { slot = p 0 })
  | "table-state" -> Some (Table_state { slot = p 0 })
  | "bric-flush" -> Some Bric_flush
  | "bric-delay" -> Some (Bric_delay { cycles = p 8 })
  | "raddr-unbind" -> Some Raddr_unbind
  | "btb-target" -> Some (Btb_target { slot = p 0 })
  | "btb-scramble" -> Some (Btb_scramble { slot = p 0 })
  | _ -> None

let target_names =
  [ "table-scramble"; "table-pa"; "table-state"; "bric-flush"; "bric-delay"
  ; "raddr-unbind"; "btb-target"; "btb-scramble" ]

let pp_target ppf = function
  | Table_scramble { slot } -> Fmt.pf ppf "table-scramble[%d]" slot
  | Table_pa { slot } -> Fmt.pf ppf "table-pa[%d]" slot
  | Table_state { slot } -> Fmt.pf ppf "table-state[%d]" slot
  | Bric_flush -> Fmt.string ppf "bric-flush"
  | Bric_delay { cycles } -> Fmt.pf ppf "bric-delay[%d]" cycles
  | Raddr_unbind -> Fmt.string ppf "raddr-unbind"
  | Btb_target { slot } -> Fmt.pf ppf "btb-target[%d]" slot
  | Btb_scramble { slot } -> Fmt.pf ppf "btb-scramble[%d]" slot

(* The preset a target rides: each structure exists only under the
   mechanisms that instantiate it — the address table under the table
   and dual presets, the BRIC under calc, R_addr under dual. *)
let preset = function
  | Table_scramble _ | Table_pa _ -> "table-256-cc"
  | Table_state _ | Raddr_unbind -> "dual-cc"
  | Bric_flush | Bric_delay _ -> "calc-8"
  | Btb_target _ | Btb_scramble _ -> "baseline"

(* --- corruption ------------------------------------------------------- *)

(* A tag no compiled program's pc can reach: code segments are a few
   thousand instructions at most. *)
let bogus_tag rng = 0x40000000 + Xorshift.int rng 0x10000

(* Slot indices in a plan are starting points, not exact addresses:
   corruption scans forward (wrapping) to the first *live* slot, so a
   trigger always lands on real predictor state whenever any exists —
   a plan whose fixed slot happened to be empty would verify nothing. *)
let find_live size valid start =
  let rec go k =
    if k = size then None
    else
      let i = (start + k) mod size in
      if valid i then Some i else go (k + 1)
  in
  go 0

let with_live_table pipe slot f =
  match Pipeline.addr_table pipe with
  | None -> false
  | Some tbl -> (
    let size = Addr_table.size tbl in
    let valid i = fst (Addr_table.slot tbl i) >= 0 in
    match find_live size valid (slot mod size) with
    | None -> false
    | Some i ->
      f tbl i;
      true)

(* The pipeline's register cache is the BRIC under calc-N and R_addr,
   a one-entry BRIC, under dual-*: the bric-* targets act on the former
   only and raddr-unbind on the latter only. *)
let with_reg_cache pipe ~dual f =
  let is_dual =
    match (Pipeline.config pipe).mechanism with Elag_sim.Config.Dual _ -> true | _ -> false
  in
  match Pipeline.bric pipe with
  | Some c when is_dual = dual && Bric.resident_count c > 0 ->
    f c;
    true
  | _ -> false

(* Apply one corruption; returns whether live state was actually hit
   (an absent structure or a fully-empty one is a no-op trigger). *)
let apply pipe rng target =
  match target with
  | Table_scramble { slot } ->
    with_live_table pipe slot (fun tbl i -> Addr_table.set_tag tbl i (bogus_tag rng))
  | Table_pa { slot } ->
    with_live_table pipe slot (fun tbl i ->
        (* Misdirect the next prediction to an unrelated line; the
           entry self-corrects at that load's next update. *)
        let _, entry = Addr_table.slot tbl i in
        entry.Stride_entry.pa <- Xorshift.int rng 0x100000)
  | Table_state { slot } ->
    with_live_table pipe slot (fun tbl i ->
        let _, entry = Addr_table.slot tbl i in
        entry.Stride_entry.state <- Stride_entry.Learning;
        entry.Stride_entry.stc <- false)
  | Bric_flush -> with_reg_cache pipe ~dual:false Bric.flush
  | Bric_delay { cycles } ->
    with_reg_cache pipe ~dual:false (Bric.delay ~until:(Pipeline.current_cycle pipe + cycles))
  | Raddr_unbind -> with_reg_cache pipe ~dual:true Bric.flush
  | Btb_target { slot } -> (
    let btb = Pipeline.btb pipe in
    let size = Btb.size btb in
    match find_live size (Btb.slot_valid btb) (slot mod size) with
    | None -> false
    | Some i ->
      (* A negative target can never match a real branch target, so a
         taken-prediction through this entry always misfetches. *)
      Btb.corrupt btb ~slot:i ~target:(-(1 + Xorshift.int rng 4096)) ();
      true)
  | Btb_scramble { slot } -> (
    let btb = Pipeline.btb pipe in
    let size = Btb.size btb in
    match find_live size (Btb.slot_valid btb) (slot mod size) with
    | None -> false
    | Some i ->
      Btb.corrupt btb ~slot:i ~tag:(bogus_tag rng) ();
      true)

(* --- running ---------------------------------------------------------- *)

type outcome =
  { plan : plan
  ; injections : int
  ; faulted_cycles : int
  ; clean_cycles : int
  ; output_ok : bool
  ; stream_ok : bool
  ; cycles_ok : bool }

let outcome_ok o = o.output_ok && o.stream_ok && o.cycles_ok

let run_plan ?max_insns ?deadline ~(baseline : Oracle.trace)
    (cfg : Elag_sim.Config.t) program (plan : plan) =
  if plan.first < 0 then invalid_arg "Fault.run_plan: negative first";
  (match plan.period with
  | Some p when p <= 0 -> invalid_arg "Fault.run_plan: non-positive period"
  | _ -> ());
  let rng = Xorshift.create plan.seed in
  let retired = ref 0 in
  let injections = ref 0 in
  let next_trigger = ref plan.first in
  let trigger pipe _ _ _ _ _ =
    incr retired;
    if !retired >= !next_trigger then begin
      if apply pipe rng plan.target then incr injections;
      next_trigger :=
        (match plan.period with
        | Some p -> !next_trigger + p
        | None -> max_int)
    end
  in
  let faulted = Oracle.trace ?max_insns ?deadline ~observer:trigger cfg program in
  { plan
  ; injections = !injections
  ; faulted_cycles = faulted.cycles
  ; clean_cycles = baseline.cycles
  ; output_ok = String.equal faulted.output baseline.output
  ; stream_ok = Oracle.same_stream faulted baseline
  ; cycles_ok = faulted.cycles >= baseline.cycles }

let pp_outcome ppf o =
  Fmt.pf ppf "%-24s %a seed=%-6d inj=%-3d cycles %d -> %d  %s" o.plan.name
    pp_target o.plan.target o.plan.seed o.injections o.clean_cycles
    o.faulted_cycles
    (if outcome_ok o then "ok"
     else
       String.concat ","
         (List.filter_map
            (fun (b, s) -> if b then None else Some s)
            [ (o.output_ok, "OUTPUT")
            ; (o.stream_ok, "STREAM")
            ; (o.cycles_ok, "CYCLES") ]))

let outcome_to_json o =
  Json.Obj
    [ ("name", Json.String o.plan.name)
    ; ("target", Json.String (Fmt.str "%a" pp_target o.plan.target))
    ; ("seed", Json.Int o.plan.seed)
    ; ("first", Json.Int o.plan.first)
    ; ( "period"
      , match o.plan.period with Some p -> Json.Int p | None -> Json.Null )
    ; ("injections", Json.Int o.injections)
    ; ("clean_cycles", Json.Int o.clean_cycles)
    ; ("faulted_cycles", Json.Int o.faulted_cycles)
    ; ("output_ok", Json.Bool o.output_ok)
    ; ("stream_ok", Json.Bool o.stream_ok)
    ; ("cycles_ok", Json.Bool o.cycles_ok)
    ; ("ok", Json.Bool (outcome_ok o)) ]
