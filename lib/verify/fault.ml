(* Deterministic fault injection into live predictor state.

   Mechanics: the faulted run drives the normal pipeline observer, plus
   a trigger check on the retire count.  When a trigger fires, the
   plan's corruption is applied directly to the pipeline's predictor
   structures through the fault hooks ({!Elag_sim.Pipeline.addr_table}
   and friends).  Corruption draws randomness only from the plan's own
   seeded {!Xorshift} stream, and triggers fire on retire counts, so a
   plan is a pure function of (config, program, plan) — re-running it
   can never flake.

   The invariants checked against the fault-free baseline:
   - program output byte-identical,
   - retired-instruction stream identical (FNV fingerprint + count),
   - cycle count >= the fault-free cycle count.

   The first two hold by construction (the pipeline only observes the
   emulator); running them as an executable suite is what protects
   that construction from future refactors.  The third is an empirical
   property of each curated plan: corruptions were chosen to be
   adversarial (lost predictions, misdirected BTB targets), and
   determinism makes the once-verified inequality permanent. *)

module Insn = Elag_isa.Insn
module Pipeline = Elag_sim.Pipeline
module Emulator = Elag_sim.Emulator
module Addr_table = Elag_predict.Addr_table
module Stride_entry = Elag_predict.Stride_entry
module Bric = Elag_predict.Bric
module Raddr = Elag_predict.Raddr
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

(* --- retire-stream fingerprint ---------------------------------------- *)

(* FNV-1a over the observer tuple.  [Hashtbl.hash] on the instruction
   is deterministic for a given compiler, which is all the comparison
   between two runs in the same process (or CI job) needs. *)

let fnv_prime = 0x100000001B3

let stream_hash_init = 0x4BF29CE484222325

let mix h x = (h lxor (x land max_int)) * fnv_prime land max_int

let stream_hash_step h pc insn eff taken next_pc =
  let h = mix h pc in
  let h = mix h (Hashtbl.hash insn) in
  let h = mix h eff in
  let h = mix h (if taken then 1 else 0) in
  mix h next_pc

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
  | Bric_flush -> (
    match Pipeline.bric pipe with
    | None -> false
    | Some bric ->
      if Bric.resident_count bric = 0 then false
      else begin
        Bric.flush bric;
        true
      end)
  | Bric_delay { cycles } -> (
    match Pipeline.bric pipe with
    | None -> false
    | Some bric ->
      if Bric.resident_count bric = 0 then false
      else begin
        Bric.delay bric ~until:(Pipeline.current_cycle pipe + cycles);
        true
      end)
  | Raddr_unbind -> (
    match Pipeline.raddr pipe with
    | None -> false
    | Some raddr -> (
      match Raddr.bound raddr with
      | None -> false
      | Some _ ->
        Raddr.unbind raddr;
        true))
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

type baseline =
  { base_output : string
  ; base_hash : int
  ; base_retired : int
  ; base_cycles : int }

let baseline ?max_insns ?(deadline = Deadline.never) (cfg : Elag_sim.Config.t)
    program =
  let pipe = Pipeline.create cfg in
  let pipe_obs = Pipeline.observer pipe in
  let hash = ref stream_hash_init in
  let retired = ref 0 in
  let obs pc insn eff taken next_pc =
    Deadline.check deadline;
    pipe_obs pc insn eff taken next_pc;
    hash := stream_hash_step !hash pc insn eff taken next_pc;
    incr retired
  in
  let emu = Emulator.create program in
  Emulator.run ~observer:obs ?max_insns emu;
  { base_output = Emulator.output emu
  ; base_hash = !hash
  ; base_retired = !retired
  ; base_cycles = (Pipeline.stats pipe).cycles }

type outcome =
  { plan : plan
  ; injections : int
  ; faulted_cycles : int
  ; clean_cycles : int
  ; output_ok : bool
  ; stream_ok : bool
  ; cycles_ok : bool }

let outcome_ok o = o.output_ok && o.stream_ok && o.cycles_ok

let run_plan ?max_insns ?(deadline = Deadline.never)
    ~baseline:(base : baseline) (cfg : Elag_sim.Config.t) program (plan : plan)
    =
  if plan.first < 0 then invalid_arg "Fault.run_plan: negative first";
  (match plan.period with
  | Some p when p <= 0 -> invalid_arg "Fault.run_plan: non-positive period"
  | _ -> ());
  let pipe = Pipeline.create cfg in
  let pipe_obs = Pipeline.observer pipe in
  let rng = Xorshift.create plan.seed in
  let hash = ref stream_hash_init in
  let retired = ref 0 in
  let injections = ref 0 in
  let next_trigger = ref plan.first in
  let obs pc insn eff taken next_pc =
    Deadline.check deadline;
    pipe_obs pc insn eff taken next_pc;
    hash := stream_hash_step !hash pc insn eff taken next_pc;
    incr retired;
    if !retired >= !next_trigger then begin
      if apply pipe rng plan.target then incr injections;
      next_trigger :=
        (match plan.period with
        | Some p -> !next_trigger + p
        | None -> max_int)
    end
  in
  let emu = Emulator.create program in
  Emulator.run ~observer:obs ?max_insns emu;
  let output = Emulator.output emu in
  let faulted_cycles = (Pipeline.stats pipe).cycles in
  { plan
  ; injections = !injections
  ; faulted_cycles
  ; clean_cycles = base.base_cycles
  ; output_ok = String.equal output base.base_output
  ; stream_ok = !hash = base.base_hash && !retired = base.base_retired
  ; cycles_ok = faulted_cycles >= base.base_cycles }

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
