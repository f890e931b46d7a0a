(** Retire-stream checks.  {!trace} is the one run harness: the
    emulator retires, a timing pipeline observes, and every retire
    event [(pc, insn, effective_address, taken, next_pc)] is folded
    into an FNV-1a fingerprint, so one reference run can check any
    number of presets or fault plans ({!same_stream}).  {!run} attaches
    a lockstep checker that steps an independent reference emulator
    once per subject retire; it shares the pipeline's callback, so it
    pins emulator determinism and reference semantics, while the
    trace's own count of what the pipeline observed catches a skipped
    retire. *)

(** {2 Fingerprinted runs} *)

type trace =
  { output : string  (** everything the program printed *)
  ; fingerprint : int  (** FNV-1a fold of every retire event *)
  ; retired : int  (** retire events the emulator delivered *)
  ; observed : int
    (** retires the pipeline counted ([Pipeline.stats.instructions]) *)
  ; cycles : int  (** timing result *) }

val trace :
  ?max_insns:int ->
  ?deadline:Deadline.t ->
  ?observer:(Elag_sim.Pipeline.t -> Elag_sim.Emulator.observer) ->
  Elag_sim.Config.t ->
  Elag_isa.Program.t ->
  trace
(** Run the full timed simulation of the program under the
    configuration.  [observer], given the run's pipeline, is called
    after the pipeline and the fingerprint on every retire — the hook
    for the lockstep checker and for fault triggers.  [deadline] is
    polled once per retired instruction (default: never expires), so
    supervised jobs can be cancelled cooperatively. *)

val same_stream : trace -> trace -> bool
(** Equal fingerprints and retired counts, and in each trace the
    pipeline observed every retire.  Outputs are not compared. *)

(** {2 Lockstep oracle} *)

type event =
  { ev_index : int  (** retire index (0-based) *)
  ; ev_pc : int
  ; ev_insn : Elag_isa.Insn.t
  ; ev_eff : int
  ; ev_taken : bool
  ; ev_next_pc : int }

type divergence =
  { div_index : int  (** retire index of the first disagreement *)
  ; div_subject : event
  ; div_reference : event option
    (** [None] when the reference emulator had already halted. *)
  ; div_recent : event list
    (** The last agreeing events before the divergence, oldest
        first — the "how did we get here" context. *) }

type report =
  { compared : int  (** events that agreed *)
  ; divergence : divergence option
  ; subject : trace  (** the subject run *)
  ; reference_output : string
  ; outputs_match : bool
  ; reference_trailing : bool
    (** The reference still had instructions to retire after the
        subject halted. *) }

val ok : report -> bool
(** No divergence, matching outputs, no trailing reference stream, and
    the pipeline observed every retire. *)

val run :
  ?max_insns:int ->
  ?keep:int ->
  ?reference:Elag_isa.Program.t ->
  ?deadline:Deadline.t ->
  Elag_sim.Config.t ->
  Elag_isa.Program.t ->
  report
(** {!trace} the program with the lockstep checker attached, comparing
    against [reference] (default: the program itself — the self-check
    used by the engine's verification suite; tests pass a deliberately
    different reference to prove divergences are caught).  [keep]
    (default 8) bounds [div_recent]; after the first divergence the
    reference is left untouched and further events are ignored. *)

val signature : report -> string option
(** [None] when the report is {!ok}; otherwise a stable label of the
    failure class ("divergence:<subject-kind>-vs-<reference-kind>",
    "output-mismatch", "reference-trailing" or "skipped-retire") that
    ignores pcs, indices and operand values.  The fuzz shrinker
    minimizes a repro against its signature, so deletion steps cannot
    silently swap the original failure for a different one. *)

val pp : report Fmt.t
(** One line when green; the divergence site and recent context
    otherwise. *)

val to_json : report -> Elag_telemetry.Json.t
