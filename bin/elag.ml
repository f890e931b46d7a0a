(* elag — the one command-line front door: compile MiniC, run and time
   programs under the paper's mechanisms, check them (lint, oracle,
   fault injection, fuzzing), and regenerate the paper's artifacts.
   `elag --help` lists the subcommands and the exit-status contract they
   all share ([exits] below); `elag CMD --help` documents one. *)

open Cmdliner
module Compile = Elag_harness.Compile
module Profile = Elag_harness.Profile
module Program = Elag_isa.Program
module Insn = Elag_isa.Insn
module Config = Elag_sim.Config
module Pipeline = Elag_sim.Pipeline
module Emulator = Elag_sim.Emulator
module Report = Elag_sim.Report
module Workload = Elag_workloads.Workload
module Suite = Elag_workloads.Suite
module Json = Elag_telemetry.Json
module Trace = Elag_telemetry.Trace
module Engine = Elag_engine.Engine
module Experiments = Elag_engine.Experiments
module Verification = Elag_engine.Verification
module Pool = Elag_engine.Pool
module Lint = Elag_verify.Lint
module Oracle = Elag_verify.Oracle
module Fault = Elag_verify.Fault
module Diag = Elag_verify.Diag
module Deadline = Elag_verify.Deadline
module Campaign = Elag_fuzz.Campaign
module Gen = Elag_fuzz.Gen

(* --- converters ----------------------------------------------------------- *)

(* Every name-valued argument rejects an unknown name with the whole
   vocabulary, as a usage error. *)
let vocab ~docv ~what ~known of_string to_string =
  let parse s =
    match of_string s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "unknown %s %s\n%s" what s known)
  in
  Arg.conv' ~docv (parse, fun ppf v -> Format.pp_print_string ppf (to_string v))

type source = Workload of Workload.t | File of string

let source_name = function Workload w -> w.Workload.name | File f -> f

let source =
  vocab ~docv:"SRC" ~what:"workload or MiniC file"
    ~known:
      ("known workloads: "
      ^ String.concat ", " (List.map (fun (w : Workload.t) -> w.Workload.name) Suite.all))
    (fun s ->
      match Suite.find s with
      | w -> Some (Workload w)
      | exception Invalid_argument _ -> if Sys.file_exists s then Some (File s) else None)
    source_name

let mechanism =
  vocab ~docv:"MECH" ~what:"mechanism"
    ~known:
      ("known mechanisms: "
      ^ String.concat " " (List.map Config.Mechanism.to_string Config.Mechanism.all)
      ^ "\n(also accepted: table-N, calc-N, dual-N-hw, dual-N-cc)")
    Config.Mechanism.of_string Config.Mechanism.to_string

let fault_target =
  vocab ~docv:"TARGET" ~what:"fault target"
    ~known:("known fault targets: " ^ String.concat " " Fault.target_names)
    Fault.target_of_string (Fmt.str "%a" Fault.pp_target)

let mutation =
  vocab ~docv:"NAME" ~what:"mutation"
    ~known:("known mutations: " ^ String.concat " " Gen.mutation_names)
    (fun s -> if List.mem s Gen.mutation_names then Some s else None)
    Fun.id

let int_from lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (Printf.sprintf "expected an integer >= %d, got %s" lo s)
  in
  Arg.conv' ~docv:"N" (parse, Format.pp_print_int)

(* --- shared arguments ----------------------------------------------------- *)

let src_arg =
  Arg.(
    pos 0 (some source) None
    & info [] ~docv:"SRC"
        ~doc:"A suite workload name (quote names with spaces) or a MiniC file.")

let mech_arg =
  Arg.(
    pos 1 (some mechanism) None
    & info [] ~docv:"MECH"
        ~doc:
          "Mechanism preset: baseline, table-N[-hw|-cc], calc-N, dual-hw, \
           dual-cc or dual-N-hw|-cc.")

let optional name conv ~docv doc =
  Arg.value (Arg.opt (Arg.some conv) None (Arg.info [ name ] ~docv ~doc))

let natural name default ~docv doc =
  Arg.(value & opt (int_from 0) default & info [ name ] ~docv ~doc)

let jobs =
  optional "j" (int_from 1) ~docv:"N"
    "Worker domains (default: the recommended domain count)."

let width jobs = Option.value jobs ~default:(Pool.default_jobs ())

let max_insns =
  optional "max-insns" (int_from 1) ~docv:"N"
    "Stop after $(docv) retired instructions; results cover that window."

let timeout_ms ~doc = optional "timeout-ms" (int_from 1) ~docv:"MS" doc

let run_timeout =
  timeout_ms
    ~doc:
      "Wall-clock budget of the run, polled once per retired instruction; \
       exceeding it exits 2 with a job-timeout line."

let compile_options =
  let level =
    Arg.(
      value
      & opt (enum [ ("0", Elag_opt.Driver.O0); ("1", O1); ("2", O2) ]) O2
      & info [ "O" ] ~docv:"LEVEL" ~doc:"Optimization level: 0, 1 or 2.")
  in
  let no_classify =
    Arg.(value & flag & info [ "no-classify" ] ~doc:"Leave every load ld_n.")
  in
  let make opt_level no_classify =
    { Compile.default_options with
      opt_level
    ; classification = (if no_classify then No_classification else Heuristics) }
  in
  Term.(const make $ level $ no_classify)

(* --- helpers -------------------------------------------------------------- *)

let usage msg = `Error (true, msg)
let status ok = `Ok (if ok then 0 else 1)

let exits =
  Cmd.Exit.
    [ info 0 ~doc:"on success."
    ; info 1
        ~doc:"when a check fails: lint, oracle, fault plan, fuzz finding, bench identity."
    ; info 2
        ~doc:
          "when the run cannot complete: runaway, bad jump, memory fault, lint \
           rejection, job timeout, compile or file error (one line on stderr)."
    ; info 124 ~doc:"on a usage error, listing the accepted names." ]

(* Every subcommand returns its exit status through [Term.ret]. *)
let cmd name ~doc term = Cmd.v (Cmd.info name ~doc ~exits) (Term.ret term)

let text = function
  | Workload w -> w.Workload.source
  | File f ->
    Elag_workloads.Runtime.with_prelude (In_channel.with_open_bin f In_channel.input_all)

let compile options src = Compile.compile ~options (text src)

(* Timed and checked runs refuse a malformed artifact up front. *)
let checked options src =
  let program = compile options src in
  Lint.enforce program;
  program

(* One SRC runs alone; without one the same work fans out over the
   suite on -j domains, results in suite order.  -j beside a single SRC
   would do nothing, so it is a usage error. *)
let per_source jobs src f k =
  match (src, jobs) with
  | Some _, Some _ -> usage "-j applies only when no SRC is given"
  | Some s, None -> k [ f s ]
  | None, _ ->
    k (Pool.map_list ~jobs:(width jobs) f (List.map (fun w -> Workload w) Suite.all))

let one_line s = String.concat "," (String.split_on_char '\n' (String.trim s))

let ipc (s : Pipeline.stats) =
  float_of_int s.Pipeline.instructions /. float_of_int (max 1 s.Pipeline.cycles)

let cfg mech = Config.with_mechanism mech Config.default

let summarize program =
  let loads = Program.static_loads program in
  let count spec =
    List.length (List.filter (fun (_, i) -> Insn.load_spec i = Some spec) loads)
  in
  Fmt.pr "%d instructions, %d static loads: %d ld_n, %d ld_p, %d ld_e@."
    (Program.length program) (List.length loads) (count Insn.Ld_n)
    (count Insn.Ld_p) (count Insn.Ld_e)

(* --- compile, run, lint --------------------------------------------------- *)

let compile_cmd =
  let emit =
    Arg.(
      value
      & opt (enum [ ("summary", `Summary); ("ir", `Ir); ("asm", `Asm) ]) `Summary
      & info [ "emit" ] ~docv:"WHAT"
          ~doc:
            "Print the load-classification $(b,summary), the optimized $(b,ir) \
             or the assembled $(b,asm).")
  in
  let go options src emit =
    (match emit with
    | `Summary -> summarize (compile options src)
    | `Ir -> Fmt.pr "%a@." Elag_ir.Ir.pp_program (Compile.to_ir ~options (text src))
    | `Asm -> Fmt.pr "%a@." Program.pp (compile options src));
    `Ok 0
  in
  cmd "compile" ~doc:"Compile a source with the paper's optimizer and load classifier."
    Term.(const go $ compile_options $ Arg.required src_arg $ emit)

let emulate options timeout_ms src =
  let t0 = Unix.gettimeofday () in
  let program = compile options src in
  let t1 = Unix.gettimeofday () in
  let emu = Emulator.create program in
  Emulator.run ~observer:(Deadline.observer (Deadline.opt timeout_ms)) emu;
  let t2 = Unix.gettimeofday () in
  Printf.sprintf "%-16s  insns=%9d  compile=%.2fs run=%.2fs  output=%s"
    (source_name src) (Emulator.retired emu) (t1 -. t0) (t2 -. t1)
    (one_line (Emulator.output emu))

let run_cmd =
  let go options jobs timeout_ms src =
    per_source jobs src (emulate options timeout_ms) (fun lines ->
        List.iter print_endline lines;
        `Ok 0)
  in
  cmd "run" ~doc:"Emulate SRC, or every suite workload; print retired counts and output."
    Term.(const go $ compile_options $ jobs $ run_timeout $ Arg.value src_arg)

let print_lints results =
  List.iter (fun (name, r) -> Fmt.pr "%-16s @[<v>%a@]@." name Lint.pp r) results;
  List.for_all (fun (_, r) -> Lint.ok r) results

let lint_cmd =
  let go options jobs src =
    per_source jobs src
      (fun s -> (source_name s, Lint.check (compile options s)))
      (fun results -> status (print_lints results))
  in
  cmd "lint" ~doc:"Statically verify the EPA-32 artifact of SRC, or of every workload."
    Term.(const go $ compile_options $ jobs $ Arg.value src_arg)

(* --- timed runs ----------------------------------------------------------- *)

(* Map each instruction class to its own about:tracing thread row so
   loads, stores, branches and ALU traffic read as separate lanes. *)
let trace_lane insn =
  if Insn.is_load insn then (1, "loads")
  else if Insn.is_store insn then (2, "stores")
  else if Insn.is_control insn then (3, "control")
  else (0, "alu")

let install_trace t =
  let tr = Trace.create () in
  List.iter
    (fun (tid, name) -> Trace.set_thread_name tr ~tid name)
    [ (0, "alu"); (1, "loads"); (2, "stores"); (3, "control") ];
  Pipeline.set_tracer t (fun pc insn cycle latency ->
      let tid, cat = trace_lane insn in
      Trace.complete tr
        ~name:(Fmt.str "%a" Insn.pp insn)
        ~cat ~ts:cycle ~dur:latency ~tid
        ~args:[ ("pc", Json.Int pc); ("latency", Json.Int latency) ]
        ());
  tr

let print_text_summary name mech t output =
  let stats = Pipeline.stats t in
  Printf.printf "%s under %s:\n" name (Config.mechanism_name mech);
  Printf.printf "  cycles=%d insns=%d IPC=%.2f\n" stats.Pipeline.cycles
    stats.Pipeline.instructions (ipc stats);
  Printf.printf "  loads=%d (n=%d p=%d e=%d) stores=%d\n" stats.Pipeline.loads
    stats.Pipeline.loads_n stats.Pipeline.loads_p stats.Pipeline.loads_e
    stats.Pipeline.stores;
  Printf.printf "  spec: table %d/%d calc %d/%d wasted=%d\n"
    stats.Pipeline.table_successes stats.Pipeline.table_attempts
    stats.Pipeline.calc_successes stats.Pipeline.calc_attempts
    stats.Pipeline.wasted_spec;
  Printf.printf "  avg load latency=%.2f dmiss=%d imiss=%d btb_miss=%d\n"
    (float_of_int stats.Pipeline.load_latency_sum
    /. float_of_int (max 1 stats.Pipeline.loads))
    stats.Pipeline.dcache_misses stats.Pipeline.icache_misses
    stats.Pipeline.btb_mispredicts;
  Printf.printf "  stalls: busy=%d %s\n" (Pipeline.busy_cycles t)
    (String.concat " "
       (List.map
          (fun (cause, n) -> Printf.sprintf "%s=%d" (Elag_telemetry.Stall.name cause) n)
          (Pipeline.stall_breakdown t)));
  Printf.printf "  output=%s\n" (one_line output)

let time_one ~report ~trace_file ~max_insns ~timeout_ms name mech program =
  let t = Pipeline.create (cfg mech) in
  let trace = Option.map (fun file -> (file, install_trace t)) trace_file in
  let emu = Emulator.create program in
  let deadline = Deadline.opt timeout_ms in
  let pipe_obs = Pipeline.observer t in
  let obs pc insn eff taken next_pc =
    Deadline.check deadline;
    pipe_obs pc insn eff taken next_pc
  in
  (* a user-bounded run is a measurement window, not a runaway loop *)
  (try Emulator.run ~observer:obs ?max_insns emu
   with Emulator.Runaway _ when max_insns <> None -> ());
  Option.iter
    (fun (file, tr) ->
      Out_channel.with_open_bin file (Trace.write tr);
      Printf.eprintf "wrote %d trace events to %s\n%!" (Trace.events tr) file)
    trace;
  match report with
  | Some `Json ->
    print_endline
      (Json.to_string ~pretty:true
         (Report.to_json ~meta:[ ("workload", Json.String name) ] t))
  | Some `Csv -> print_string (Report.to_csv ~meta:[ ("workload", name) ] t)
  | None -> print_text_summary name mech t (Emulator.output emu)

(* Every workload under one mechanism on the engine, which also
   schedules the baselines the speedup column needs and checks each
   workload's expected output. *)
let time_all ~jobs mech =
  let engine = Engine.create ~jobs () in
  ignore
    (Engine.run_jobs engine
       (List.concat_map
          (fun w -> [ Engine.Job.make w Config.No_early; Engine.Job.make w mech ])
          Suite.all));
  Printf.printf "%-16s %12s %12s %8s %9s\n" "workload" "cycles" "insns" "IPC" "speedup";
  List.iter
    (fun (w : Workload.t) ->
      let s = Engine.simulate engine w mech in
      Printf.printf "%-16s %12d %12d %8.2f %9.3f\n" w.Workload.name s.Pipeline.cycles
        s.Pipeline.instructions (ipc s) (Engine.speedup engine w mech))
    Suite.all

let time_cmd =
  let all =
    optional "all" mechanism ~docv:"MECH"
      "Time every suite workload under $(docv) on -j domains, with speedups over baseline."
  in
  let report =
    optional "report"
      (Arg.enum [ ("json", `Json); ("csv", `Csv) ])
      ~docv:"FMT"
      "Print the full machine-readable report ($(b,json) or $(b,csv)): config \
       provenance, stall-cause breakdown and per-load-site table."
  in
  let trace_file =
    optional "trace" Arg.string ~docv:"FILE"
      "Write a Chrome trace_event file (about:tracing, ui.perfetto.dev); pair \
       it with --max-insns."
  in
  let go options jobs max_insns timeout_ms src mech all report trace_file =
    match (src, mech, all) with
    | Some src, Some mech, None when jobs = None ->
      time_one ~report ~trace_file ~max_insns ~timeout_ms (source_name src) mech
        (checked options src);
      `Ok 0
    | None, None, Some mech
      when (report, trace_file, max_insns, timeout_ms) = (None, None, None, None)
           && options = Compile.default_options ->
      time_all ~jobs:(width jobs) mech;
      `Ok 0
    | _ ->
      usage
        "expected SRC MECH (with any option but -j) or --all MECH (with -j only)"
  in
  cmd "time" ~doc:"Cycle-accurate timing of SRC, or of every workload, under a mechanism."
    Term.(
      const go $ compile_options $ jobs $ max_insns $ run_timeout $ Arg.value src_arg
      $ Arg.value mech_arg $ all $ report $ trace_file)

(* --- checks --------------------------------------------------------------- *)

let oracle_cmd =
  let go max_insns timeout_ms src mech =
    let r =
      Oracle.run ?max_insns ~deadline:(Deadline.opt timeout_ms) (cfg mech)
        (checked Compile.default_options src)
    in
    Fmt.pr "%s under %s: @[<v>%a@]@." (source_name src) (Config.mechanism_name mech)
      Oracle.pp r;
    status (Oracle.ok r)
  in
  cmd "oracle"
    ~doc:
      "Run SRC under MECH with the timing pipeline and a reference emulator \
       in lockstep; exit 1 on the first divergence."
    Term.(
      const go $ max_insns $ run_timeout $ Arg.required src_arg $ Arg.required mech_arg)

(* Seeded fault plan against one (source, mechanism): baseline run,
   corrupt the predictor state on a retire-count schedule derived from
   the baseline's length, and hold the architectural invariants. *)
let fault_cmd =
  let seed = natural "seed" 0 ~docv:"N" "Seed of the fault plan." in
  let target =
    Arg.(
      required
      & pos 2 (some fault_target) None
      & info [] ~docv:"TARGET"
          ~doc:"Structure to corrupt, with an optional :N parameter (table-scramble:17).")
  in
  let go max_insns timeout_ms seed src mech target =
    let program = checked Compile.default_options src in
    let deadline = Deadline.opt timeout_ms in
    let base = Fault.baseline ?max_insns ~deadline (cfg mech) program in
    let retired = max 1 base.Fault.base_retired in
    let plan =
      { Fault.name = Fmt.str "cli-%a" Fault.pp_target target
      ; seed
      ; first = 1 + (retired / 3)
      ; period = Some (max 1 (retired / 5))
      ; target }
    in
    let outcome =
      Fault.run_plan ?max_insns ~deadline ~baseline:base (cfg mech) program plan
    in
    Fmt.pr "%s under %s: %a@." (source_name src) (Config.mechanism_name mech)
      Fault.pp_outcome outcome;
    status (Fault.outcome_ok outcome)
  in
  cmd "fault"
    ~doc:
      "Inject a seeded fault plan into SRC's predictor state under MECH; \
       exit 1 if an architectural invariant breaks."
    Term.(
      const go $ max_insns $ run_timeout $ seed $ Arg.required src_arg
      $ Arg.required mech_arg $ target)

let profile_cmd =
  let go options src =
    let program = compile options src in
    let reclassified = Profile.reclassify (Profile.collect program) program in
    Fmt.pr "before profiling: ";
    summarize program;
    Fmt.pr "after profiling:  ";
    summarize reclassified;
    let time p mech = (fst (Pipeline.simulate (cfg mech) p)).Pipeline.cycles in
    let dual = Config.Mechanism.of_string_exn "dual-cc" in
    let base = time program Config.No_early in
    Fmt.pr "baseline %d cycles; dual-cc %.3fx; dual-cc+profile %.3fx@." base
      (float_of_int base /. float_of_int (time program dual))
      (float_of_int base /. float_of_int (time reclassified dual));
    `Ok 0
  in
  cmd "profile" ~doc:"Profile SRC, reclassify its loads, and time dual-cc before and after."
    Term.(const go $ compile_options $ Arg.required src_arg)

(* --- suites and artifacts ------------------------------------------------- *)

let paper_cmd =
  let artifact =
    Arg.(
      value
      & pos 0
          (some
             (enum
                [ ("table2", Experiments.print_table2); ("fig5a", Experiments.print_fig5a)
                ; ("fig5b", Experiments.print_fig5b); ("fig5c", Experiments.print_fig5c)
                ; ("table3", Experiments.print_table3); ("table4", Experiments.print_table4)
                ; ("all", Experiments.run_all) ]))
          None
      & info [] ~docv:"ARTIFACT" ~absent:"all"
          ~doc:"table2, fig5a, fig5b, fig5c, table3, table4 or all.")
  in
  let go jobs artifact =
    let print = Option.value artifact ~default:Experiments.run_all in
    print (Engine.create ~jobs:(width jobs) ());
    `Ok 0
  in
  cmd "paper" ~doc:"Regenerate the paper's tables and figures, measured beside published."
    Term.(const go $ jobs $ artifact)

(* Each suite prints one line per item and returns whether it was
   all-green, so [all] runs everything before the exit code. *)
let fault_suite ?entries engine =
  let results = Verification.run_fault_suite ?entries engine in
  List.iter
    (fun ((e : Verification.entry), o) ->
      Fmt.pr "%-13s %a@." e.Verification.mechanism Fault.pp_outcome o)
    results;
  let ok = List.for_all (fun (_, o) -> Fault.outcome_ok o) results in
  Fmt.pr "fault suite: %d plans, %s@." (List.length results)
    (if ok then "all ok" else "FAILURES");
  ok

let oracle_suite engine =
  let results = Verification.run_oracle_suite engine in
  List.iter (fun (name, r) -> Fmt.pr "%-16s @[<v>%a@]@." name Oracle.pp r) results;
  List.for_all (fun (_, r) -> Oracle.ok r) results

let verify_cmd =
  let suite =
    Arg.(
      value
      & pos 0 (enum [ ("faults", `Faults); ("smoke", `Smoke); ("all", `All) ]) `All
      & info [] ~docv:"SUITE"
          ~doc:
            "$(b,faults): the curated fault-injection matrix; $(b,smoke): lint \
             plus its CI subset; $(b,all): lint, the full matrix and the \
             whole-suite differential oracle.")
  in
  let go jobs suite =
    let engine = Engine.create ~jobs:(width jobs) () in
    let lint () = print_lints (Verification.run_lint_suite engine) in
    match suite with
    | `Faults -> status (fault_suite engine)
    | `Smoke ->
      let lint_ok = lint () in
      status (fault_suite ~entries:Verification.fault_smoke engine && lint_ok)
    | `All ->
      let lint_ok = lint () in
      let fault_ok = fault_suite engine in
      status (oracle_suite engine && lint_ok && fault_ok)
  in
  cmd "verify" ~doc:"Run the standing verification suites; exit 1 if anything fails."
    Term.(const go $ jobs $ suite)

(* The campaign summary is the artifact: deterministic JSON on stdout,
   exit 1 on any finding or job failure so CI can gate on it. *)
let fuzz_cmd =
  let seed = natural "seed" 0 ~docv:"S" "Master campaign seed." in
  let iters = natural "iters" 100 ~docv:"N" "Iteration count." in
  let retries =
    natural "retries" 0 ~docv:"N" "Crash retries per iteration (timeouts never retry)."
  in
  let budget_ms =
    optional "budget-ms" (int_from 1) ~docv:"MS"
      "Stop scheduling new work after $(docv) ms of wall clock."
  in
  let corpus_dir =
    optional "corpus" Arg.string ~docv:"DIR" "Persist shrunk minimal repros under $(docv)."
  in
  let mutation =
    optional "mutation" mutation ~docv:"NAME"
      "Plant a reference mutation (a guarded test hook proving detection)."
  in
  let go jobs seed iters budget_ms timeout_ms retries corpus_dir mutation =
    let summary =
      Campaign.run ~jobs:(width jobs) ?budget_ms
        { Campaign.default with seed; iters; mutation; timeout_ms; retries; corpus_dir }
    in
    print_endline (Json.to_string ~pretty:true (Campaign.summary_json summary));
    status (Campaign.ok summary)
  in
  cmd "fuzz"
    ~doc:
      "Differential fuzzing campaign: random EPA-32 and MiniC programs \
       through every mechanism under the oracle, with seeded fault plans."
    Term.(
      const go $ jobs $ seed $ iters $ budget_ms
      $ timeout_ms ~doc:"Per-iteration budget; a hung iteration reports a job timeout."
      $ retries $ corpus_dir $ mutation)

let bench_cmd =
  let mode =
    Arg.(
      required
      & pos 0
          (some
             (enum [ ("ablation", `Ablation); ("report", `Report); ("engine", `Engine) ]))
          None
      & info [] ~docv:"MODE"
          ~doc:
            "$(b,ablation): design-choice ablations; $(b,report): write \
             BENCH_pipeline.json; $(b,engine): serial vs -j grid sweep, \
             written to BENCH_engine.json, exit 1 unless byte-identical.")
  in
  let go jobs mode =
    let engine () = Engine.create ~jobs:(width jobs) () in
    match mode with
    | `Ablation ->
      Bench.ablation (engine ());
      `Ok 0
    | `Report ->
      Bench.report (engine ());
      `Ok 0
    | `Engine -> status (Bench.engine (width jobs))
  in
  cmd "bench" ~doc:"Ablations and the committed simulated-cycle and engine reports."
    Term.(const go $ jobs $ mode)

let () =
  let main =
    Cmd.group
      (Cmd.info "elag" ~exits
         ~doc:
           "Compiler-directed early load-address generation: compiler, simulator \
            and experiments.")
      [ compile_cmd; run_cmd; lint_cmd; time_cmd; oracle_cmd; fault_cmd; profile_cmd
      ; paper_cmd; verify_cmd; fuzz_cmd; bench_cmd ]
  in
  (* ~catch:false lets the simulator's failure classes reach Diag.guard
     (one line, exit 2) instead of cmdliner's backtrace and exit 125.
     Several failed suite jobs arrive together as one Pool.Failures. *)
  let fail msg =
    prerr_endline ("elag: " ^ msg);
    2
  in
  Diag.guard "elag" @@ fun () ->
  exit
    (try Cmd.eval' ~catch:false main with
     | Compile.Error msg | Sys_error msg -> fail msg
     | Pool.Failures _ as e -> fail (Printexc.to_string e))
