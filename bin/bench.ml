(* The `elag bench` modes: design-choice ablations, the committed
   pipeline report (BENCH_pipeline.json) and the engine's serial vs
   parallel sweep (BENCH_engine.json). *)

module Experiments = Elag_engine.Experiments
module Engine = Elag_engine.Engine
module Pool = Elag_engine.Pool
module Compile = Elag_harness.Compile
module Config = Elag_sim.Config
module Pipeline = Elag_sim.Pipeline
module Suite = Elag_workloads.Suite
module Workload = Elag_workloads.Workload
module Json = Elag_telemetry.Json
module Stall = Elag_telemetry.Stall

(* --- ablations ----------------------------------------------------------- *)

let ablation_panel = [ "130.li"; "072.sc"; "023.eqntott" ]

let dual_cc = Config.Mechanism.of_string_exn "dual-cc"

let speedup ~base ~fast program =
  let b, _ = Pipeline.simulate base program in
  let f, _ = Pipeline.simulate fast program in
  float_of_int b.Pipeline.cycles /. float_of_int f.Pipeline.cycles

let speedup_with ?(mech = dual_cc) cfg =
  speedup
    ~base:(Config.with_mechanism Config.No_early cfg)
    ~fast:(Config.with_mechanism mech cfg)

let ablation engine =
  Printf.printf "Ablations: dual-path compiler-directed speedup vs design choices\n\n";
  let compiled options =
    List.map (fun n -> (n, Compile.compile ~options (Suite.find n).Workload.source))
      ablation_panel
  in
  let programs =
    List.map (fun n -> (n, Engine.program engine (Suite.find n))) ablation_panel
  in
  let cells ?(programs = programs) f =
    List.iter (fun (n, p) -> Printf.printf "  %s %.3f" n (f p)) programs
  in
  let section title label values f =
    print_endline title;
    List.iter (fun v -> Printf.printf "  %s:" (label v); f v; print_newline ()) values
  in
  (* Oracle bound: if every load had zero latency and never missed, how
     fast could ANY early address-generation scheme possibly be?  The
     gap between dual-cc and this bound is the paper's headroom. *)
  Printf.printf "speedup ceiling (zero-latency, never-missing loads)\n ";
  cells
    (speedup
       ~base:(Config.with_mechanism Config.No_early Config.default)
       ~fast:(Config.make ~load_latency:0 ~miss_penalty:0 ~mechanism:Config.No_early ()));
  Printf.printf "\n\n";
  section "issue width (paper: 6)" (Printf.sprintf "width %d") [ 2; 4; 6; 8 ]
    (fun w -> cells (speedup_with (Config.with_issue_width w Config.default)));
  section "\ncache associativity (paper: direct-mapped)" (Printf.sprintf "%d-way")
    [ 1; 2; 4 ]
    (fun ways -> cells (speedup_with (Config.with_cache_ways ways Config.default)));
  section "\ncache miss penalty (paper: 12 cycles)" (Printf.sprintf "penalty %2d")
    [ 4; 12; 30 ]
    (fun pen -> cells (speedup_with (Config.with_miss_penalty pen Config.default)));
  section "\nunroll factor at compile time (default: 4)" (Printf.sprintf "unroll %d")
    [ 0; 4; 8 ]
    (fun unroll_factor ->
      cells
        ~programs:(compiled { Compile.default_options with unroll_factor })
        (speedup_with Config.default));
  section "\ntable size under the dual-path scheme" (Printf.sprintf "table %4d")
    [ 16; 64; 256; 1024 ]
    (fun table_entries ->
      cells
        (speedup_with
           ~mech:(Config.Dual { table_entries; selection = Config.Compiler_directed })
           Config.default))

(* --- machine-readable pipeline report ------------------------------------ *)

let write_json file doc =
  let oc = open_out file in
  Json.output ~pretty:true oc doc;
  close_out oc;
  Printf.printf "wrote %s\n" file

(* One entry per workload: baseline and dual-cc cycle counts, IPC,
   speedup, and the dual-cc stall-cause breakdown.  The stall columns
   say not just *that* a workload regressed but *where the cycles
   went*, which is what makes the artifact diffable across PRs.
   Workloads run on the engine's pool; rows are merged (and printed)
   in suite order, so the artifact is identical at every -j. *)
let report engine =
  let workload_row (w : Workload.t) =
    let program = Engine.program engine w in
    let cfg mech = Config.with_mechanism mech Config.default in
    let base, _ = Pipeline.run (cfg Config.No_early) program in
    let dual, _ = Pipeline.run (cfg dual_cc) program in
    let bs = Pipeline.stats base and ds = Pipeline.stats dual in
    let ipc (s : Pipeline.stats) =
      float_of_int s.Pipeline.instructions /. float_of_int (max 1 s.Pipeline.cycles)
    in
    let line =
      Printf.sprintf "  %-16s base=%8d dual-cc=%8d speedup=%.3f" w.Workload.name
        bs.Pipeline.cycles ds.Pipeline.cycles
        (float_of_int bs.Pipeline.cycles /. float_of_int ds.Pipeline.cycles)
    in
    let json =
      Json.Obj
        [ ("name", Json.String w.Workload.name)
        ; ("suite", Json.String (Workload.suite_name w.Workload.suite))
        ; ("instructions", Json.Int ds.Pipeline.instructions)
        ; ("baseline_cycles", Json.Int bs.Pipeline.cycles)
        ; ("cycles", Json.Int ds.Pipeline.cycles)
        ; ("ipc", Json.Float (ipc ds))
        ; ( "speedup"
          , Json.Float
              (float_of_int bs.Pipeline.cycles /. float_of_int (max 1 ds.Pipeline.cycles))
          )
        ; ( "stalls"
          , Json.Obj
              (("busy", Json.Int (Pipeline.busy_cycles dual))
              :: List.map
                   (fun (cause, n) -> (Stall.name cause, Json.Int n))
                   (Pipeline.stall_breakdown dual)) ) ]
    in
    (line, json)
  in
  Printf.printf "pipeline report (baseline vs %s):\n" (Config.mechanism_name dual_cc);
  let rows = Engine.map engine workload_row Suite.all in
  List.iter (fun (line, _) -> print_endline line) rows;
  write_json "BENCH_pipeline.json"
    (Json.Obj
       [ ("schema", Json.String "elag.bench.v1")
       ; ("mechanism", Json.String (Config.mechanism_name dual_cc))
       ; ("config", Config.to_json (Config.with_mechanism dual_cc Config.default))
       ; ("workloads", Json.List (List.map snd rows)) ])

(* --- engine wall-clock benchmark ----------------------------------------- *)

(* The same full evaluation-grid sweep, once on a single-domain engine
   and once on the pool, with fresh caches each time.  The two sweep
   artifacts must be byte-identical (cycle counts and all); the wall
   clocks and available core count are recorded so the speedup claim
   is honest about the hardware it ran on.  Returns the identity. *)
let engine jobs =
  let sweep jobs =
    let engine = Engine.create ~jobs () in
    let t0 = Unix.gettimeofday () in
    let json = Json.to_string ~pretty:true (Engine.sweep_json engine (Experiments.grid ())) in
    (json, Unix.gettimeofday () -. t0)
  in
  let n_jobs = List.length (Experiments.grid ()) in
  Printf.printf "engine sweep: %d grid jobs, serial then -j %d\n%!" n_jobs jobs;
  let serial_json, serial_s = sweep 1 in
  Printf.printf "  serial:   %.1fs\n%!" serial_s;
  let parallel_json, parallel_s = sweep jobs in
  Printf.printf "  -j %-5d: %.1fs (%.2fx)\n%!" jobs parallel_s (serial_s /. parallel_s);
  let identical = String.equal serial_json parallel_json in
  Printf.printf "  artifacts byte-identical: %b\n" identical;
  write_json "BENCH_engine.json"
    (Json.Obj
       [ ("schema", Json.String "elag.bench.engine.v1")
       ; ("grid_jobs", Json.Int n_jobs)
       ; ("cores", Json.Int (Pool.default_jobs ()))
       ; ("jobs", Json.Int jobs)
       ; ("serial_seconds", Json.Float serial_s)
       ; ("parallel_seconds", Json.Float parallel_s)
       ; ("speedup", Json.Float (serial_s /. parallel_s))
       ; ("byte_identical", Json.Bool identical) ]);
  identical
