(* Host-cost benchmark of the simulator: how long the reproduction takes
   to regenerate the paper's results and to run verification campaigns.
   See README.md beside this file for the workloads, the metrics and
   how each layer metric maps onto an end-to-end one.

   One process runs one workload.  The timed phase repeats a seeded
   "round" of jobs on a closed-loop Domain pool (a worker takes its next
   job only when its last one is done) for as many complete rounds as
   fit in --seconds; every job's result is checked against a recorded
   reference.  The last line of stdout is the result object. *)

module Engine = Elag_engine.Engine
module Pool = Elag_engine.Pool
module Experiments = Elag_engine.Experiments
module Config = Elag_sim.Config
module Pipeline = Elag_sim.Pipeline
module Emulator = Elag_sim.Emulator
module Profile = Elag_harness.Profile
module Workload = Elag_workloads.Workload
module Suite = Elag_workloads.Suite
module Program = Elag_isa.Program
module Json = Elag_telemetry.Json
module Stall = Elag_telemetry.Stall
module Lint = Elag_verify.Lint
module Oracle = Elag_verify.Oracle
module Xorshift = Elag_verify.Xorshift
module Gen = Elag_fuzz.Gen
module Campaign = Elag_fuzz.Campaign
module Stats = Perfbench.Stats
module Spans = Perfbench.Spans

let now = Unix.gettimeofday
let fail fmt = Printf.ksprintf failwith fmt

(* --- references ---------------------------------------------------- *)

let load_json path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> fail "%s: %s" path e

let member name j =
  match Json.member name j with Some v -> v | None -> fail "missing field %s" name

let int_member name j =
  match Json.to_int (member name j) with Some i -> i | None -> fail "%s: not an int" name

let stats_fields (s : Pipeline.stats) =
  [ ("cycles", s.cycles); ("instructions", s.instructions); ("loads", s.loads)
  ; ("stores", s.stores); ("loads_n", s.loads_n); ("loads_p", s.loads_p)
  ; ("loads_e", s.loads_e); ("table_attempts", s.table_attempts)
  ; ("table_successes", s.table_successes); ("calc_attempts", s.calc_attempts)
  ; ("calc_successes", s.calc_successes); ("wasted_spec", s.wasted_spec)
  ; ("load_latency_sum", s.load_latency_sum); ("icache_misses", s.icache_misses)
  ; ("dcache_accesses", s.dcache_accesses); ("dcache_misses", s.dcache_misses)
  ; ("btb_mispredicts", s.btb_mispredicts) ]

let stall_fields pipe =
  List.map (fun (c, n) -> (Stall.name c, n)) (Pipeline.stall_breakdown pipe)

let distribution_fields (p : Profile.t) (d : Engine.distribution) =
  let pct v = Json.Float v and rate = function Some r -> Json.Float r | None -> Json.Null in
  [ ("total_instructions", Json.Int p.Profile.total_instructions)
  ; ("total_loads", Json.Int p.Profile.total_loads)
  ; ("total_dynamic_loads", Json.Int d.Engine.total_dynamic_loads)
  ; ("static_nt", pct d.Engine.static_nt); ("static_pd", pct d.Engine.static_pd)
  ; ("static_ec", pct d.Engine.static_ec); ("dynamic_nt", pct d.Engine.dynamic_nt)
  ; ("dynamic_pd", pct d.Engine.dynamic_pd); ("dynamic_ec", pct d.Engine.dynamic_ec)
  ; ("rate_nt", rate d.Engine.rate_nt); ("rate_pd", rate d.Engine.rate_pd) ]

let reference_path = "perfbench/reference.json"

type refs =
  { grid : Json.t  (* job name -> stats and stall breakdown *)
  ; profiles : Json.t  (* workload -> profile totals and distribution *)
  ; paper_bench : (string * Json.t) list  (* BENCH_pipeline.json rows *) }

let load_refs () =
  let r = load_json reference_path and b = load_json "BENCH_pipeline.json" in
  let rows =
    match member "workloads" b with
    | Json.List rows -> List.map (fun row -> (Json.to_str (member "name" row) |> Option.get, row)) rows
    | _ -> fail "BENCH_pipeline.json: workloads is not a list"
  in
  { grid = member "grid" r; profiles = member "profiles" r; paper_bench = rows }

let compare_fields what expected actual =
  List.iter
    (fun (k, v) ->
      let want = int_member k expected in
      if want <> v then fail "%s: %s = %d, reference %d" what k v want)
    actual

let dual_cc = Config.Dual { table_entries = 256; selection = Config.Compiler_directed }

(* A simulated result must match the benchmark's recorded reference
   and, for the baseline and dual-cc points, the committed
   BENCH_pipeline.json. *)
let check_grid refs (j : Engine.Job.t) ?stalls (s : Pipeline.stats) =
  let name = Engine.Job.name j in
  let expected = member name refs.grid in
  compare_fields name expected (stats_fields s);
  Option.iter (compare_fields (name ^ " stalls") (member "stalls" expected)) stalls;
  if j.Engine.Job.variant = Engine.Classified then
    let row () = List.assoc j.Engine.Job.workload.Workload.name refs.paper_bench in
    let pin field =
      compare_fields (name ^ " vs BENCH_pipeline.json")
        (Json.Obj [ ("cycles", member field (row ())); ("instructions", member "instructions" (row ())) ])
        [ ("cycles", s.Pipeline.cycles); ("instructions", s.Pipeline.instructions) ]
    in
    if j.Engine.Job.mechanism = Config.No_early then pin "baseline_cycles"
    else if j.Engine.Job.mechanism = dual_cc then pin "cycles"

let check_profile refs (w : Workload.t) p d =
  let expected = member w.Workload.name refs.profiles in
  List.iter
    (fun (k, v) ->
      (* compared as printed: the reference stores floats to 12 digits *)
      if Json.to_string (member k expected) <> Json.to_string v then fail "%s: profile field %s differs from reference" w.Workload.name k)
    (distribution_fields p d)

let check_output (w : Workload.t) what output =
  match w.Workload.expected_output with
  | Some e when String.trim e <> String.trim output -> fail "%s: output mismatch (%s)" w.Workload.name what
  | _ -> ()

(* --- jobs and rounds ------------------------------------------------- *)

type work =
  { insns : int  (* instructions simulated by the job's timed layer *)
  ; requests : string list  (* engine cache keys the job asked for *)
  ; oracle_runs : int }

type result =
  { latency : float
  ; offset : float  (* start, relative to the round start: pool wait *)
  ; words : float  (* minor words allocated on the executing domain *)
  ; work : work
  ; error : string option
  ; spans : Spans.span list }

type round =
  { wall : float
  ; results : result array
  ; peak_rss_mb : float  (* resident high-water mark during the round *)
  ; minor_gcs : int
  ; major_gcs : int }

let no_work = { insns = 0; requests = []; oracle_runs = 0 }

let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* Linux resets the high-water mark to the current resident size on
   "5" > /proc/self/clear_refs, so each round reports its own peak. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

let run_round ~width ~traced items job =
  reset_peak_rss ();
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let exec (i, item) =
    let r = if traced then Some (Spans.recorder ~job:i) else None in
    let start = now () in
    let w0 = Gc.minor_words () in
    let outcome =
      try Ok (Spans.with_span r "job" (fun () -> job r item))
      with e -> Error (Printexc.to_string e)
    in
    let words = Gc.minor_words () -. w0 in
    let stop = now () in
    { latency = stop -. start
    ; offset = start -. t0
    ; words
    ; work = (match outcome with Ok w -> w | Error _ -> no_work)
    ; error = (match outcome with Ok _ -> None | Error e -> Some e)
    ; spans = (match r with Some r -> Spans.spans r | None -> []) }
  in
  let results = Pool.run ~jobs:width exec (Array.mapi (fun i x -> (i, x)) items) in
  let wall = now () -. t0 in
  let g1 = Gc.quick_stat () in
  { wall
  ; results
  ; peak_rss_mb = peak_rss_mb ()
  ; minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections
  ; major_gcs = g1.Gc.major_collections - g0.Gc.major_collections }

(* --- per-layer accounting for the traced run ------------------------- *)

type acc = { mutable time : float; mutable alloc : float; mutable count : int; mutable calls : int }

let layers : (string, acc) Hashtbl.t = Hashtbl.create 32

let acc name =
  match Hashtbl.find_opt layers name with
  | Some a -> a
  | None ->
    let a = { time = 0.; alloc = 0.; count = 0; calls = 0 } in
    Hashtbl.add layers name a;
    a

(* Time one call into a layer: a span plus time, minor words and a
   work count ([count], e.g. instructions retired) for the layer.
   Without a recorder it only makes the call. *)
let timed r name ?(count = fun _ -> 0) f =
  match r with
  | None -> f ()
  | Some _ ->
    Spans.with_span r name (fun () ->
        let w0 = Gc.minor_words () and t0 = now () in
        let v = f () in
        let dt = now () -. t0 and dw = Gc.minor_words () -. w0 in
        let a = acc name in
        a.time <- a.time +. dt;
        a.alloc <- a.alloc +. dw;
        a.count <- a.count + count v;
        a.calls <- a.calls + 1;
        v)

let tally name n = (acc name).count <- (acc name).count + n

(* Compile.compile with default options, one phase entry point at a
   time so each phase gets its own span. *)
let compile_phases r source =
  Spans.with_span r "compile" (fun () ->
      let ast = timed r "minic.parse" (fun () -> Elag_minic.Parser.parse source) in
      let typed = timed r "minic.sema" (fun () -> Elag_minic.Sema.check ast) in
      let ir = timed r "ir.lower" (fun () -> Elag_ir.Lower.lower_program typed) in
      let ir =
        timed r "opt.optimize" (fun () ->
            Elag_opt.Driver.optimize ~level:Elag_opt.Driver.O2
              ~inline_threshold:Elag_opt.Inline.default_threshold ir)
      in
      timed r "core.classify" (fun () -> Elag_core.Classify.run ir);
      timed r "codegen.generate" ~count:Program.length (fun () ->
          Elag_codegen.Codegen.generate ir))

let lint r program = timed r "lint.enforce" (fun () -> Lint.enforce program)

let emulate r ?max_insns program =
  ignore (timed r "emulator.create" (fun () -> Emulator.create program));
  Emulator.retired
    (timed r "emulator.run" ~count:Emulator.retired (fun () ->
         Emulator.run_program ?max_insns program))

(* --- workloads ----------------------------------------------------- *)

type 'a workload =
  { items : int -> 'a array  (* round -> its jobs, in seeded order *)
  ; round_s : float
        (* nominal round length on a 2-core host: --seconds / round_s
           rounds make one run, a fixed amount of work per budget *)
  ; job : unit -> Spans.recorder option -> 'a -> work
        (* called once per round: a fresh engine, then the job function *)
  ; layer_pass : Spans.recorder option -> 'a -> unit
        (* traced run only: the same job driven layer by layer *)
  ; fixup : 'a -> work -> work  (* fill in counts the job cannot see *) }

(* grid-slice: paper-regeneration traffic.  Every grid point of the
   grid's four shortest workloads (about 2 M instructions per run): two
   SPEC workloads under all twelve presets plus the reclassified dual-cc
   point, and two MediaBench ones under baseline and dual-cc — 30 jobs
   on a fresh engine per round, in a fresh seeded order every round.
   The seed permutes a fixed population, so the latency distribution and
   the work per round do not depend on it; short workloads leave room
   for several rounds per run. *)
let slice_workloads = [ "008.espresso"; "147.vortex"; "PGP Decode"; "PGP Encode" ]

let slice_universe () =
  List.filter
    (fun (j : Engine.Job.t) -> List.mem j.Engine.Job.workload.Workload.name slice_workloads)
    (Experiments.grid ())

let grid_slice refs ~width ~seed =
  let universe = Array.of_list (slice_universe ()) in
  let items round = Stats.permutation ~seed ~round universe in
  let job () =
    let engine = Engine.create ~jobs:width () in
    fun r (j : Engine.Job.t) ->
      let w = j.Engine.Job.workload in
      ignore (Spans.with_span r "engine.program" (fun () -> Engine.program engine w));
      let profiled = j.Engine.Job.variant = Engine.Reclassified in
      if profiled then ignore (Spans.with_span r "engine.profile" (fun () -> Engine.profile engine w));
      let s =
        Spans.with_span r "engine.simulate" (fun () ->
            Engine.simulate ~variant:j.Engine.Job.variant ~config:j.Engine.Job.config engine w
              j.Engine.Job.mechanism)
      in
      check_grid refs j s;
      { insns = s.Pipeline.instructions
      ; requests =
          ("program:" ^ w.Workload.name)
          :: ("simulate:" ^ Engine.Job.name j)
          :: (if profiled then [ "profile:" ^ w.Workload.name ] else [])
      ; oracle_runs = 0 }
  in
  let programs = Hashtbl.create 8 and profiled = Hashtbl.create 8 in
  let layer_pass r (j : Engine.Job.t) =
    let w = j.Engine.Job.workload in
    let program =
      match Hashtbl.find_opt programs w.Workload.name with
      | Some p -> p
      | None ->
        let p = compile_phases r w.Workload.source in
        lint r p;
        Hashtbl.add programs w.Workload.name p;
        p
    in
    let program =
      match j.Engine.Job.variant with
      | Engine.Classified -> program
      | Engine.Reclassified -> (
        match Hashtbl.find_opt profiled w.Workload.name with
        | Some p -> p
        | None ->
          let prof =
            timed r "profile.collect" ~count:(fun p -> p.Profile.total_instructions) (fun () ->
                Profile.collect program)
          in
          let p = Profile.reclassify prof program in
          lint r p;
          Hashtbl.add profiled w.Workload.name p;
          p)
    in
    ignore (emulate r program);
    let cfg = Config.with_mechanism j.Engine.Job.mechanism j.Engine.Job.config in
    let pipe, output =
      timed r ("pipeline." ^ Config.Mechanism.to_string j.Engine.Job.mechanism)
        ~count:(fun (p, _) -> (Pipeline.stats p).Pipeline.instructions)
        (fun () -> Pipeline.run cfg program)
    in
    check_output w "traced pipeline run" output;
    let s = Pipeline.stats pipe in
    check_grid refs j ~stalls:(stall_fields pipe) s;
    tally "pipeline.insns" s.Pipeline.instructions;
    tally "pipeline.dcache_accesses" s.Pipeline.dcache_accesses;
    tally "pipeline.dcache_misses" s.Pipeline.dcache_misses;
    tally "pipeline.table_attempts" s.Pipeline.table_attempts;
    tally "pipeline.table_successes" s.Pipeline.table_successes;
    tally "pipeline.calc_attempts" s.Pipeline.calc_attempts;
    tally "pipeline.calc_successes" s.Pipeline.calc_successes;
    List.iter (fun (c, n) -> tally ("pipeline.stall." ^ c) n) (stall_fields pipe)
  in
  { items; round_s = 8.; job; layer_pass; fixup = (fun _ w -> w) }

(* profile-suite: the Table 2 path over all 25 workloads in a seeded
   order on a fresh engine: compile, lint, emulator and the ideal
   predictor, never the timing pipeline. *)
let profile_suite refs ~width ~seed =
  let items round = Stats.permutation ~seed ~round (Array.of_list Suite.all) in
  let job () =
    let engine = Engine.create ~jobs:width () in
    fun r (w : Workload.t) ->
      ignore (Spans.with_span r "engine.program" (fun () -> Engine.program engine w));
      let p = Spans.with_span r "engine.profile" (fun () -> Engine.profile engine w) in
      let d = Spans.with_span r "engine.distribution" (fun () -> Engine.distribution engine w) in
      check_profile refs w p d;
      { insns = p.Profile.total_instructions
      ; requests = [ "program:" ^ w.Workload.name; "profile:" ^ w.Workload.name ]
      ; oracle_runs = 0 }
  in
  let layer_pass r (w : Workload.t) =
    let program = compile_phases r w.Workload.source in
    lint r program;
    ignore (emulate r program);
    let p =
      timed r "profile.collect" ~count:(fun p -> p.Profile.total_instructions) (fun () ->
          Profile.collect program)
    in
    if p.Profile.total_instructions <> int_member "total_instructions" (member w.Workload.name refs.profiles)
    then fail "%s: traced profile differs from reference" w.Workload.name
  in
  { items; round_s = 7.; job; layer_pass; fixup = (fun _ w -> w) }

(* fuzz-campaign: one job is one iteration of a default campaign —
   EPA-32 or MiniC (every 5th), fault plan on every 3rd, all presets
   under the oracle — run through Campaign.run on its own seed.  Many
   short programs: per-run set-up dominates. *)
let fuzz_round = 30 (* two periods of the 5/3 MiniC/fault schedule *)

let fuzz_kind i =
  let d = Campaign.default in
  let minic = (i + 1) mod d.Campaign.minic_every = 0 in
  (minic, (not minic) && (i + 1) mod d.Campaign.fault_every = 0)

(* Campaign.run draws each iteration's generator seed from its master
   seed; iteration 0 gets the first draw. *)
let iteration_seed seed = Xorshift.next (Xorshift.create seed)

let fuzz_program r (i, seed) =
  let s = iteration_seed seed in
  if fst (fuzz_kind i) then
    (compile_phases r (timed r "gen.minic" (fun () -> Gen.minic s)), Gen.minic_budget)
  else
    let g = timed r "gen.program" (fun () -> Gen.program s) in
    (g.Gen.program, g.Gen.budget)

let fuzz_campaign _refs ~width:_ ~seed =
  (* every round draws fresh iterations from one seeded stream, so a run
     averages over many programs *)
  let master = Xorshift.create seed and drawn = Hashtbl.create 8 in
  let items r =
    match Hashtbl.find_opt drawn r with
    | Some a -> a
    | None ->
      assert (r = Hashtbl.length drawn);
      let a = Array.init fuzz_round (fun k -> ((r * fuzz_round) + k, Xorshift.next master)) in
      Hashtbl.add drawn r a;
      a
  in
  let mechanisms = List.length Campaign.default.Campaign.mechanisms in
  let job () r (i, s) =
    let minic, fault = fuzz_kind i in
    let cfg =
      { Campaign.default with
        Campaign.seed = s
      ; iters = 1
      ; minic_every = (if minic then 1 else 0)
      ; fault_every = (if fault then 1 else 0) }
    in
    let summary = Spans.with_span r "campaign.run" (fun () -> Campaign.run ~jobs:1 cfg) in
    if not (Campaign.ok summary) then
      fail "iteration %d (seed %d): %d findings, %d failures" i s
        (List.length summary.Campaign.findings) (List.length summary.Campaign.failures);
    let faults = if fault then 1 else 0 in
    if summary.Campaign.oracle_runs <> mechanisms || summary.Campaign.fault_runs <> faults then
      fail "iteration %d: %d oracle runs, %d fault runs" i summary.Campaign.oracle_runs
        summary.Campaign.fault_runs;
    { insns = 0; requests = []; oracle_runs = summary.Campaign.oracle_runs }
  in
  (* Instructions are counted after the timed phase: one emulator run
     per program, times the oracle runs plus a fault baseline and a
     faulted run on fault iterations. *)
  let fixup ((i, _) as item) w =
    let program, budget = fuzz_program None item in
    let n = Emulator.retired (Emulator.run_program ~max_insns:budget program) in
    { w with insns = n * (w.oracle_runs + if snd (fuzz_kind i) then 2 else 0) }
  in
  let layer_pass r ((i, _) as item) =
    let program, budget = fuzz_program r item in
    lint r program;
    let n = emulate r ~max_insns:budget program in
    List.iter
      (fun m ->
        let cfg = Config.with_mechanism m Config.default in
        let report =
          timed r "oracle.run" ~count:(fun _ -> n) (fun () -> Oracle.run ~max_insns:budget cfg program)
        in
        if not (Oracle.ok report) then fail "iteration %d: oracle disagrees under %s" i (Config.Mechanism.to_string m))
      Campaign.default.Campaign.mechanisms
  in
  { items; round_s = 3.5; job; layer_pass; fixup }

(* --- metrics ------------------------------------------------------- *)

let all_results rounds = List.concat_map (fun r -> Array.to_list r.results) rounds
let sum f xs = List.fold_left (fun a x -> a +. f x) 0. xs
let ratio a b = if b > 0. then a /. b else 0.

let end_to_end rounds =
  let results = all_results rounds in
  let tail =
    match Stats.tail (List.map (fun r -> r.latency) results) with
    | Some t -> t
    | None -> fail "only %d jobs ran: too few for the tail percentile" (List.length results)
  in
  let insns = sum (fun r -> float_of_int r.work.insns) results in
  ( [ ("wall_s", Stats.median (List.map (fun r -> r.wall) rounds), "s")
    ; ( "sim_minsn_per_s"
      , Stats.median (List.map (fun r -> float_of_int r.work.insns /. r.latency /. 1e6) results)
      , "Minsn/s" )
    ; ("job_p50_ms", 1000. *. Stats.median (List.map (fun r -> r.latency) results), "ms")
    ; ("job_tail_ms", 1000. *. tail.Stats.value, "ms")
    ; ("minor_words_per_insn", ratio (sum (fun r -> r.words) results) insns, "words/insn")
    ; ("peak_rss_mb", sum (fun r -> r.peak_rss_mb) rounds /. float_of_int (List.length rounds), "MB") ]
  , tail )

let presets = List.map Config.Mechanism.to_string Config.Mechanism.all

let per_layer ~width ~untraced ~traced =
  let a name = acc name in
  let rate name = ratio (float_of_int (a name).count) (a name).time /. 1e6 in
  let wpi name = ratio (a name).alloc (float_of_int (a name).count) in
  let mean_ms name = 1000. *. ratio (a name).time (float_of_int (a name).calls) in
  let counted name = float_of_int (a name).count in
  let pipe_time = sum (fun p -> (a ("pipeline." ^ p)).time) presets in
  let spans = List.concat_map (fun r -> List.concat_map (fun x -> x.spans) (Array.to_list r.results)) traced in
  let per_round f = sum f traced /. float_of_int (List.length traced) in
  let span_total name = sum (fun s -> if s.Spans.name = name then Spans.duration s else 0.) spans in
  let requests = List.map (fun r -> List.concat_map (fun x -> x.work.requests) (Array.to_list r.results)) traced in
  let hits = sum (fun q -> float_of_int (List.length q - List.length (List.sort_uniq compare q))) requests in
  let pipe_insns = counted "pipeline.insns" in
  List.concat_map
    (fun p -> [ ("pipeline." ^ p ^ ".minsn_per_s", rate ("pipeline." ^ p), "Minsn/s")
              ; ("pipeline." ^ p ^ ".words_per_insn", wpi ("pipeline." ^ p), "words/insn") ])
    presets
  @ [ ("pipeline.self_s", (if pipe_time > 0. then pipe_time -. (a "emulator.run").time else 0.), "s")
    ; ("pipeline.dcache_miss_ratio", ratio (counted "pipeline.dcache_misses") (counted "pipeline.dcache_accesses"), "ratio")
    ; ("pipeline.table_success_ratio", ratio (counted "pipeline.table_successes") (counted "pipeline.table_attempts"), "ratio")
    ; ("pipeline.calc_success_ratio", ratio (counted "pipeline.calc_successes") (counted "pipeline.calc_attempts"), "ratio") ]
  @ List.map
      (fun c -> ("pipeline.stall_cpi." ^ Stall.name c, ratio (counted ("pipeline.stall." ^ Stall.name c)) pipe_insns, "cycles/insn"))
      Stall.all
  @ [ ("emulator.minsn_per_s", rate "emulator.run", "Minsn/s")
    ; ("emulator.words_per_insn", wpi "emulator.run", "words/insn")
    ; ("emulator.create_ms", mean_ms "emulator.create", "ms")
    ; ("profile.minsn_per_s", rate "profile.collect", "Minsn/s")
    ; ("profile.words_per_insn", wpi "profile.collect", "words/insn") ]
  @ List.map (fun n -> (n ^ "_s", (a n).time, "s"))
      [ "minic.parse"; "minic.sema"; "ir.lower"; "opt.optimize"; "core.classify"; "codegen.generate" ]
  @ [ ("codegen.code_insns", counted "codegen.generate", "count")
    ; ("lint.enforce_ms", mean_ms "lint.enforce", "ms")
    ; ("oracle.minsn_per_s", rate "oracle.run", "Minsn/s")
    ; ("gen.program_ms", mean_ms "gen.program", "ms")
    ; ("gen.minic_ms", mean_ms "gen.minic", "ms")
    ; ("campaign.oracle_runs", per_round (fun r -> sum (fun x -> float_of_int x.work.oracle_runs) (Array.to_list r.results)), "count")
    ; ("engine.program_s", span_total "engine.program" /. float_of_int (List.length traced), "s")
    ; ("engine.profile_s", span_total "engine.profile" /. float_of_int (List.length traced), "s")
    ; ("engine.simulate_s", span_total "engine.simulate" /. float_of_int (List.length traced), "s")
    ; ("engine.cache_hit_ratio", ratio hits (sum (fun q -> float_of_int (List.length q)) requests), "ratio")
    ; ( "pool.busy_ratio"
      , per_round (fun r -> sum (fun x -> x.latency) (Array.to_list r.results) /. (r.wall *. float_of_int width))
      , "ratio" )
    ; ("pool.wait_p50_ms", 1000. *. Stats.median (List.map (fun x -> x.offset) (all_results traced)), "ms")
    ; ("gc.minor_collections", per_round (fun r -> float_of_int r.minor_gcs), "count")
    ; ("gc.major_collections", per_round (fun r -> float_of_int r.major_gcs), "count")
    ; ( "trace.overhead_s"
      , Stats.median (List.map (fun r -> r.wall) traced) -. Stats.median (List.map (fun r -> r.wall) untraced)
      , "s" ) ]

(* --- driver -------------------------------------------------------- *)

let metric_json metrics =
  Json.Obj (List.map (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ])) metrics)

(* [rounds] rounds, except that none starts once [seconds] have
   passed (a slow host runs fewer rounds rather than overrunning); the
   traced run alternates untraced and traced rounds, at least one of
   each, so its overhead is measured in one process. *)
let measure ~rounds ~seconds ~trace run =
  let rounds = if trace then max 2 rounds else rounds in
  let t0 = now () in
  let rec go r acc =
    if r >= rounds || (r >= (if trace then 2 else 1) && now () -. t0 >= seconds) then List.rev acc
    else
      let traced = trace && r mod 2 = 1 in
      go (r + 1) ((traced, run r traced) :: acc)
  in
  let all = go 0 [] in
  let pick t = List.filter_map (fun (traced, x) -> if traced = t then Some x else None) all in
  (pick false, pick true)

let workload_names = [ "grid-slice"; "profile-suite"; "fuzz-campaign" ]

type packed = Packed : 'a workload -> packed

let make_workload name refs ~width ~seed =
  match name with
  | "grid-slice" -> Packed (grid_slice refs ~width ~seed)
  | "profile-suite" -> Packed (profile_suite refs ~width ~seed)
  | "fuzz-campaign" -> Packed (fuzz_campaign refs ~width ~seed)
  | n -> fail "unknown workload %s (known: %s)" n (String.concat ", " workload_names)

let print_self_times spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let total, self, n = Option.value (Hashtbl.find_opt tbl s.Spans.name) ~default:(0., 0., 0) in
      Hashtbl.replace tbl s.Spans.name (total +. Spans.duration s, self +. Spans.self_time spans s, n + 1))
    spans;
  Printf.printf "%-22s %8s %10s %10s\n" "span" "count" "total_s" "self_s";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare
  |> List.iter (fun (k, (total, self, n)) -> Printf.printf "%-22s %8d %10.4f %10.4f\n" k n total self)

let write_spans path spans =
  Out_channel.with_open_bin path (fun oc ->
      Json.output oc (Json.Obj [ ("schema", Json.String "perfbench.spans.v1"); ("spans", Json.List (List.map Spans.to_json spans)) ]))

let run_benchmark ~name ~seed ~seconds ~trace ~width ~spans_out ~setup_only =
  let refs = load_refs () in
  let (Packed w) = make_workload name refs ~width ~seed in
  if setup_only then begin
    (* first timed job would start here *)
    Printf.printf "{\"ready\": %.6f}\n" (now ());
    exit 0
  end;
  let run r traced =
    let items = w.items r in
    let round = run_round ~width ~traced items (w.job ()) in
    { round with
      results =
        Array.mapi
          (fun i x -> if x.error = None then { x with work = w.fixup items.(i) x.work } else x)
          round.results }
  in
  let rounds = max 1 (int_of_float (float_of_int seconds /. w.round_s)) in
  let untraced, traced = measure ~rounds ~seconds:(float_of_int seconds) ~trace run in
  let layer_spans, layer_errors =
    if not trace then ([], [])
    else
      Array.to_list (w.items 0)
      |> List.mapi (fun i item ->
             let r = Spans.recorder ~job:(1_000_000 + i) in
             let err = try w.layer_pass (Some r) item; None with e -> Some (Printexc.to_string e) in
             (Spans.spans r, err))
      |> List.split
      |> fun (s, e) -> (List.concat s, List.filter_map Fun.id e)
  in
  let results = all_results (untraced @ traced) in
  let errors = List.filter_map (fun r -> r.error) results @ layer_errors in
  let attempted = List.length results + if trace then Array.length (w.items 0) else 0 in
  List.iteri (fun i e -> if i < 10 then Printf.printf "FAILED: %s\n" e) errors;
  let (e2e, tail) = end_to_end untraced in
  Printf.printf "workload %s seed %d: %d rounds of %d jobs, %d jobs failed\n" name seed
    (List.length untraced) (Array.length (w.items 0)) (List.length errors);
  Printf.printf "job_tail_ms is the p%.1f of %d jobs\n" tail.Stats.percentile tail.Stats.samples;
  let per_round f = String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" (f r)) untraced) in
  Printf.printf "round walls (s): %s\nround peak RSS (MB): %s\n" (per_round (fun r -> r.wall))
    (per_round (fun r -> r.peak_rss_mb));
  let insns = sum (fun r -> float_of_int r.work.insns) (all_results untraced) in
  let busy = sum (fun r -> r.wall) untraced in
  Printf.printf "aggregate: %.2f M instructions in %.2f s of rounds, %.4g Minsn/s\n" (insns /. 1e6) busy
    (insns /. busy /. 1e6);
  let metrics =
    if trace then begin
      let spans = List.concat_map (fun r -> List.concat_map (fun x -> x.spans) (Array.to_list r.results)) traced @ layer_spans in
      print_self_times spans;
      Option.iter (fun p -> write_spans p spans) spans_out;
      per_layer ~width ~untraced ~traced
    end
    else e2e
  in
  List.iter (fun (n, v, u) -> Printf.printf "  %-36s %14.6g %s\n" n v u) metrics;
  print_endline
    (Json.to_string
       (Json.Obj
          [ ( "provenance"
            , Json.Obj
                [ ("workload", Json.String name); ("seed", Json.Int seed); ("pool_width", Json.Int width)
                ; ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()))
                ; ("ocaml_version", Json.String Sys.ocaml_version)
                ; ("tail_percentile", Json.Float tail.Stats.percentile)
                ; ("tail_samples", Json.Int tail.Stats.samples)
                ; ("rounds", Json.Int (List.length untraced)); ("traced_rounds", Json.Int (List.length traced))
                ; ("error_rate", Json.Float (ratio (float_of_int (List.length errors)) (float_of_int attempted))) ] ) ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (errors = [])); ("attempted", Json.Int attempted)
          ; ("failed", Json.Int (List.length errors)); ("metrics", metric_json metrics) ]));
  if errors <> [] then exit 1

(* Regenerate perfbench/reference.json: every grid job of the slice
   workloads and the profile of every suite workload, straight from the
   simulator (outputs checked against the workloads' pinned
   expectations). *)
let record ~width path =
  let engine = Engine.create ~jobs:width () in
  let grid =
    Pool.map_list ~jobs:width
      (fun (j : Engine.Job.t) ->
        let w = j.Engine.Job.workload in
        let program = Engine.program_of engine w j.Engine.Job.variant in
        let pipe, output = Pipeline.run (Config.with_mechanism j.Engine.Job.mechanism j.Engine.Job.config) program in
        check_output w "record" output;
        let ints l = List.map (fun (k, v) -> (k, Json.Int v)) l in
        ( Engine.Job.name j
        , Json.Obj (ints (stats_fields (Pipeline.stats pipe)) @ [ ("stalls", Json.Obj (ints (stall_fields pipe))) ]) ))
      (slice_universe ())
  in
  let profiles =
    Pool.map_list ~jobs:width
      (fun (w : Workload.t) ->
        (w.Workload.name, Json.Obj (distribution_fields (Engine.profile engine w) (Engine.distribution engine w))))
      Suite.all
  in
  Out_channel.with_open_bin path (fun oc ->
      Json.output ~pretty:true oc
        (Json.Obj
           [ ("schema", Json.String "perfbench.reference.v1"); ("grid", Json.Obj grid)
           ; ("profiles", Json.Obj profiles) ]);
      output_char oc '\n')

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let jobs = ref (Domain.recommended_domain_count ()) and spans_out = ref "" in
  let setup_only = ref false and record_to = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workload_names)
    ; ("--seed", Arg.Set_int seed, " input seed")
    ; ("--seconds", Arg.Set_int seconds, " measurement budget")
    ; ("--trace", Arg.Set_int trace, " 1 = traced run (per-layer metrics)")
    ; ("--jobs", Arg.Set_int jobs, " pool width (the cores available)")
    ; ("--spans", Arg.Set_string spans_out, " file for the traced run's spans")
    ; ("--setup-only", Arg.Set setup_only, " stop where the first timed job would start")
    ; ("--record", Arg.Set_string record_to, " regenerate the reference file") ]
    (fun a -> raise (Arg.Bad a))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --jobs J";
  let width = max 1 !jobs in
  if !record_to <> "" then record ~width !record_to
  else
    run_benchmark ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~width
      ~spans_out:(if !spans_out = "" then None else Some !spans_out)
      ~setup_only:!setup_only
