(* Cycle-based timing model of the six-stage in-order superscalar
   pipeline (IF ID1 ID2 EXE MEM WB) with dual early-address-generation
   support.

   The model is emulation-driven: it consumes the retirement stream
   from {!Emulator} in program order and computes the issue cycle of
   every instruction subject to issue width, functional-unit limits,
   operand readiness (full bypass), data-cache ports, branch
   prediction, and cache misses.

   Timing conventions — an instruction issued at cycle [c] occupies
   ID1 at [c-2], ID2 at [c-1], EXE at [c], MEM at [c+1]:
   - ALU results feed dependents issued at [c+1];
   - a normal load's value feeds dependents at [c+2] (the one-cycle
     load-use stall of Figure 1a), plus 12 cycles on a D-cache miss;
   - an [ld_p] speculative access probes the table in ID1 and accesses
     the cache in ID2 ([c-1]); verified against the computed address at
     the end of EXE, a correct prediction feeds dependents at [c+1]
     (latency 1);
   - an [ld_e] access computes R_addr+offset in ID1 and accesses the
     cache in ID2; since no late verification is needed, a successful
     access feeds dependents at [c] (latency 0);
   - speculative accesses consume a data-cache port at [c-1]; wrong
     speculation wastes only that bandwidth (the paper's "extra load").

   Telemetry: besides the flat {!stats} record the model attributes
   every non-issuing cycle to a {!Elag_telemetry.Stall.t} cause and
   keeps a per-static-load table ({!load_site}) so reproduction gaps
   can be localized to individual loads.  Attribution charges the
   binding (latest) constraint: operand-readiness cycles go to the
   cause recorded when the producing register was written (load-use /
   dcache-miss / raw-dependence), front-end cycles to the event that
   last pushed [fetch_ready] (icache-miss / btb-mispredict, with
   startup pipeline fill folded into the former since the first fetch
   is always a cold miss), and cycles spent searching past the operand
   bound for a free data-cache port to port-contention.  The final
   drain — cycles between the last issue and the last writeback — is
   charged to the cause of the instruction that finishes last.  By
   construction [busy_cycles + Σ stall_breakdown = stats.cycles]. *)

module Insn = Elag_isa.Insn
module Reg = Elag_isa.Reg
module Addr_table = Elag_predict.Addr_table
module Bric = Elag_predict.Bric
module Btb = Elag_predict.Btb
module Stall = Elag_telemetry.Stall
module Histogram = Elag_telemetry.Histogram

type stats =
  { mutable cycles : int
  ; mutable instructions : int
  ; mutable loads : int
  ; mutable stores : int
  ; mutable loads_n : int
  ; mutable loads_p : int
  ; mutable loads_e : int
  ; mutable table_attempts : int  (* speculative accesses via the table *)
  ; mutable table_successes : int
  ; mutable calc_attempts : int   (* speculative accesses via early calc *)
  ; mutable calc_successes : int
  ; mutable wasted_spec : int     (* dispatched but not forwarded *)
  ; mutable load_latency_sum : int
  ; mutable icache_misses : int
  ; mutable dcache_accesses : int
  ; mutable dcache_misses : int
  ; mutable btb_mispredicts : int }

let fresh_stats () =
  { cycles = 0; instructions = 0; loads = 0; stores = 0
  ; loads_n = 0; loads_p = 0; loads_e = 0
  ; table_attempts = 0; table_successes = 0
  ; calc_attempts = 0; calc_successes = 0
  ; wasted_spec = 0; load_latency_sum = 0
  ; icache_misses = 0; dcache_accesses = 0; dcache_misses = 0
  ; btb_mispredicts = 0 }

type load_site =
  { site_pc : int
  ; site_spec : Insn.load_spec
  ; mutable site_count : int
  ; mutable site_table_attempts : int
  ; mutable site_table_successes : int
  ; mutable site_calc_attempts : int
  ; mutable site_calc_successes : int
  ; mutable site_wasted_spec : int
  ; mutable site_latency_sum : int
  ; mutable site_dcache_misses : int
  ; site_latency : Histogram.t }

let ring_size = 1024
let ring_mask = ring_size - 1

(* Which early path a load takes under the configured mechanism. *)
type path = No_path | Table | Calc

type t =
  { cfg : Config.t
  ; icache : Cache.t
  ; dcache : Cache.t
  ; btb : Btb.t
  ; table : Addr_table.t option
  ; bric : Bric.t option  (* BRIC under calc-N, R_addr under dual-* *)
  ; reg_ready : int array
  ; reg_cause : Stall.t array  (* why waiting on this register stalls *)
  ; port_cycle : int array  (* ring: which cycle this slot describes *)
  ; port_count : int array
  ; mutable cur_cycle : int
  ; mutable slots_used : int
  ; mutable alus_used : int
  ; mutable branches_used : int
  ; mutable fetch_ready : int
  ; mutable fetch_cause : Stall.t  (* why waiting on the front end stalls *)
  (* in-flight stores: a ring of the last [3 * mem_ports] stores, in
     issue order (see [push_store]) *)
  ; store_cycle : int array  (* issue cycle; min_int = empty *)
  ; store_addr : int array
  ; store_bytes : int array
  ; mutable store_next : int  (* ring slot the next store overwrites *)
  ; mutable store_floor : int  (* stores issued before this are retired *)
  ; mutable tracer : (int -> Insn.t -> int -> int -> unit) option
    (* pc, insn, issue cycle, result latency — for visualization *)
  ; mutable last_issue : int   (* most recent cycle an instruction issued *)
  ; mutable busy_cycles : int  (* distinct cycles with >= 1 issue *)
  ; stall_cycles : int array   (* indexed by Stall.index *)
  ; mutable drain_cause : Stall.t  (* cause of the latest writeback *)
  ; mutable sites : load_site array  (* indexed by pc; [no_site] = unseen *)
  ; load_latency_hist : Histogram.t
  ; stats : stats
  (* per-retire scratch, so [process] returns nothing through tuples,
     options or records *)
  ; mutable src_ready : int      (* latest source-operand ready cycle *)
  ; mutable src_cause : Stall.t  (* and the cause its producer recorded *)
  ; mutable spec_dispatched : bool  (* speculative access goes out *)
  ; mutable spec_access : int       (* cycle it occupies the cache *)
  ; mutable spec_success : bool     (* and forwards the loaded value *)
  ; mutable load_cause : Stall.t }  (* why a load's consumers wait *)

let new_site pc spec =
  { site_pc = pc
  ; site_spec = spec
  ; site_count = 0
  ; site_table_attempts = 0
  ; site_table_successes = 0
  ; site_calc_attempts = 0
  ; site_calc_successes = 0
  ; site_wasted_spec = 0
  ; site_latency_sum = 0
  ; site_dcache_misses = 0
  ; site_latency = Histogram.create ~bounds:Histogram.load_latency_bounds }

(* Marks the pcs of [t.sites] no load has retired from. *)
let no_site = new_site (-1) Insn.Ld_n

let create (cfg : Config.t) =
  let table =
    match cfg.mechanism with
    | Config.Table_only { entries; _ } -> Some (Addr_table.create entries)
    | Config.Dual { table_entries; _ } -> Some (Addr_table.create table_entries)
    | _ -> None
  in
  (* R_addr is a one-entry BRIC: a probe that misses rebinds it, and
     the new binding is usable from the next cycle. *)
  let bric =
    match cfg.mechanism with
    | Config.Calc_only { bric_entries } -> Some (Bric.create bric_entries)
    | Config.Dual _ -> Some (Bric.create 1)
    | _ -> None
  in
  let stores = 3 * Int.max 1 cfg.mem_ports in
  { cfg
  ; icache =
      Cache.create ~ways:cfg.cache_ways ~size_bytes:cfg.icache_bytes
        ~line_bytes:cfg.line_bytes ()
  ; dcache =
      Cache.create ~ways:cfg.cache_ways ~size_bytes:cfg.dcache_bytes
        ~line_bytes:cfg.line_bytes ()
  ; btb = Btb.create cfg.btb_entries
  ; table
  ; bric
  ; reg_ready = Array.make Reg.count 0
  ; reg_cause = Array.make Reg.count Stall.Raw_dependence
  ; port_cycle = Array.make ring_size (-1)
  ; port_count = Array.make ring_size 0
  ; cur_cycle = 4  (* leave room for stage offsets at startup *)
  ; slots_used = 0
  ; alus_used = 0
  ; branches_used = 0
  ; fetch_ready = 4
  ; fetch_cause = Stall.Icache_miss  (* startup fill = frontend *)
  ; store_cycle = Array.make stores min_int
  ; store_addr = Array.make stores 0
  ; store_bytes = Array.make stores 0
  ; store_next = 0
  ; store_floor = min_int
  ; tracer = None
  ; last_issue = -1
  ; busy_cycles = 0
  ; stall_cycles = Array.make Stall.cardinal 0
  ; drain_cause = Stall.Raw_dependence
  ; sites = Array.make 256 no_site
  ; load_latency_hist = Histogram.create ~bounds:Histogram.load_latency_bounds
  ; stats = fresh_stats ()
  ; src_ready = 0
  ; src_cause = Stall.Raw_dependence
  ; spec_dispatched = false
  ; spec_access = 0
  ; spec_success = false
  ; load_cause = Stall.Load_use }

(* --- data-cache port ring ------------------------------------------- *)

let ports_used t cycle =
  let i = cycle land ring_mask in
  if t.port_cycle.(i) = cycle then t.port_count.(i) else 0

let port_free t cycle = ports_used t cycle < t.cfg.mem_ports

let book_port t cycle =
  let i = cycle land ring_mask in
  if t.port_cycle.(i) <> cycle then begin
    t.port_cycle.(i) <- cycle;
    t.port_count.(i) <- 0
  end;
  t.port_count.(i) <- t.port_count.(i) + 1

(* --- store interlocks ------------------------------------------------ *)

let overlap a1 n1 a2 n2 = not (a1 + n1 <= a2 || a2 + n2 <= a1)

(* Record a store issued at [cycle] (the current cycle), overwriting the
   oldest ring slot.  That slot is always dead: every later read cycle
   is >= [cur_cycle - 1], so a store issued before [cycle - 2] can
   never interlock again, and at most [mem_ports] stores issue per
   cycle (each books a port at [cycle + 1]), so the ring's
   [3 * mem_ports] slots hold every store of [cycle - 2 .. cycle]. *)
let push_store t cycle addr bytes =
  let i = t.store_next in
  t.store_cycle.(i) <- cycle;
  t.store_addr.(i) <- addr;
  t.store_bytes.(i) <- bytes;
  t.store_next <- (if i + 1 = Array.length t.store_cycle then 0 else i + 1)

(* Conservative memory interlock for a speculative access reading the
   cache during cycle [read_cycle]: a store issued at [read_cycle] or
   later has an unresolved address (interlock); one issued the cycle
   before races with the read and interlocks when the ranges overlap;
   older stores have completed their write-through and are retired for
   good: a later read at an earlier cycle (a table read at [c - 1]
   after a calc read at [c]) no longer sees them. *)
let mem_interlock t ~read_cycle spec_addr spec_bytes =
  t.store_floor <- Int.max t.store_floor (read_cycle - 1);
  let hit = ref false in
  for i = 0 to Array.length t.store_cycle - 1 do
    let cs = t.store_cycle.(i) in
    if
      cs >= t.store_floor
      && (cs >= read_cycle
         || overlap t.store_addr.(i) t.store_bytes.(i) spec_addr spec_bytes)
    then hit := true
  done;
  !hit

(* --- issue-cycle bookkeeping ----------------------------------------- *)

let advance_to t c =
  if c > t.cur_cycle then begin
    t.cur_cycle <- c;
    t.slots_used <- 0;
    t.alus_used <- 0;
    t.branches_used <- 0
  end

let structural_ok t c ~alu ~branch =
  if c > t.cur_cycle then true
  else
    t.slots_used < t.cfg.issue_width
    && ((not alu) || t.alus_used < t.cfg.int_alus)
    && ((not branch) || t.branches_used < t.cfg.branch_units)

(* --- telemetry helpers ------------------------------------------------ *)

let charge t cause n =
  let i = Stall.index cause in
  t.stall_cycles.(i) <- t.stall_cycles.(i) + n

(* Raise [fetch_ready], remembering the responsible cause only when the
   bound actually moves (a smaller refill never becomes the binding
   constraint). *)
let bump_fetch t cycle cause =
  if cycle > t.fetch_ready then begin
    t.fetch_ready <- cycle;
    t.fetch_cause <- cause
  end

let site_of t pc spec =
  let n = Array.length t.sites in
  if pc >= n then begin
    let sites = Array.make (Int.max (2 * n) (pc + 1)) no_site in
    Array.blit t.sites 0 sites 0 n;
    t.sites <- sites
  end;
  let site = t.sites.(pc) in
  if site != no_site then site
  else begin
    let site = new_site pc spec in
    t.sites.(pc) <- site;
    site
  end

(* --- speculation evaluation ------------------------------------------ *)

(* Early-calculation timing is elastic in an in-order pipeline: the
   dedicated adder computes base+offset during the first cycle the base
   value is visible to R_addr/BRIC (never earlier than the load's ID1),
   and the speculative access goes out the following cycle.  The early
   path is profitable only when that access completes no later than the
   EXE stage of the load itself; a base register that becomes ready
   exactly at EXE (the paper's Figure 1c worst case) gains nothing and
   is suppressed as an R_addr interlock. *)
let calc_access_cycle t c base = 1 + Int.max (c - 2) t.reg_ready.(base)

(* Evaluate the speculative path at candidate issue cycle [c] into the
   [spec_*] fields; pure apart from the interlock's store retirement.
   [predicted] says whether the table holds an address for this load
   ([pa]; peeked once per load, before the search). *)
let eval_spec t c path ~predicted ~pa ~eff ~bytes addr =
  t.spec_dispatched <- false;
  t.spec_success <- false;
  match path with
  | No_path -> ()
  | Table ->
    (* PC-indexed prediction is available at ID1; the speculative
       access occupies the cache during ID2 and is verified against
       the computed address at the end of EXE: latency 1. *)
    let access_cycle = c - 1 in
    if predicted && port_free t access_cycle then begin
      t.spec_dispatched <- true;
      t.spec_access <- access_cycle;
      t.spec_success <-
        pa = eff
        && Cache.probe t.dcache pa
        && not (mem_interlock t ~read_cycle:access_cycle pa bytes)
    end
  | Calc -> begin
    match addr with
    | Insn.Base_index _ | Insn.Absolute _ -> ()
    | Insn.Base_offset (base, _) ->
      let structure_hit =
        match t.bric with Some b -> Bric.peek b ~cycle:(c - 2) base | None -> false
      in
      let access_cycle = calc_access_cycle t c base in
      if structure_hit && access_cycle <= c && port_free t access_cycle then begin
        t.spec_dispatched <- true;
        t.spec_access <- access_cycle;
        t.spec_success <-
          Cache.probe t.dcache eff
          && not (mem_interlock t ~read_cycle:access_cycle eff bytes)
      end
  end

(* Which early path does this load take under the configured
   mechanism?  A table-path load also updates the table at MEM. *)
let select_path t c spec addr =
  match t.cfg.mechanism with
  | Config.No_early -> No_path
  | Config.Table_only { compiler_filtered; _ } ->
    if compiler_filtered && spec <> Insn.Ld_p then No_path else Table
  | Config.Calc_only _ -> Calc
  | Config.Dual { selection = Config.Compiler_directed; _ } -> begin
    match spec with
    | Insn.Ld_p -> Table
    | Insn.Ld_e -> Calc
    | Insn.Ld_n -> No_path
  end
  | Config.Dual { selection = Config.Hardware_selected; _ } -> begin
    (* Run-time selection over the same hardware (Eickemeyer–
       Vassiliadis rule): a base register interlocked at decode sends
       the load to the prediction table (allocating an entry);
       otherwise it takes the early-calculation path through R_addr,
       rebinding it.  With no compiler guidance, every calc-path load
       competes for the single R_addr binding. *)
    match addr with
    | Insn.Base_index _ | Insn.Absolute _ -> Table
    | Insn.Base_offset (base, _) ->
      if t.reg_ready.(base) <= c - 2 then Calc else Table
  end

(* --- per-instruction processing --------------------------------------- *)

(* Source operands: the latest ready cycle among the registers read,
   and the cause its producer recorded (the first such register wins a
   tie). *)
let use t r =
  let ready = t.reg_ready.(r) in
  if ready > t.src_ready then begin
    t.src_ready <- ready;
    t.src_cause <- t.reg_cause.(r)
  end

(* The issue-cycle search, from the operand/front-end bound [c0]: the
   first cycle with a free issue slot and functional unit that, for a
   memory access, also has its data-cache port (a load whose
   speculative access forwards needs no MEM port).  A load leaves its
   speculative evaluation at the returned cycle in the [spec_*]
   fields. *)
let rec find_cycle t insn ~alu ~branch ~predicted ~pa eff c =
  if not (structural_ok t c ~alu ~branch) then
    find_cycle t insn ~alu ~branch ~predicted ~pa eff (c + 1)
  else
    match insn with
    | Insn.Store _ ->
      if port_free t (c + 1) then c
      else find_cycle t insn ~alu ~branch ~predicted ~pa eff (c + 1)
    | Insn.Load { spec; size; addr; _ } ->
      eval_spec t c (select_path t c spec addr) ~predicted ~pa ~eff
        ~bytes:(Insn.size_bytes size) addr;
      if t.spec_success || port_free t (c + 1) then c
      else find_cycle t insn ~alu ~branch ~predicted ~pa eff (c + 1)
    | _ -> c

let count_load_spec stats = function
  | Insn.Ld_n -> stats.loads_n <- stats.loads_n + 1
  | Insn.Ld_p -> stats.loads_p <- stats.loads_p + 1
  | Insn.Ld_e -> stats.loads_e <- stats.loads_e + 1

(* Commit a load issued at [c] whose speculative evaluation is in the
   [spec_*] fields: structure probes and bindings, port and cache
   effects, statistics and the table update.  Returns the load's
   effective latency and leaves its consumers' stall cause in
   [load_cause]. *)
let retire_load t pc spec addr ~predicted ~pa eff c =
  let s = t.stats in
  s.loads <- s.loads + 1;
  count_load_spec s spec;
  let site = site_of t pc spec in
  site.site_count <- site.site_count + 1;
  let path = select_path t c spec addr in
  (* commit structure probes/bindings *)
  (match (path, addr) with
  | Calc, Insn.Base_offset (base, _) -> begin
    match t.bric with Some b -> ignore (Bric.probe b ~cycle:(c - 2) base) | None -> ()
  end
  | Table, _ -> begin
    (* the decode-stage table access: counted probe, hit on a tag match *)
    match t.table with
    | Some table -> ignore (Addr_table.probe table pc)
    | None -> ()
  end
  | (No_path | Calc), _ -> ());
  (* speculative dispatch effects *)
  let spec_missed_same_line = ref false in
  let success = t.spec_success in
  if t.spec_dispatched then begin
    book_port t t.spec_access;
    s.dcache_accesses <- s.dcache_accesses + 1;
    (* the speculative access touches the cache with its (possibly
       wrong) address; for the table path that is the prediction *)
    let spec_addr =
      match path with Table when predicted -> pa | No_path | Table | Calc -> eff
    in
    if not (Cache.access t.dcache spec_addr) then begin
      s.dcache_misses <- s.dcache_misses + 1;
      (* a correct-address speculative miss starts the fill early;
         the normal access below merges with the in-flight fill *)
      if spec_addr lsr 6 = eff lsr 6 then spec_missed_same_line := true
    end;
    (match path with
    | Table ->
      s.table_attempts <- s.table_attempts + 1;
      site.site_table_attempts <- site.site_table_attempts + 1;
      if success then begin
        s.table_successes <- s.table_successes + 1;
        site.site_table_successes <- site.site_table_successes + 1
      end
    | Calc ->
      s.calc_attempts <- s.calc_attempts + 1;
      site.site_calc_attempts <- site.site_calc_attempts + 1;
      if success then begin
        s.calc_successes <- s.calc_successes + 1;
        site.site_calc_successes <- site.site_calc_successes + 1
      end
    | No_path -> ());
    if not success then begin
      s.wasted_spec <- s.wasted_spec + 1;
      site.site_wasted_spec <- site.site_wasted_spec + 1
    end
  end;
  let load_missed = ref false in
  let lat =
    if success then
      match path with
      | Table -> 1
      | Calc -> Int.max 0 (t.spec_access + 1 - c)
      | No_path -> 0
    else begin
      (* normal path: cache access at MEM *)
      book_port t (c + 1);
      s.dcache_accesses <- s.dcache_accesses + 1;
      let hit = Cache.access t.dcache eff in
      if not hit then begin
        s.dcache_misses <- s.dcache_misses + 1;
        load_missed := true
      end;
      if hit && !spec_missed_same_line then
        (* merge with the fill the speculative access initiated *)
        t.cfg.load_latency
        + Int.max 0 (t.cfg.miss_penalty - (c + 1 - t.spec_access))
      else t.cfg.load_latency + (if hit then 0 else t.cfg.miss_penalty)
    end
  in
  s.load_latency_sum <- s.load_latency_sum + lat;
  site.site_latency_sum <- site.site_latency_sum + lat;
  if !load_missed then site.site_dcache_misses <- site.site_dcache_misses + 1;
  Histogram.observe site.site_latency lat;
  Histogram.observe t.load_latency_hist lat;
  t.load_cause <- (if !load_missed then Stall.Dcache_miss else Stall.Load_use);
  (* the table entry is updated at MEM with the computed address *)
  (match (path, t.table) with
  | Table, Some table -> ignore (Addr_table.update table pc eff)
  | (No_path | Table | Calc), _ -> ());
  lat

(* Per retired instruction.  The contract: this allocates nothing and
   never reaches OCaml's polymorphic compare — scratch state lives in
   mutable fields of [t], comparisons are on ints, and the only heap
   allocation is a load site's record (and a larger site array) the
   first time its pc retires. *)
let process t pc insn eff taken next_pc =
  let s = t.stats in
  s.instructions <- s.instructions + 1;
  (* instruction fetch *)
  if not (Cache.access t.icache (pc lsl 2)) then begin
    s.icache_misses <- s.icache_misses + 1;
    bump_fetch t (Int.max t.fetch_ready t.cur_cycle + t.cfg.miss_penalty)
      Stall.Icache_miss
  end;
  let alu, branch =
    match insn with
    | Insn.Alu _ | Insn.Li _ | Insn.Syscall _ | Insn.Nop | Insn.Halt -> (true, false)
    | Insn.Branch _ | Insn.Jump _ | Insn.Jal _ | Insn.Jalr _ | Insn.Jr _ -> (false, true)
    | Insn.Load _ | Insn.Store _ -> (false, false)
  in
  t.src_ready <- 0;
  t.src_cause <- Stall.Raw_dependence;
  Insn.iter_uses use t insn;
  let sources_ready = t.src_ready in
  let c0 = Int.max (Int.max t.fetch_ready sources_ready) t.cur_cycle in
  (* the table's prediction, peeked once per load *)
  let predicted, pa =
    match (insn, t.table) with
    | Insn.Load _, Some table when Addr_table.peek table pc ->
      (true, Addr_table.predicted_address table pc)
    | _ -> (false, 0)
  in
  let c = find_cycle t insn ~alu ~branch ~predicted ~pa eff c0 in
  (* stall attribution: charge every cycle between the previous issue
     and this one to its binding constraint.  [last_issue+1, c0) was
     bounded by operand readiness or the front end (whichever is
     latest); [c0, c) was spent searching for a free data-cache port. *)
  if c > t.last_issue then begin
    let gap_start = t.last_issue + 1 in
    let dep_end = Int.min c c0 in
    if dep_end > gap_start then begin
      let cause =
        if sources_ready >= t.fetch_ready && sources_ready > t.last_issue then
          t.src_cause
        else t.fetch_cause
      in
      charge t cause (dep_end - gap_start)
    end;
    let port_start = Int.max c0 gap_start in
    if c > port_start then charge t Stall.Port_contention (c - port_start);
    t.busy_cycles <- t.busy_cycles + 1;
    t.last_issue <- c
  end;
  advance_to t c;
  t.slots_used <- t.slots_used + 1;
  if alu then t.alus_used <- t.alus_used + 1;
  if branch then t.branches_used <- t.branches_used + 1;
  let latency, def_cause =
    match insn with
    | Insn.Alu { op = Insn.Mul; _ } -> (t.cfg.mul_latency, Stall.Raw_dependence)
    | Insn.Alu { op = Insn.Div | Insn.Rem; _ } ->
      (t.cfg.div_latency, Stall.Raw_dependence)
    | Insn.Load { spec; addr; _ } ->
      let lat = retire_load t pc spec addr ~predicted ~pa eff c in
      (lat, t.load_cause)
    | Insn.Store { size; _ } ->
      s.stores <- s.stores + 1;
      book_port t (c + 1);
      s.dcache_accesses <- s.dcache_accesses + 1;
      if not (Cache.access_store t.dcache eff) then
        s.dcache_misses <- s.dcache_misses + 1;
      push_store t c eff (Insn.size_bytes size);
      (1, Stall.Raw_dependence)
    | Insn.Branch _ | Insn.Jr _ | Insn.Jalr _ ->
      if Btb.update t.btb pc ~taken ~target:next_pc then begin
        if taken then t.fetch_ready <- Int.max t.fetch_ready (c + 1)
      end
      else begin
        s.btb_mispredicts <- s.btb_mispredicts + 1;
        bump_fetch t (c + 1 + t.cfg.mispredict_penalty) Stall.Btb_mispredict
      end;
      (1, Stall.Raw_dependence)
    | Insn.Jump _ | Insn.Jal _ ->
      (* direct unconditional transfers redirect fetch without penalty
         but end the fetch group *)
      t.fetch_ready <- Int.max t.fetch_ready (c + 1);
      (1, Stall.Raw_dependence)
    | Insn.Alu _ | Insn.Li _ | Insn.Syscall _ | Insn.Nop | Insn.Halt ->
      (1, Stall.Raw_dependence)
  in
  let dst = Insn.dest insn in
  if dst <> Reg.zero then begin
    t.reg_ready.(dst) <- c + latency;
    t.reg_cause.(dst) <- def_cause
  end;
  (match t.tracer with Some f -> f pc insn c latency | None -> ());
  (* an issued instruction occupies its issue cycle even at latency 0 *)
  let finish = Int.max (c + latency) (c + 1) in
  if finish > s.cycles then begin
    s.cycles <- finish;
    t.drain_cause <- def_cause
  end

let set_tracer t f = t.tracer <- Some f

let observer t : Emulator.observer = fun pc insn eff taken next_pc ->
  process t pc insn eff taken next_pc

let stats t = t.stats

let config t = t.cfg

let table_stats t = Option.map Addr_table.stats t.table

let bric_stats t =
  match t.cfg.mechanism with
  | Config.Calc_only _ -> Option.map Bric.stats t.bric
  | _ -> None

(* --- fault-injection hooks (lib/verify) -------------------------------- *)

let btb t = t.btb
let addr_table t = t.table
let bric t = t.bric
let current_cycle t = t.cur_cycle

(* --- telemetry accessors ---------------------------------------------- *)

let busy_cycles t = t.busy_cycles

let stall_breakdown t =
  let arr = Array.copy t.stall_cycles in
  (* charge the final drain (cycles after the last issue, waiting for
     the latest writeback) to whatever finishes last *)
  let drain = t.stats.cycles - (t.last_issue + 1) in
  if drain > 0 then begin
    let i = Stall.index t.drain_cause in
    arr.(i) <- arr.(i) + drain
  end;
  List.map (fun cause -> (cause, arr.(Stall.index cause))) Stall.all

let stall_total t =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (stall_breakdown t)

let load_sites t =
  Array.fold_right
    (fun site acc -> if site == no_site then acc else site :: acc)
    t.sites []

let load_latency_histogram t = t.load_latency_hist

(* Run a program under this configuration; returns the pipeline (for
   telemetry extraction) and the program's printed output. *)
let run ?max_insns (cfg : Config.t) program =
  let t = create cfg in
  let emu = Emulator.create program in
  Emulator.run ~observer:(observer t) ?max_insns emu;
  (t, Emulator.output emu)

(* Run a program under this configuration and return final statistics. *)
let simulate ?max_insns (cfg : Config.t) program =
  let t, output = run ?max_insns cfg program in
  (t.stats, output)
