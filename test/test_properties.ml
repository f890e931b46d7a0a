(* Cross-cutting property and fuzz tests: the front end never crashes
   on arbitrary input, hardware models obey their invariants, and the
   timing model respects structural bounds on real workloads. *)

module Insn = Elag_isa.Insn
module Alu = Elag_isa.Alu
module Lexer = Elag_minic.Lexer
module Parser = Elag_minic.Parser
module Sema = Elag_minic.Sema
module Cache = Elag_sim.Cache
module Memory = Elag_sim.Memory
module Config = Elag_sim.Config
module Pipeline = Elag_sim.Pipeline
module Compile = Elag_harness.Compile
module Suite = Elag_workloads.Suite
module Workload = Elag_workloads.Workload

let check_bool = Alcotest.(check bool)

(* --- front-end fuzz -------------------------------------------------- *)

(* Arbitrary strings over a C-ish alphabet: the lexer either tokenizes
   or raises its error; it never crashes or loops. *)
let lexer_never_crashes =
  let alphabet = "abz019 \n\t(){}[];,.+-*/%<>=!&|^~'\"\\#@?:" in
  let gen =
    QCheck.Gen.(
      string_size ~gen:(map (String.get alphabet) (int_bound (String.length alphabet - 1)))
        (int_bound 200))
  in
  QCheck.Test.make ~name:"lexer total on arbitrary input" ~count:1000
    (QCheck.make gen)
    (fun s ->
      match Lexer.tokenize s with
      | _ -> true
      | exception Lexer.Error _ -> true)

(* The parser is total over arbitrary strings too (wrapping lexical
   errors in its own exception). *)
let parser_never_crashes =
  let alphabet = "intcharvoidstructifwhilemain(){}[];,+-*=<> 09ab" in
  let gen =
    QCheck.Gen.(
      string_size ~gen:(map (String.get alphabet) (int_bound (String.length alphabet - 1)))
        (int_bound 150))
  in
  QCheck.Test.make ~name:"parser total on arbitrary input" ~count:1000
    (QCheck.make gen)
    (fun s ->
      match Parser.parse s with
      | _ -> true
      | exception Parser.Error _ -> true)

(* Sema is total over whatever parses. *)
let sema_never_crashes =
  let fragments =
    [| "int g;"; "char c;"; "struct s { int a; };"; "int f(int x) { return x; }"
     ; "int main() { return 0; }"; "int main() { int x; return *&x; }"
     ; "int main() { break; }"; "int main() { return y; }"
     ; "void v() { }"; "int a[4];"; "int main() { return f(1,2,3); }" |]
  in
  let gen =
    QCheck.Gen.(
      map (String.concat " ")
        (list_size (int_bound 6) (map (Array.get fragments) (int_bound (Array.length fragments - 1)))))
  in
  QCheck.Test.make ~name:"sema total on parsed input" ~count:500 (QCheck.make gen)
    (fun s ->
      match Sema.check (Parser.parse s) with
      | _ -> true
      | exception Parser.Error _ -> true
      | exception Sema.Error _ -> true)

(* --- hardware-model invariants ---------------------------------------- *)

let cache_invariants =
  QCheck.Test.make ~name:"cache: access implies probe hit; probe is pure" ~count:500
    QCheck.(make Gen.(list_size (int_bound 64) (int_bound 1_000_000)))
    (fun addrs ->
      let c = Cache.create ~size_bytes:1024 ~line_bytes:64 () in
      List.for_all
        (fun addr ->
          ignore (Cache.access c addr);
          let p1 = Cache.probe c addr in
          let p2 = Cache.probe c addr in
          p1 && p1 = p2)
        addrs)

let memory_roundtrip =
  QCheck.Test.make ~name:"memory: word roundtrip through bytes" ~count:500
    QCheck.(make Gen.(pair (int_bound (Memory.default_size - 4)) int))
    (fun (addr, v) ->
      let m = Memory.create () in
      Memory.write_word m addr v;
      let w = Memory.read_word m addr in
      let b0 = Memory.read_byte_u m addr
      and b1 = Memory.read_byte_u m (addr + 1)
      and b2 = Memory.read_byte_u m (addr + 2)
      and b3 = Memory.read_byte_u m (addr + 3) in
      w = Alu.norm v
      && Alu.norm (b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)) = w)

(* Paged memory against a flat [Bytes] model of [default_size] bytes:
   random sequences of byte, half and word reads (signed and unsigned)
   and writes must read the same values and fault at the same
   addresses.  Most addresses sit within 8 bytes of a 4 KiB page
   boundary or of the top of memory, so accesses straddle pages and
   the bounds; page 0's neighbourhood supplies negative addresses.
   The boundaries come mostly from a short list, so reads land on
   bytes that earlier writes in the sequence stored. *)
type mem_op =
  | Read of { width : int; signed : bool; addr : int }
  | Write of { width : int; addr : int; value : int }

let print_mem_op = function
  | Read { width; signed; addr } ->
    Printf.sprintf "read%d%s %d" width (if signed then "s" else "u") addr
  | Write { width; addr; value } -> Printf.sprintf "write%d %d %d" width addr value

let mem_addr_gen =
  let size = Memory.default_size in
  QCheck.Gen.(
    let near base = map (fun d -> base + d) (int_range (-8) 8) in
    frequency
      [ (6, oneofl [ 0; 4096; 8192; size - 4096 ] >>= near)
      ; (2, near size)
      ; (1, int_bound (size / 4096) >>= fun page -> near (page * 4096))
      ; (1, int_range (-size) (2 * size)) ])

let mem_op_gen =
  QCheck.Gen.(
    let width = oneofl [ 1; 2; 4 ] in
    frequency
      [ (1, map3 (fun width signed addr -> Read { width; signed; addr }) width bool mem_addr_gen)
      ; (1, map3 (fun width addr value -> Write { width; addr; value }) width mem_addr_gen int) ])

(* One flat image shared by every case, zeroed again after each. *)
let flat_model = Bytes.make Memory.default_size '\000'

let in_model width addr = addr >= 0 && addr + width <= Memory.default_size

let model_op = function
  | Read { width; signed; addr } ->
    if not (in_model width addr) then Error addr
    else
      let v = ref 0 in
      for i = width - 1 downto 0 do
        v := (!v lsl 8) lor Char.code (Bytes.get flat_model (addr + i))
      done;
      let top = 1 lsl ((8 * width) - 1) in
      Ok (if (signed || width = 4) && !v land top <> 0 then !v - (2 * top) else !v)
  | Write { width; addr; value } ->
    if not (in_model width addr) then Error addr
    else begin
      for i = 0 to width - 1 do
        Bytes.set flat_model (addr + i) (Char.unsafe_chr ((value lsr (8 * i)) land 0xff))
      done;
      Ok 0
    end

let memory_op m op =
  try
    Ok
      (match op with
      | Read { width = 1; signed = false; addr } -> Memory.read_byte_u m addr
      | Read { width = 1; signed = true; addr } -> Memory.read_byte_s m addr
      | Read { width = 2; signed = false; addr } -> Memory.read_half_u m addr
      | Read { width = 2; signed = true; addr } -> Memory.read_half_s m addr
      | Read { addr; _ } -> Memory.read_word m addr
      | Write { width = 1; addr; value } -> Memory.write_byte m addr value; 0
      | Write { width = 2; addr; value } -> Memory.write_half m addr value; 0
      | Write { addr; value; _ } -> Memory.write_word m addr value; 0)
  with Memory.Fault addr -> Error addr

let memory_matches_flat_model =
  QCheck.Test.make ~name:"memory: paged agrees with a flat model" ~count:300
    QCheck.(make ~print:Print.(list print_mem_op) Gen.(list_size (int_range 1 100) mem_op_gen))
    (fun ops ->
      let m = Memory.create () in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (function
              | Write { width; addr; _ } when in_model width addr ->
                Bytes.fill flat_model addr width '\000'
              | _ -> ())
            ops)
        (fun () -> List.for_all (fun op -> memory_op m op = model_op op) ops))

let alu_compare_consistency =
  QCheck.Test.make ~name:"alu: set-compare ops agree with eval_cond" ~count:500
    QCheck.(make Gen.(pair int int))
    (fun (a, b) ->
      (Alu.eval Insn.Slt a b = 1) = Alu.eval_cond Insn.Lt a b
      && (Alu.eval Insn.Sle a b = 1) = Alu.eval_cond Insn.Le a b
      && (Alu.eval Insn.Seq a b = 1) = Alu.eval_cond Insn.Eq a b
      && (Alu.eval Insn.Sne a b = 1) = Alu.eval_cond Insn.Ne a b)

(* --- timing-model structural bounds ------------------------------------ *)

let mechanisms =
  [ Config.No_early
  ; Config.Table_only { entries = 64; compiler_filtered = true }
  ; Config.Calc_only { bric_entries = 8 }
  ; Config.Dual { table_entries = 256; selection = Config.Compiler_directed }
  ; Config.Dual { table_entries = 256; selection = Config.Hardware_selected } ]

let test_pipeline_bounds () =
  let w = Suite.find "PGP Encode" in
  let program = Compile.compile w.Workload.source in
  List.iter
    (fun mech ->
      let cfg = Config.with_mechanism mech Config.default in
      let stats, output = Pipeline.simulate cfg program in
      let name = Config.mechanism_name mech in
      (* the machine cannot beat its issue width *)
      check_bool (name ^ ": cycles >= insns/width") true
        (stats.Pipeline.cycles * cfg.Config.issue_width >= stats.Pipeline.instructions);
      (* memory operations cannot beat the port count *)
      check_bool (name ^ ": cycles >= memops/ports") true
        (stats.Pipeline.cycles * cfg.Config.mem_ports
        >= stats.Pipeline.loads + stats.Pipeline.stores);
      (* successes never exceed attempts *)
      check_bool (name ^ ": table successes bounded") true
        (stats.Pipeline.table_successes <= stats.Pipeline.table_attempts);
      check_bool (name ^ ": calc successes bounded") true
        (stats.Pipeline.calc_successes <= stats.Pipeline.calc_attempts);
      (* load class counts decompose the loads *)
      check_bool (name ^ ": load classes partition") true
        (stats.Pipeline.loads_n + stats.Pipeline.loads_p + stats.Pipeline.loads_e
        = stats.Pipeline.loads);
      (* architectural behaviour never depends on the timing config *)
      (match w.Workload.expected_output with
      | Some expected ->
        Alcotest.(check string) (name ^ ": output invariant") expected output
      | None -> ()))
    mechanisms

let test_compilation_deterministic () =
  let w = Suite.find "RASTA" in
  let p1 = Compile.compile w.Workload.source in
  let p2 = Compile.compile w.Workload.source in
  Alcotest.(check int) "same code size" (Elag_isa.Program.length p1)
    (Elag_isa.Program.length p2);
  let out p = Elag_sim.Emulator.output (Elag_sim.Emulator.run_program p) in
  Alcotest.(check string) "same behaviour" (out p1) (out p2)

let suite =
  [ Alcotest.test_case "pipeline bounds" `Quick test_pipeline_bounds
  ; Alcotest.test_case "deterministic compilation" `Quick test_compilation_deterministic ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      [ lexer_never_crashes
      ; parser_never_crashes
      ; sema_never_crashes
      ; cache_invariants
      ; memory_roundtrip
      ; memory_matches_flat_model
      ; alu_compare_consistency ]
