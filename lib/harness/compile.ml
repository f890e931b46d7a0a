(* End-to-end compilation driver: MiniC source to an assembled EPA-32
   program, with selectable optimization level and load-classification
   mode. *)

module Parser = Elag_minic.Parser
module Sema = Elag_minic.Sema
module Lower = Elag_ir.Lower
module Ir = Elag_ir.Ir
module Opt_driver = Elag_opt.Driver
module Classify = Elag_core.Classify
module Codegen = Elag_codegen.Codegen
module Program = Elag_isa.Program

type classification =
  | No_classification  (* all loads ld_n: hardware-only configurations *)
  | Heuristics         (* the paper's Section 4 compiler heuristics *)

type options =
  { opt_level : Opt_driver.level
  ; classification : classification
  ; inline_threshold : int
  ; unroll_factor : int }

let default_options =
  { opt_level = Opt_driver.O2
  ; classification = Heuristics
  ; inline_threshold = Elag_opt.Inline.default_threshold
  ; unroll_factor = Elag_opt.Unroll.default_factor }

exception Error of string

let to_ir ?(options = default_options) source =
  let ast =
    try Parser.parse source
    with Parser.Error (msg, line) ->
      raise (Error (Printf.sprintf "parse error at line %d: %s" line msg))
  in
  let typed =
    try Sema.check ast
    with Sema.Error (msg, line) ->
      raise (Error (Printf.sprintf "type error at line %d: %s" line msg))
  in
  let ir =
    try Lower.lower_program typed
    with Lower.Error { ctx; msg } ->
      raise (Error (Printf.sprintf "lowering error in %s: %s" ctx msg))
  in
  let ir =
    Opt_driver.optimize ~level:options.opt_level
      ~inline_threshold:options.inline_threshold
      ~unroll_factor:options.unroll_factor ir
  in
  (match options.classification with
  | Heuristics -> Classify.run ir
  | No_classification -> Classify.clear ir);
  ir

let compile ?(options = default_options) source : Program.t =
  Codegen.generate (to_ir ~options source)
