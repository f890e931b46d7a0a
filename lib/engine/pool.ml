exception Failures of (int * string) list

let () =
  Printexc.register_printer (function
    | Failures fs ->
      Some
        (Printf.sprintf "Pool.Failures: %d jobs failed: %s" (List.length fs)
           (String.concat "; "
              (List.map (fun (i, m) -> Printf.sprintf "[%d] %s" i m) fs)))
    | _ -> None)

let default_jobs () = Domain.recommended_domain_count ()

(* Apply [exec] to every index in [0, n) exactly once: serially at
   width 1, otherwise on up to [jobs] domains (the caller's included)
   claiming indices from a shared counter. *)
let each ~jobs n exec =
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then
    for i = 0 to n - 1 do
      exec i
    done
  else begin
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        exec i;
        worker ()
      end
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains
  end

let run ~jobs f (items : 'a array) : 'b array =
  let n = Array.length items in
  let results : ('b, exn * Printexc.raw_backtrace) result option array =
    Array.make n None
  in
  let exec i =
    results.(i) <-
      Some
        (try Ok (f items.(i))
         with e -> Error (e, Printexc.get_raw_backtrace ()))
  in
  (* [exec] never raises, so every job runs and every failure is
     collected, even after an early one, at any width. *)
  each ~jobs n exec;
  let failures = ref [] in
  Array.iteri
    (fun i r ->
      match r with
      | Some (Error eb) -> failures := (i, eb) :: !failures
      | Some (Ok _) -> ()
      | None -> assert false (* every index was claimed exactly once *))
    results;
  match List.rev !failures with
  | [] ->
    Array.map
      (function Some (Ok v) -> v | _ -> assert false (* no failures *))
      results
  | [ (_, (e, bt)) ] ->
    (* A lone failure keeps its identity (and backtrace) so callers'
       specific handlers — Compile.Error, Lint.Rejected — still fire. *)
    Printexc.raise_with_backtrace e bt
  | many ->
    raise (Failures (List.map (fun (i, (e, _)) -> (i, Printexc.to_string e)) many))

let map_list ~jobs f items = Array.to_list (run ~jobs f (Array.of_list items))

(* --- supervised runs --------------------------------------------------- *)

(* The graceful-degradation mode the fuzz campaigns (and any long
   unattended run) need: a job that times out or crashes becomes a
   structured per-index result instead of an exception that aborts the
   whole batch.  Nothing is retried: every supervised job is
   deterministic, so a second attempt would only repeat the failure.

   Cancellation is cooperative — a domain cannot be killed, so each
   job gets a fresh {!Elag_verify.Deadline} and is expected to poll it
   from its hot path (simulator jobs poll once per retired instruction
   through the observer hook).  A job that never polls cannot be
   reclaimed; everything this repository runs on the pool retires
   instructions, so every job polls. *)

module Deadline = Elag_verify.Deadline

type failure =
  | Job_failed of { message : string }
  | Job_timeout of { timeout_ms : int }

type 'b outcome = ('b, failure) result

let failure_to_string = function
  | Job_failed { message } -> "failed: " ^ message
  | Job_timeout { timeout_ms } -> Printf.sprintf "timed out (%d ms budget)" timeout_ms

let run_supervised ?timeout_ms ~jobs f (items : 'a array) : 'b outcome array =
  (match timeout_ms with
  | Some t when t <= 0 -> invalid_arg "Pool.run_supervised: non-positive timeout"
  | _ -> ());
  let n = Array.length items in
  let results : 'b outcome option array = Array.make n None in
  let exec i =
    results.(i) <-
      Some
        (match f (Deadline.opt timeout_ms) items.(i) with
        | v -> Ok v
        | exception Deadline.Job_timeout { timeout_ms } ->
          Error (Job_timeout { timeout_ms })
        | exception e -> Error (Job_failed { message = Printexc.to_string e }))
  in
  each ~jobs n exec;
  Array.map
    (function
      | Some r -> r
      | None -> assert false (* every index was claimed exactly once *))
    results

let outcome_failures outcomes =
  let acc = ref [] in
  Array.iteri
    (fun i -> function Error f -> acc := (i, f) :: !acc | Ok _ -> ())
    outcomes;
  List.rev !acc
