(* In-memory span recorder for the traced run.  A recorder belongs to
   one job and is only touched by the domain running that job, so
   recording takes no lock; the main domain merges the finished lists
   after the pool drains and writes them out once, at the end. *)

type span =
  { id : int
  ; parent : int option
  ; job : int
  ; name : string
  ; start : float
  ; stop : float }

type recorder =
  { owner : int  (* job id *)
  ; mutable next : int
  ; mutable stack : int list  (* open spans, innermost first *)
  ; mutable finished : span list }

let recorder ~job = { owner = job; next = 0; stack = []; finished = [] }

let record r name f =
  let id = r.next in
  r.next <- id + 1;
  let parent = match r.stack with p :: _ -> Some p | [] -> None in
  r.stack <- id :: r.stack;
  let start = Unix.gettimeofday () in
  let close () =
    r.stack <- List.tl r.stack;
    r.finished <-
      { id; parent; job = r.owner; name; start; stop = Unix.gettimeofday () }
      :: r.finished
  in
  Fun.protect ~finally:close f

(* [with_span (Some r)] records, [with_span None] only runs [f]: the
   untraced run calls the same code with tracing compiled down to a
   match. *)
let with_span r name f = match r with Some r -> record r name f | None -> f ()

let spans r = List.rev r.finished

let duration s = s.stop -. s.start

(* Self time: the span's duration minus the part of its interval that
   its direct children cover (children are clipped to the parent and
   overlapping children are counted once). *)
let self_time all (s : span) =
  let children =
    List.filter_map
      (fun (c : span) ->
        if c.job = s.job && c.parent = Some s.id then
          let a = max c.start s.start and b = min c.stop s.stop in
          if b > a then Some (a, b) else None
        else None)
      all
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0., neg_infinity) children
  in
  duration s -. covered

let to_json (s : span) =
  Elag_telemetry.Json.(
    Obj
      [ ("job", Int s.job)
      ; ("id", Int s.id)
      ; ("parent", match s.parent with Some p -> Int p | None -> Null)
      ; ("name", String s.name)
      ; ("start", Float s.start)
      ; ("end", Float s.stop) ])
