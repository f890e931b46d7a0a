(* The benchmark's own arithmetic: the tail-percentile rule, self time
   from nested spans, and the seeded draw. *)

module Stats = Perfbench.Stats
module Spans = Perfbench.Spans

let floats = List.map float_of_int

let tail_rule () =
  Alcotest.(check bool) "ten samples: no percentile has ten beyond it" true
    (Stats.tail (floats (List.init 10 Fun.id)) = None);
  let t = Option.get (Stats.tail (floats [ 5; 3; 9; 1; 7; 2; 8; 4; 6; 10; 11 ])) in
  Alcotest.(check (float 0.)) "eleven samples: the minimum" 1. t.Stats.value;
  Alcotest.(check (float 1e-9)) "at p(1/11)" (100. /. 11.) t.Stats.percentile;
  let xs = floats (List.rev (List.init 100 (fun i -> i + 1))) in
  let t = Option.get (Stats.tail xs) in
  Alcotest.(check (float 0.)) "p90 of 1..100" 90. t.Stats.value;
  Alcotest.(check (float 1e-9)) "percentile" 90. t.Stats.percentile;
  Alcotest.(check int) "samples" 100 t.Stats.samples;
  Alcotest.(check int) "exactly ten beyond" 10
    (List.length (List.filter (fun x -> x > t.Stats.value) xs))

let span ?parent ?(job = 0) id start stop =
  { Spans.id; parent; job; name = string_of_int id; start; stop }

let self_time () =
  let root = span 0 0. 10. in
  let spans =
    [ root
    ; span 1 ~parent:0 1. 3.
    ; span 2 ~parent:0 2. 5. (* overlaps span 1: counted once *)
    ; span 3 ~parent:1 1.5 2.5 (* grandchild: already inside span 1 *)
    ; span 4 ~parent:0 8. 12. (* clipped to the parent's end *)
    ; span 5 ~parent:0 ~job:1 5. 8. (* another job's span *) ]
  in
  Alcotest.(check (float 1e-9)) "root" 4. (Spans.self_time spans root);
  Alcotest.(check (float 1e-9)) "child with a grandchild" 1.
    (Spans.self_time spans (List.nth spans 1));
  Alcotest.(check (float 1e-9)) "leaf" 3. (Spans.self_time spans (List.nth spans 2))

let recorder_nesting () =
  let r = Spans.recorder ~job:7 in
  Spans.record r "outer" (fun () ->
      Spans.record r "inner" ignore;
      Spans.record r "inner" ignore);
  (try Spans.record r "raises" (fun () -> failwith "boom") with Failure _ -> ());
  match Spans.spans r with
  | [ a; b; outer; c ] ->
    Alcotest.(check (list string)) "names, in completion order"
      [ "inner"; "inner"; "outer"; "raises" ]
      [ a.Spans.name; b.Spans.name; outer.Spans.name; c.Spans.name ];
    Alcotest.(check bool) "inner spans are the outer span's children" true
      (a.Spans.parent = Some outer.Spans.id && b.Spans.parent = Some outer.Spans.id);
    Alcotest.(check bool) "a span closed by an exception is a root" true (c.Spans.parent = None);
    Alcotest.(check bool) "job id" true (List.for_all (fun s -> s.Spans.job = 7) [ a; b; outer; c ]);
    let self = Spans.self_time (Spans.spans r) outer in
    Alcotest.(check bool) "self time within the span" true
      (self >= 0. && self <= Spans.duration outer)
  | l -> Alcotest.failf "expected 4 spans, got %d" (List.length l)

let seeded_draw () =
  let a = Array.init 43 Fun.id in
  let draw seed round = Stats.permutation ~seed ~round a in
  Alcotest.(check (array int)) "same seed, same draw" (draw 1 0) (draw 1 0);
  Alcotest.(check bool) "another seed, another draw" true (draw 1 0 <> draw 2 0);
  Alcotest.(check bool) "another round, another order" true (draw 1 0 <> draw 1 1);
  let sorted = Array.copy (draw 5 3) in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "a permutation of the input" a sorted

let () =
  Alcotest.run "perfbench"
    [ ( "arithmetic"
      , [ Alcotest.test_case "tail percentile has ten samples beyond" `Quick tail_rule
        ; Alcotest.test_case "self time from nested spans" `Quick self_time
        ; Alcotest.test_case "recorder nests spans per job" `Quick recorder_nesting
        ; Alcotest.test_case "seeded draw" `Quick seeded_draw ] ) ]
