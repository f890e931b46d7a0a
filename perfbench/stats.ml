(* The benchmark's own arithmetic: order statistics over job latencies
   and the seeded input draw.  Kept free of the simulator so the tests
   can pin it in isolation. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: empty"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type tail = { value : float; percentile : float; samples : int }

(* The highest percentile that still has at least ten samples above
   it: with [n] samples sorted ascending that is rank [n - 10]
   (1-based), i.e. percentile [100 (n - 10) / n].  Below eleven
   samples no percentile qualifies. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 11 then None
  else
    let rank = n - 10 in
    Some
      { value = a.(rank - 1)
      ; percentile = 100. *. float_of_int rank /. float_of_int n
      ; samples = n }

(* A seeded Fisher-Yates permutation; [round] draws an independent
   order from the same seed. *)
let permutation ~seed ~round a =
  let rng = Random.State.make [| seed; round |] in
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
