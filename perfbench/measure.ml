(* Measurement primitives: a monotonic clock, raw-sample percentiles that
   refuse to report a tail they cannot support, and a Zipf sampler. *)

(* seconds on CLOCK_MONOTONIC: unaffected by wall-clock adjustments *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* growable float buffer: one slot per operation, no boxing per sample *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let length t = t.len
  let sorted t =
    let a = Array.sub t.data 0 t.len in
    Array.sort Float.compare a;
    a
end

type percentile = {
  p : float;  (* the percentile actually reported, in (0, 100) *)
  value : float;
  n : int;  (* sample count *)
  beyond : int;  (* samples strictly above the reported rank *)
}

(* a tail percentile needs this many samples beyond it *)
let min_beyond = 10

(* Nearest-rank percentile over raw samples.  When the sample is too
   small for a tail [p], the highest percentile that still has
   [min_beyond] samples beyond it is reported instead (and [p] says so).
   [None] when there are no samples at all. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then None
  else
    let rank p = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
    let r = rank p in
    let r, p =
      if n - r >= min_beyond || p <= 50. then (r, p)
      else
        let r = max 1 (n - min_beyond) in
        (r, 100. *. float_of_int r /. float_of_int n)
    in
    Some { p; value = sorted.(r - 1); n; beyond = n - r }

let median values =
  match List.sort Float.compare values with
  | [] -> nan
  | sorted ->
      let n = List.length sorted in
      if n mod 2 = 1 then List.nth sorted (n / 2)
      else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.

(* Zipf(s) over ranks [0, n): P(k) proportional to 1 / (k+1)^s *)
module Zipf = struct
  type t = float array (* cumulative, last = 1 *)

  let make ~s n =
    let w = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** s)) in
    let total = Array.fold_left ( +. ) 0. w in
    let acc = ref 0. in
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w

  let draw (cdf : t) rng =
    let u = Random.State.float rng 1.0 in
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then go (mid + 1) hi else go lo mid
    in
    go 0 (Array.length cdf - 1)
end
