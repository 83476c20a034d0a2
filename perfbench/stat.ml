(* Raw-sample statistics, the wall clock, heap readings and the
   host-speed reference. Every timing the benchmark reports is computed
   here from raw samples, never from log2-bucketed histograms. *)

let now = Unix.gettimeofday

(* Linear interpolation between the closest ranks (R type 7, numpy's
   default). [nan] on no samples. *)
let quantile samples q =
  match samples with
  | [] -> nan
  | _ ->
      let a = Array.of_list samples in
      Array.sort compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float pos in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median samples = quantile samples 0.5
let sum = List.fold_left ( +. ) 0.0
let mean = function [] -> nan | l -> sum l /. float_of_int (List.length l)

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Allocation and collection counters, read from outside the program
   through the runtime. *)
type gc = { alloc_words : float; major : int }

let gc () =
  let s = Gc.quick_stat () in
  { alloc_words = s.minor_words +. s.major_words -. s.promoted_words; major = s.major_collections }

let alloc_mb a b = (b.alloc_words -. a.alloc_words) *. float_of_int (Sys.word_size / 8) /. 1e6

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Host-speed reference.

   The speed of this program on a shared host moves by up to half, for
   seconds to minutes at a time, as a neighbour's load comes and goes.
   [ref_work] is a fixed piece of work in the benchmark's own code, so
   it never changes with the program under test: short-lived 16-byte
   buffers consed onto a list that is dropped every 256 entries, the
   allocation pattern of the program's key trees and records. Between
   the host's slow and fast spells it speeds up about as much as the
   program does (README.md, "Reference units").

   [probe] times a short run of it. Each measured interval is probed
   before and after, and at the seams inside it: between the stages of
   a paper-65k interval, and on each side of a live rekey. A probe
   inside a timed stretch leaves its own time out of it
   ([probe_inside]). Each wall time is kept with the mean of its probes
   ([sample]), and the measured-phase timings are reported in reference
   units: the wall time the stretch would have taken had the probes run
   at their nominal [nominal_probe_ms] ([at_ref]). The wall figures are
   printed beside them. [host_ref_ms] times a long run before and
   after a workload, to show the drift over the whole run. *)
let ref_work rounds =
  let l = ref [] in
  for i = 0 to rounds - 1 do
    l := (i, Bytes.make 16 (Char.unsafe_chr (i land 255))) :: !l;
    if i land 255 = 0 then l := []
  done;
  ignore (Sys.opaque_identity !l)

let timed_ms f =
  let t0 = now () in
  f ();
  (now () -. t0) *. 1e3

let probe_rounds = 24_000
let nominal_probe_ms = 0.45

(* The fastest of three short runs: an interrupt only ever adds time. *)
let probe () =
  let once () = timed_ms (fun () -> ref_work probe_rounds) in
  Float.min (once ()) (Float.min (once ()) (once ()))

(* A wall-time sample and the mean reference probe around it. *)
type sample = { wall : float; ref_ms : float }

let at_ref s = s.wall *. nominal_probe_ms /. s.ref_ms

(* The probes of one timed stretch: one before it, any inside it (whose
   own time the stretch leaves out: [inside_s]) and one after it. *)
type probes = { mutable taken : float list; mutable inside_s : float }

let probes () = { taken = [ probe () ]; inside_s = 0.0 }

let probe_inside ps =
  let t0 = now () in
  let p = probe () in
  ps.taken <- p :: ps.taken;
  ps.inside_s <- ps.inside_s +. (now () -. t0);
  p

(* Take the last probe; the mean of all of them. *)
let close ps =
  ps.taken <- probe () :: ps.taken;
  mean ps.taken
let host_ref_ms () = median (List.init 3 (fun _ -> timed_ms (fun () -> ref_work 1_000_000)))
