(* The closed-loop rekey benchmark. One run measures one workload:

     gkmbench --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it reports the end-to-end metrics of an untraced run;
   with --trace 1 the per-layer metrics of a traced run, the spans
   going to a JSONL file. The last line of standard output is one JSON
   object; the exit code is 1 when an output check failed and 2 on a
   usage error. See README.md. *)

let workloads = [ ("paper-65k", Paper.run); ("mcast-256", Live.run_mcast); ("unicast-128", Live.run_unicast) ]

(* Relative to the repository root, where run.py starts the benchmark. *)
let trace_dir = "perfbench/out"

let usage () =
  prerr_endline
    "usage: gkmbench --workload (paper-65k|mcast-256|unicast-128) --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let int_arg r s = match int_of_string_opt s with Some v -> r := v | None -> usage () in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> int_arg seed v; parse rest
    | "--seconds" :: v :: rest -> int_arg seconds v; parse rest
    | "--trace" :: v :: rest -> int_arg trace v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run = match List.assoc_opt !workload workloads with Some f -> f | None -> usage () in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let trace = !trace = 1 in
  let host_before = Stat.host_ref_ms () in
  let r = run ~seed:!seed ~seconds:!seconds ~trace in
  let host_after = Stat.host_ref_ms () in
  if trace then begin
    (try Unix.mkdir trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Filename.concat trace_dir (Printf.sprintf "%s-seed%d.jsonl" !workload !seed) in
    let not_measured =
      List.filter_map (fun (n, _) -> if List.mem_assoc n r.Report.layer then None else Some n) Report.layer_metrics
    in
    Trace.write_jsonl path ~workload:!workload ~seed:!seed ~overhead:r.overhead ~not_measured;
    Printf.printf "  spans written to %s\n" path;
    List.iter (fun (l, ms) -> Printf.printf "  self time %-10s %12.3f ms\n" l ms) (Trace.self_times ())
  end;
  Report.print_human ~workload:!workload ~seed:!seed ~trace ~host_before ~host_after r;
  Report.print_json r ~trace;
  if r.checks <> [] then exit 1
