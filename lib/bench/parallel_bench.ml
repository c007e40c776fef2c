(* [redf bench parallel]: wall-clock scaling and byte-level determinism
   of the three parallelised hot paths — utilization sweeps,
   consistency audits and the exhaustive release-offset search —
   through their public [?jobs] entry points, which is what the
   EXPERIMENTS.md runtime estimates are based on. *)

let job_counts cores = List.sort_uniq compare (List.filter (fun j -> j >= 1) [ 1; 2; 4; cores ])

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* one row per (path, jobs): seconds and speedup vs the serial run *)
let report path runs =
  let serial =
    match List.assoc_opt 1 runs with
    | Some s -> s
    | None -> (match runs with (_, s) :: _ -> s | [] -> 1.0)
  in
  List.map
    (fun (jobs, seconds) ->
      let speedup = if seconds > 0.0 then serial /. seconds else 0.0 in
      Printf.printf "  %-12s jobs=%-2d %8.2f s   speedup %.2fx\n" path jobs seconds speedup;
      Printf.sprintf {|{"bench":"parallel","path":"%s","jobs":%d,"seconds":%.4f,"speedup":%.3f}|}
        path jobs seconds speedup)
    runs

(* false on a determinism violation *)
let check_identical label rendered =
  match rendered with
  | [] | [ _ ] -> true
  | (_, reference) :: rest ->
    let ok = List.for_all (fun (_, r) -> String.equal r reference) rest in
    Printf.printf "  %-12s output byte-identical across job counts: %s\n" label
      (if ok then "yes" else "NO (determinism violation)");
    ok

let sweep_bench ~job_counts ~samples ~seed =
  let cfg =
    Experiment.Figures.config ~samples:(min 100 samples) ~seed
      ~sim_horizon:(Model.Time.of_units 200)
      Experiment.Figures.Fig3a
  in
  let runs =
    List.map (fun jobs -> (jobs, time (fun () -> Experiment.Sweep.run ~jobs cfg))) job_counts
  in
  let rows = report "sweep" (List.map (fun (j, (_, s)) -> (j, s)) runs) in
  (rows, check_identical "sweep" (List.map (fun (j, (t, _)) -> (j, Experiment.Sweep.to_csv t)) runs))

(* deliberately contended: spatially heavy on a small device so the
   cross-check exercises misses, shrinking and lemma replays *)
let audit_taskset () =
  let task name c d a = Model.Task.of_decimal ~name ~exec:c ~deadline:d ~period:d ~area:a () in
  Model.Taskset.of_list [ task "a" "2" "4" 4; task "b" "2" "5" 5; task "c" "3" "6" 5 ]

let audit_bench ~job_counts =
  let ts = audit_taskset () in
  let runs =
    List.map (fun jobs -> (jobs, time (fun () -> Audit.Driver.run ~jobs ~fpga_area:10 ts))) job_counts
  in
  let rows = report "audit" (List.map (fun (j, (_, s)) -> (j, s)) runs) in
  ( rows,
    check_identical "audit"
      (List.map (fun (j, (r, _)) -> (j, Format.asprintf "%a" Audit.Driver.pp_sexp r)) runs) )

let exhaustive_bench ~job_counts =
  let grid = Model.Time.of_ticks 500 and ts = Ablations.sync_witness () in
  let runs =
    List.map
      (fun jobs ->
        ( jobs,
          time (fun () ->
              Sim.Exhaustive.search ~grid ~jobs ~fpga_area:10 ~policy:Sim.Policy.edf_nf ts) ))
      job_counts
  in
  let rows = report "exhaustive" (List.map (fun (j, (_, s)) -> (j, s)) runs) in
  let render = function
    | Sim.Exhaustive.Schedulable_all_offsets { combinations } ->
      Printf.sprintf "schedulable:%d" combinations
    | Sim.Exhaustive.Miss_with_offsets { offsets; miss = _ } ->
      "miss:" ^ String.concat "," (List.map Model.Time.to_string offsets)
    | Sim.Exhaustive.Too_many_combinations { combinations } ->
      Printf.sprintf "too-many:%d" combinations
    | Sim.Exhaustive.Hyperperiod_too_large -> "hyperperiod"
  in
  (rows, check_identical "exhaustive" (List.map (fun (j, (o, _)) -> (j, render o)) runs))

(* exit status: 0; 1 when an output depends on the job count; 2 when
   the results file is unreadable *)
let run ~samples ~seed =
  let out = Env.default_out in
  let cores = Domain.recommended_domain_count () in
  let job_counts = job_counts cores in
  Env.heading "Parallel subsystem: deterministic domain fan-out";
  Printf.printf "recommended domain count on this machine: %d\n" cores;
  if cores = 1 then
    Printf.printf
      "(single hardware thread: speedups cannot exceed 1x here; the point of this\n\
      \ run is the determinism check — outputs must not depend on the job count)\n";
  Printf.printf "job counts exercised: %s\n\n"
    (String.concat ", " (List.map string_of_int job_counts));
  let sweep, sweep_ok = sweep_bench ~job_counts ~samples ~seed in
  let audit, audit_ok = audit_bench ~job_counts in
  let exhaustive, exhaustive_ok = exhaustive_bench ~job_counts in
  match Env.write_section ~out ~section:"parallel" (sweep @ audit @ exhaustive) with
  | Error msg ->
    prerr_endline ("error: " ^ msg);
    2
  | Ok () ->
    Printf.printf "\n  (rows written to %s)\n" out;
    if sweep_ok && audit_ok && exhaustive_ok then 0 else 1
