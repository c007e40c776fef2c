(* [redf bench figures]: Figures 3(a), 3(b), 4(a), 4(b) — acceptance
   ratio vs total system utilization, written as results/figX.csv by
   the same sweep [redf sweep] runs — plus the paper's qualitative
   claims checked against the regenerated data, and the acceptance vs
   task count extension. *)

let area_under t mi =
  (* mean acceptance over the populated points: a crude scalar for "who
     wins" comparisons *)
  let pts = List.filter (fun p -> p.Experiment.Sweep.generated > 0) t.Experiment.Sweep.points in
  if pts = [] then 0.0
  else
    List.fold_left (fun acc p -> acc +. Experiment.Sweep.acceptance t ~method_index:mi p) 0.0 pts
    /. float_of_int (List.length pts)

let index_of t name =
  let rec go i = function
    | [] -> invalid_arg ("no method " ^ name)
    | n :: _ when n = name -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.Experiment.Sweep.method_names

let check_claims figure t =
  let score name = area_under t (index_of t name) in
  let dp = score "DP" and gn1 = score "GN1" and gn2 = score "GN2" in
  let sim = score "SIM-NF" in
  let claim label ok = Printf.printf "  claim: %-58s %s\n" label (if ok then "HOLDS" else "VIOLATED") in
  Printf.printf "\n  mean acceptance: DP %.3f  GN1 %.3f  GN2 %.3f  SIM-NF %.3f\n" dp gn1 gn2 sim;
  (match figure with
   | Experiment.Figures.Fig3a ->
     claim "tests pessimistic vs simulation" (dp <= sim && gn1 <= sim && gn2 <= sim);
     claim "GN1 best among tests (small task count)" (gn1 >= dp -. 0.02 && gn1 >= gn2 -. 0.02)
   | Experiment.Figures.Fig3b ->
     claim "tests pessimistic vs simulation" (dp <= sim && gn1 <= sim && gn2 <= sim);
     claim "DP best among tests (large task count)" (dp >= gn1 -. 0.02 && dp >= gn2 -. 0.02)
   | Experiment.Figures.Fig4a ->
     claim "all tests poor on spatially-heavy sets" (dp < 0.1 && gn1 < 0.1 && gn2 < 0.1)
   | Experiment.Figures.Fig4b ->
     claim "GN1 best on temporally-heavy sets" (gn1 >= dp && gn1 >= gn2);
     claim "DP worst on temporally-heavy sets" (dp <= gn1 && dp <= gn2));
  List.iter (fun e -> Printf.printf "  paper: %s\n" e) (Experiment.Figures.expectations figure)

(* extension: the 4-task vs 10-task contrast of Figures 3(a)/3(b) as a
   single curve — acceptance vs task count at fixed system utilization *)
let n_sweep ~samples ~horizon ~seed ~jobs =
  Env.heading "Extension: acceptance vs task count at fixed US";
  let target_us = 25.0 in
  Printf.printf "US = %.0f, A(H) = 100, unconstrained profile, %d sets per point\n\n" target_us
    samples;
  Printf.printf "%6s %6s %9s %9s %9s %9s\n" "N" "sets" "DP" "GN1" "GN2" "SIM-NF";
  List.iter
    (fun n ->
      let profile = Model.Generator.unconstrained ~n in
      let cfg =
        {
          (Experiment.Sweep.default_config ~profile) with
          Experiment.Sweep.samples;
          targets = [ target_us ];
          seed = seed + n;
          sim_horizon = Model.Time.of_units horizon;
        }
      in
      let t = Experiment.Sweep.run ~jobs cfg in
      match t.Experiment.Sweep.points with
      | [ p ] ->
        let acc name = Experiment.Sweep.acceptance t ~method_index:(index_of t name) p in
        Printf.printf "%6d %6d %9.3f %9.3f %9.3f %9.3f\n" n p.Experiment.Sweep.generated
          (acc "DP") (acc "GN1") (acc "GN2") (acc "SIM-NF")
      | _ -> ())
    [ 2; 3; 4; 6; 8; 10; 15; 20 ];
  Printf.printf
    "\n(the paper's observation: GN1's advantage at small N flips to DP's at large N)\n"

(* [sweep] is [redf sweep]'s own figure sweep, progress output included *)
let run ~samples ~horizon ~seed ~jobs ~sweep =
  Env.heading "Figures 3-4: acceptance ratio vs total system utilization";
  Printf.printf "samples/point = %d, sim horizon = %d units, seed = %d, jobs = %d\n" samples
    horizon seed jobs;
  List.iter
    (fun figure ->
      let t0 = Unix.gettimeofday () in
      let result = sweep figure in
      Printf.printf "\n%s  (%.1f s)\n" (Experiment.Figures.caption figure)
        (Unix.gettimeofday () -. t0);
      check_claims figure result;
      let csv = Experiment.Figures.id figure ^ ".csv" in
      Env.write_file csv (Experiment.Sweep.to_csv result);
      Printf.printf "  (series written to %s)\n" (Filename.concat Env.results_dir csv))
    Experiment.Figures.all;
  n_sweep ~samples ~horizon ~seed ~jobs
