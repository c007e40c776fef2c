(* [redf bench ablations]: fresh incomparability witnesses for
   Tables 1-3, and the ablation experiments for the design choices
   DESIGN.md calls out: measured work-conserving alpha (Lemmas 1-2),
   the cost of restricted migration (contiguous placement),
   partitioned vs global scheduling, reconfiguration overhead, the
   EDF-US hybrid and 2-D placement of Section 7, and how optimistic
   synchronous-release simulation is. *)

module Time = Model.Time
module Engine = Sim.Engine
module Policy = Sim.Policy

let fpga_area = 100

let profile = Model.Generator.unconstrained ~n:10

(* the section's flags: tasksets per point, simulation horizon, seed *)
type knobs = { samples : int; horizon : Time.t; seed : int }

let sim_accept k ?placement ~policy ts =
  let cfg = Engine.default_config ~fpga_area ~policy in
  let cfg =
    {
      cfg with
      Engine.horizon = k.horizon;
      placement = Option.value placement ~default:Engine.Migrating;
    }
  in
  Engine.schedulable cfg ts

let tasksets_at rng target n =
  let rec go acc k =
    if k = 0 then acc
    else
      match Model.Generator.draw_with_target_us rng profile ~target_us:target with
      | Some ts -> go (ts :: acc) (k - 1)
      | None -> go acc (k - 1)
  in
  go [] n

(* --- Tables 1-3 are not cherry-picked --- *)

(* rediscover fresh witnesses that exactly one of DP, GN1, GN2 accepts
   at random, and quantify how often each subset of tests accepts *)
let discovered k =
  Env.heading "Discovered incomparability witnesses (extension)";
  let fpga_area = 10 in
  let tests = [ ("DP", Core.Dp.accepts); ("GN1", Core.Gn1.accepts); ("GN2", Core.Gn2.accepts) ] in
  let profile =
    {
      (Model.Generator.unconstrained ~n:2) with
      Model.Generator.fpga_area;
      area_hi = fpga_area;
      period_lo = 4.0;
      period_hi = 10.0;
    }
  in
  let rng = Rng.create ~seed:(k.seed + 101) in
  List.iter
    (fun (name, w) ->
      match w with
      | Some (witness : Experiment.Incomparability.witness) ->
        Format.printf "unique to %-3s (after %5d draws): %a@." name witness.draws_used
          Model.Taskset.pp witness.taskset
      | None -> Format.printf "unique to %-3s: none found within the draw budget@." name)
    (Experiment.Incomparability.find_all ~rng ~profile ~tests ());
  Printf.printf "\njoint acceptance over 5000 random 2-task sets on A(H)=%d:\n" fpga_area;
  List.iter
    (fun (accepting, count) ->
      Printf.printf "  %-16s %5d\n"
        (match accepting with [] -> "(none)" | l -> String.concat "+" l)
        count)
    (Experiment.Incomparability.incidence ~rng ~profile ~tests ())

(* --- measured alpha vs Lemmas 1 and 2 --- *)

let measured_alpha k =
  Env.heading "Lemmas 1-2: measured work-conserving alpha";
  let rng = Rng.create ~seed:k.seed in
  let samples = max 50 (k.samples / 4) in
  (* overloaded sets so the device is contended *)
  let sets = tasksets_at rng 120.0 samples in
  let measure policy =
    List.fold_left
      (fun (worst, lemma_ok, contended) ts ->
        let cfg = Engine.default_config ~fpga_area ~policy in
        let r = Engine.run { cfg with Engine.horizon = Time.of_units 100 } ts in
        match r.Engine.stats.min_busy_when_contended with
        | None -> (worst, lemma_ok, contended)
        | Some min_busy ->
          let alpha = float_of_int min_busy /. float_of_int fpga_area in
          let flag =
            match policy.Policy.rule with
            | Policy.Fkf -> r.Engine.stats.fkf_alpha_respected
            | Policy.Nf -> r.Engine.stats.nf_alpha_respected
          in
          (min worst alpha, lemma_ok && flag, contended + 1))
      (1.0, true, 0) sets
  in
  (* both lemmas' bound at the largest possible task area (100): the
     most pessimistic *)
  let amax_bound = 1.0 -. (float_of_int (100 - 1) /. float_of_int fpga_area) in
  let report name policy =
    let worst, lemma_ok, contended = measure policy in
    Printf.printf
      "%-8s: %d contended runs, worst measured alpha %.3f, Lemma bound (Amax=100) %.3f, lemma flag %s\n"
      name contended worst amax_bound
      (if lemma_ok then "never violated" else "VIOLATED")
  in
  report "EDF-FkF" Policy.edf_fkf;
  report "EDF-NF" Policy.edf_nf;
  Printf.printf
    "(the per-job Lemma-2 bound uses each waiting job's own area; the engine checks it exactly)\n"

(* --- restricted migration / contiguous placement --- *)

let placement_modes k =
  Env.heading "Ablation: unrestricted migration vs contiguous placement";
  Printf.printf
    "simulated acceptance under EDF-NF, by placement mode (samples=%d/point):\n\n"
    (max 50 (k.samples / 3));
  let targets = [ 40.0; 55.0; 70.0; 85.0 ] in
  Printf.printf "%8s %12s %12s %12s %12s\n" "US" "migrating" "first-fit" "best-fit" "worst-fit";
  List.iter
    (fun target ->
      let rng = Rng.create ~seed:(k.seed + 7) in
      let sets = tasksets_at rng target (max 50 (k.samples / 3)) in
      let ratio placement =
        let n = List.length sets in
        if n = 0 then 0.0
        else
          float_of_int (List.length (List.filter (sim_accept k ?placement ~policy:Policy.edf_nf) sets))
          /. float_of_int n
      in
      Printf.printf "%8.1f %12.3f %12.3f %12.3f %12.3f\n" target (ratio None)
        (ratio (Some (Engine.Contiguous Fpga.Device.First_fit)))
        (ratio (Some (Engine.Contiguous Fpga.Device.Best_fit)))
        (ratio (Some (Engine.Contiguous Fpga.Device.Worst_fit))))
    targets

(* --- partitioned vs global --- *)

let partitioned_vs_global k =
  Env.heading "Ablation: partitioned (Danne RAW'06) vs global EDF-NF";
  let samples = max 100 (k.samples / 2) in
  Printf.printf "%8s %14s %18s %12s\n" "US" "partitioned" "composite-tests" "SIM-NF";
  List.iter
    (fun target ->
      let rng = Rng.create ~seed:(k.seed + 13) in
      let sets = tasksets_at rng target samples in
      let n = float_of_int (max 1 (List.length sets)) in
      let count f = float_of_int (List.length (List.filter f sets)) /. n in
      Printf.printf "%8.1f %14.3f %18.3f %12.3f\n" target
        (count (fun ts -> Core.Partitioned.accepts ~fpga_area ts))
        (count (Core.Composite.edf_nf_any ~fpga_area))
        (count (fun ts -> sim_accept k ~policy:Policy.edf_nf ts)))
    [ 20.0; 30.0; 40.0; 55.0; 70.0 ]

(* --- reconfiguration overhead --- *)

let overhead_sweep k =
  Env.heading "Ablation: reconfiguration overhead folded into C (Section 1)";
  Printf.printf
    "acceptance of the combined analytic test after inflating every C by the\nworst-case reconfiguration delay (per-column model), US target 30:\n\n";
  let samples = max 100 (k.samples / 2) in
  let rng = Rng.create ~seed:(k.seed + 23) in
  let sets = tasksets_at rng 30.0 samples in
  let n = float_of_int (max 1 (List.length sets)) in
  Printf.printf "%22s %12s\n" "overhead (ms/column)" "acceptance";
  List.iter
    (fun per_column_ms ->
      let model =
        if per_column_ms = 0 then Fpga.Overhead.Zero
        else Fpga.Overhead.Per_column (Time.of_ticks per_column_ms)
      in
      let accept ts =
        match Fpga.Overhead.inflate_taskset model ts with
        | None -> false
        | Some ts' -> Core.Composite.edf_nf_any ~fpga_area ts'
      in
      Printf.printf "%22.3f %12.3f\n"
        (float_of_int per_column_ms /. 1000.0)
        (float_of_int (List.length (List.filter accept sets)) /. n))
    [ 0; 1; 2; 5; 10; 20 ]

(* --- EDF-US hybrid --- *)

let edf_us k =
  Env.heading "Ablation: EDF-US hybrid (Section 7 future work)";
  Printf.printf
    "simulated acceptance on temporally-heavy tasksets (figure 4(b) profile):\nEDF-US gives top priority to tasks above the utilization threshold.\n\n";
  let p = Model.Generator.spatially_light_temporally_heavy ~n:10 in
  let samples = max 100 (k.samples / 2) in
  let rng = Rng.create ~seed:(k.seed + 31) in
  let sets = List.init samples (fun _ -> Model.Generator.draw rng p) in
  let policies =
    [
      ("EDF-NF", Policy.edf_nf);
      ("EDF-FkF", Policy.edf_fkf);
      ( "EDF-US[1/2]-time",
        Policy.edf_us ~threshold:(Rat.of_ints 1 2) ~measure:`Time ~rule:Policy.Nf );
      ( "EDF-US[1/2]-system",
        Policy.edf_us ~threshold:(Rat.of_ints 1 200) ~measure:`System ~rule:Policy.Nf );
    ]
  in
  let n = float_of_int (max 1 (List.length sets)) in
  List.iter
    (fun (name, policy) ->
      Printf.printf "%24s: %.3f\n" name
        (float_of_int (List.length (List.filter (fun ts -> sim_accept k ~policy ts) sets)) /. n))
    policies

(* --- 2-D reconfiguration (Section 7) --- *)

let two_dimensional k =
  Env.heading "Ablation: 1-D column model vs 2-D rectangles (Section 7)";
  Printf.printf
    "The same workloads simulated three ways on a 100-cell device:\n\
     (a) 1-D migrating (the paper's model), (b) 1-D embedded on a 10x10 grid\n\
     (full-height rectangles = contiguous columns), (c) 2-D square-ish\n\
     rectangles of the same cell count.  EDF-NF, horizon 200 units.\n\n";
  let rng = Rng.create ~seed:(k.seed + 53) in
  let samples = max 60 (k.samples / 5) in
  let profile = { (Model.Generator.unconstrained ~n:8) with Model.Generator.fpga_area = 100 } in
  Printf.printf "%8s %12s %14s %12s %16s\n" "US" "1-D migr" "grid embedded" "2-D squares" "frag rejections";
  List.iter
    (fun target ->
      let sets =
        List.filter_map
          (fun _ -> Model.Generator.draw_with_target_us rng profile ~target_us:target)
          (List.init samples Fun.id)
      in
      if sets <> [] then begin
        let n = float_of_int (List.length sets) in
        let migr =
          let cfg = Engine.default_config ~fpga_area:100 ~policy:Policy.edf_nf in
          let cfg = { cfg with Engine.horizon = Time.of_units 200 } in
          List.length (List.filter (Engine.schedulable cfg) sets)
        in
        let grid_cfg =
          { (Sim2d.Engine2d.default_config ~width:10 ~height:10 ~rule:Policy.Nf) with
            Sim2d.Engine2d.horizon = Time.of_units 200 }
        in
        let embedded =
          List.length
            (List.filter
               (fun ts ->
                 (* width on a 10-column grid: ceil(area/10) full-height *)
                 let tasks =
                   List.map
                     (fun (t : Model.Task.t) ->
                       Sim2d.Task2d.make ~name:t.name ~exec:t.exec ~deadline:t.deadline
                         ~period:t.period ~w:(max 1 ((t.area + 9) / 10)) ~h:10 ())
                     (Model.Taskset.to_list ts)
                 in
                 Sim2d.Engine2d.schedulable grid_cfg tasks)
               sets)
        in
        let squares ts =
          List.map
            (fun (t : Model.Task.t) ->
              (* square-ish rectangle with ~the same number of cells *)
              let side = max 1 (int_of_float (Float.round (sqrt (float_of_int t.area)))) in
              let w = min 10 side in
              let h = min 10 (max 1 ((t.area + w - 1) / w)) in
              Sim2d.Task2d.make ~name:t.name ~exec:t.exec ~deadline:t.deadline ~period:t.period
                ~w ~h ())
            (Model.Taskset.to_list ts)
        in
        let sq_ok, frag =
          List.fold_left
            (fun (ok, fr) ts ->
              let r = Sim2d.Engine2d.run grid_cfg (squares ts) in
              ( (match r.Sim2d.Engine2d.outcome with Sim2d.Engine2d.No_miss -> ok + 1 | _ -> ok),
                fr + r.Sim2d.Engine2d.stats.Sim2d.Engine2d.fragmentation_rejections ))
            (0, 0) sets
        in
        Printf.printf "%8.1f %12.3f %14.3f %12.3f %16d\n" target
          (float_of_int migr /. n)
          (float_of_int embedded /. n)
          (float_of_int sq_ok /. n)
          frag
      end)
    [ 40.0; 60.0; 80.0 ]

(* --- how optimistic is the synchronous-release simulation? --- *)

(* a concrete witness (found by randomized search, kept as a regression
   test): sync-schedulable, missed under offsets (0, 2, 0.5) *)
let sync_witness () =
  Model.Taskset.of_list
    [
      Model.Task.of_decimal ~name:"t0" ~exec:"3" ~deadline:"3" ~period:"3" ~area:6 ();
      Model.Task.of_decimal ~name:"t1" ~exec:"1" ~deadline:"3" ~period:"3" ~area:4 ();
      Model.Task.of_decimal ~name:"t2" ~exec:"1" ~deadline:"2" ~period:"2" ~area:4 ();
    ]

let sync_vs_exhaustive k =
  Env.heading "Ablation: synchronous simulation vs exhaustive offsets (Section 6 caveat)";
  Printf.printf
    "The paper uses synchronous-release simulation as a coarse upper bound\nbecause there is no critical instant.  On tiny tasksets we can exhaust\nall release offsets on a grid and count how often the synchronous\npattern is misleadingly optimistic.\n\n";
  let rng = Rng.create ~seed:(k.seed + 41) in
  let trials = max 100 (k.samples / 2) in
  let sync_ok = ref 0 and refuted = ref 0 and inconclusive = ref 0 in
  for _ = 1 to trials do
    let tasks =
      List.init
        (Rng.int_incl rng 2 3)
        (fun i ->
          let p = Rng.pick rng [| 2; 3; 4 |] in
          let period = Time.of_units p in
          let exec = Time.of_ticks (Rng.int_incl rng 1 (2 * p) * 500) in
          let area = Rng.int_incl rng 3 8 in
          Model.Task.make ~name:(Printf.sprintf "t%d" i) ~exec ~deadline:period ~period ~area ())
    in
    let ts = Model.Taskset.of_list tasks in
    match
      Sim.Exhaustive.sync_is_not_worst_case ~grid:(Time.of_ticks 500) ~fpga_area:10
        ~policy:Policy.edf_nf ts
    with
    | Some true ->
      incr sync_ok;
      incr refuted
    | Some false -> if
        (match Model.Taskset.hyperperiod ts with
         | Model.Taskset.Finite h ->
           let cfg = Engine.default_config ~fpga_area:10 ~policy:Policy.edf_nf in
           Engine.schedulable { cfg with Engine.horizon = h } ts
         | Model.Taskset.Exceeds_cap -> false)
      then incr sync_ok
    | None -> incr inconclusive
  done;
  Printf.printf
    "random 2-3 task sets on A(H)=10: %d sync-schedulable, of which %d (%.1f%%)\nare refuted by some offset assignment; %d searches inconclusive\n"
    !sync_ok !refuted
    (if !sync_ok = 0 then 0.0 else 100.0 *. float_of_int !refuted /. float_of_int !sync_ok)
    !inconclusive;
  (match
     Sim.Exhaustive.sync_is_not_worst_case ~grid:(Time.of_ticks 500) ~fpga_area:10
       ~policy:Policy.edf_nf (sync_witness ())
   with
   | Some true ->
     Printf.printf
      "known witness confirmed: {(3,3,3,6),(1,3,3,4),(1,2,2,4)} on A(H)=10 is\nsync-schedulable but misses with offsets (0, 2, 0.5)\n"
   | _ -> Printf.printf "known witness NOT confirmed (unexpected)\n")

let run ~samples ~horizon ~seed =
  let k = { samples; horizon = Time.of_units horizon; seed } in
  discovered k;
  measured_alpha k;
  placement_modes k;
  partitioned_vs_global k;
  overhead_sweep k;
  edf_us k;
  two_dimensional k;
  sync_vs_exhaustive k
