(* [redf bench core]: the per-decide cost of each analyzer across
   taskset sizes, in both call modes, plus the substrate rows under
   them, against the committed baseline in results/BENCH.jsonl.

   Rows measure directly on the wall clock: repeated iterations until
   ~0.5 s or 64 runs, minimum one (GN2's exact arithmetic makes the
   many iterations an OLS fit wants prohibitive at N=256).  A
   per-section --budget-ms can cut a row short (or skip it); such rows
   are flagged truncated and never participate in comparison. *)

let fpga_area = 100
let core_sizes = [ 8; 64; 256 ]

(* batch rows amortize per-call setup over a pool of distinct tasksets;
   16 is large enough to show the columnar fast path, small enough that
   one iteration stays near the single-row cost *)
let batch_width = 16
let batch_sizes = [ 8; 64 ]

let taskset_of_size ?(seed = 1234) n =
  let rng = Rng.create ~seed in
  Model.Generator.draw rng (Model.Generator.unconstrained ~n)

let single_analyzers =
  [
    ("DP", fun ts -> ignore (Core.Dp.accepts ~fpga_area ts));
    ("GN1", fun ts -> ignore (Core.Gn1.accepts ~fpga_area ts));
    ("GN2", fun ts -> ignore (Core.Gn2.accepts ~fpga_area ts));
    ( "approx[1/10]",
      fun ts -> ignore (Exact.Approx.analyze ~eps:(Rat.of_ints 1 10) ~fpga_area ts) );
    ( "approx[1/100]",
      fun ts -> ignore (Exact.Approx.analyze ~eps:(Rat.of_ints 1 100) ~fpga_area ts) );
  ]

let batch_analyzers = [ Core.Analyzer.dp; Core.Analyzer.gn1; Core.Analyzer.gn2 ]

(* the oracle is exponential in N (offset combinations), so its rows
   use crafted small integer tasksets with an explicit combination cap
   instead of the generated N sweep *)
let exact_sizes = [ 2; 3 ]

let exact_taskset n =
  let task c d t a = Model.Task.of_decimal ~exec:c ~deadline:d ~period:t ~area:a () in
  Model.Taskset.of_list
    (List.filteri
       (fun i _ -> i < n)
       [ task "1" "6" "6" 40; task "2" "8" "8" 50; task "1" "4" "4" 30 ])

type spec = { analyzer : string; n : int; mode : string; decides_per_iter : int; iter : unit -> unit }

let single analyzer n iter = { analyzer; n; mode = "single"; decides_per_iter = 1; iter }

(* the substrate rows — the simulator, the big-number and generator
   layers, and Obs's disabled primitives (the "free when off" claim) —
   run 1000 calls per timed iteration: a microsecond call would
   otherwise be timed mostly by the clock reads around it, and a
   nanosecond one would print 0 *)
let substrate_specs () =
  let repeats = 1000 in
  let repeat name op =
    let iter () =
      for _ = 1 to repeats do
        op ()
      done
    in
    { analyzer = name; n = repeats; mode = "repeat"; decides_per_iter = 1; iter }
  in
  let sim name ?(metrics = false) policy placement =
    let ts = taskset_of_size 10 in
    let cfg = Sim.Engine.default_config ~fpga_area ~policy in
    let cfg = { cfg with Sim.Engine.horizon = Model.Time.of_units 100; placement } in
    repeat name (fun () ->
        Obs.set_enabled metrics;
        ignore (Sim.Engine.run cfg ts);
        Obs.set_enabled false)
  in
  let big = Bignum.pow (Bignum.of_int 7) 64 in
  let rng = Rng.create ~seed:5 and profile = Model.Generator.unconstrained ~n:10 in
  let counter = Obs.Counter.make "bench.obs.counter" in
  let timer = Obs.Timer.make "bench.obs.timer" in
  [
    sim "sim/EDF-NF/migrating" Sim.Policy.edf_nf Sim.Engine.Migrating;
    sim "sim/EDF-FkF/migrating" Sim.Policy.edf_fkf Sim.Engine.Migrating;
    sim "sim/EDF-NF/first-fit" Sim.Policy.edf_nf (Sim.Engine.Contiguous Fpga.Device.First_fit);
    sim "sim/EDF-NF/metrics-on" ~metrics:true Sim.Policy.edf_nf Sim.Engine.Migrating;
    repeat "bignum/mul[7^64]" (fun () -> ignore (Bignum.mul big big));
    repeat "generator/draw" (fun () -> ignore (Model.Generator.draw rng profile));
    repeat "obs/counter-incr[off]" (fun () -> Obs.Counter.incr counter);
    repeat "obs/counter-add[off]" (fun () -> Obs.Counter.add counter 3);
    repeat "obs/timer-time[off]" (fun () -> Obs.Timer.time timer ignore);
    repeat "obs/span-with[off]" (fun () -> Obs.Span.with_ ~name:"bench.obs.span" ignore);
  ]

(* workloads (and the Obs metrics the substrate rows use) are built when
   the section runs, never at module initialisation *)
let specs () =
  let singles =
    List.concat_map
      (fun n ->
        let ts = taskset_of_size n in
        List.map (fun (name, f) -> single name n (fun () -> f ts)) single_analyzers)
      core_sizes
  in
  let batches =
    List.concat_map
      (fun n ->
        let tss = Array.init batch_width (fun i -> taskset_of_size ~seed:(1234 + i) n) in
        List.map
          (fun a ->
            {
              analyzer = a.Core.Analyzer.name;
              n;
              mode = "batch";
              decides_per_iter = batch_width;
              iter = (fun () -> ignore (a.Core.Analyzer.decide_all ~fpga_area tss));
            })
          batch_analyzers)
      batch_sizes
  in
  let exacts =
    List.map
      (fun n ->
        let ts = exact_taskset n in
        single "exact" n (fun () ->
            ignore
              (Exact.Oracle.decide ~max_combinations:20_000 ~fpga_area ~policy:Sim.Policy.edf_nf ts)))
      exact_sizes
  in
  singles @ batches @ exacts @ substrate_specs ()

(* --budget-ms: a wall-clock deadline for the whole section *)
let within deadline = match deadline with None -> true | Some d -> Unix.gettimeofday () < d

let measure ~deadline spec =
  let row us_per_decide truncated =
    { Env.analyzer = spec.analyzer; n = spec.n; mode = spec.mode; us_per_decide; truncated }
  in
  (* skipped outright: record the row so the matrix shape is stable,
     but with no measurement behind it *)
  if not (within deadline) then row 0.0 true
  else begin
    let budget_s = 0.5 and max_runs = 64 in
    let t0 = Unix.gettimeofday () in
    let rec go runs =
      spec.iter ();
      let elapsed = Unix.gettimeofday () -. t0 in
      let runs = runs + 1 in
      let natural = elapsed >= budget_s || runs >= max_runs in
      if natural then (elapsed, runs, false)
      else if not (within deadline) then (elapsed, runs, true)
      else go runs
    in
    let elapsed, runs, cut = go 0 in
    row (elapsed *. 1e6 /. float_of_int (runs * spec.decides_per_iter)) cut
  end

let collect ?budget_ms ?only ?(progress = fun (_ : Env.core_row) -> ()) () =
  let deadline =
    Option.map (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.0)) budget_ms
  in
  let keep spec =
    match only with
    | None -> true
    | Some keys -> List.mem (spec.analyzer, spec.n, spec.mode) keys
  in
  List.filter_map
    (fun spec ->
      if not (keep spec) then None
      else begin
        let row = measure ~deadline spec in
        progress row;
        Some row
      end)
    (specs ())

(* --- comparison against a committed baseline --- *)

let parse_tolerance s =
  let body =
    let l = String.length s in
    if l > 0 && (s.[l - 1] = 'x' || s.[l - 1] = 'X') then String.sub s 0 (l - 1) else s
  in
  match float_of_string_opt body with
  | Some f when f >= 1.0 -> Ok f
  | Some _ -> Error (Printf.sprintf "tolerance %S is below 1.0" s)
  | None -> Error (Printf.sprintf "cannot parse tolerance %S (want e.g. 1.5x)" s)

(* micro-rows (tens of microseconds) jitter wildly between machines and
   shared CI runners; a ratio gate alone would flag noise, so a
   regression additionally needs this much absolute slowdown *)
let abs_slack_us = 25.0

type verdict = Ok_row of float | Regressed of float | New_row | Skipped_truncated

type compared = { row : Env.core_row; baseline_us : float option; verdict : verdict }

let row_key r = (r.Env.analyzer, r.Env.n, r.Env.mode)

let compare_rows ~tolerance ~baseline current =
  List.map
    (fun cur ->
      let base = List.find_opt (fun b -> row_key b = row_key cur) baseline in
      let baseline_us = Option.map (fun b -> b.Env.us_per_decide) base in
      let verdict =
        match base with
        | None -> New_row
        | Some b ->
          if cur.Env.truncated || b.Env.truncated || b.Env.us_per_decide <= 0.0 then
            Skipped_truncated
          else begin
            let ratio = cur.Env.us_per_decide /. b.Env.us_per_decide in
            if ratio > tolerance && cur.Env.us_per_decide -. b.Env.us_per_decide > abs_slack_us
            then Regressed ratio
            else Ok_row ratio
          end
      in
      { row = cur; baseline_us; verdict })
    current

let regressions compared =
  List.filter (fun c -> match c.verdict with Regressed _ -> true | _ -> false) compared

let pretty_row r =
  Printf.sprintf "%-13s n=%-4d %-6s %14.2f us/decide%s" r.Env.analyzer r.Env.n r.Env.mode
    r.Env.us_per_decide
    (if r.Env.truncated then "  [truncated]" else "")

let pretty_compared c =
  let tail =
    match (c.verdict, c.baseline_us) with
    | Ok_row ratio, Some b -> Printf.sprintf "  baseline %14.2f  x%.2f  ok" b ratio
    | Regressed ratio, Some b -> Printf.sprintf "  baseline %14.2f  x%.2f  REGRESSED" b ratio
    | New_row, _ -> "  (no baseline row)"
    | Skipped_truncated, _ -> "  (truncated; not compared)"
    | _, None -> ""
  in
  pretty_row c.row ^ tail

(* --- the section: measure, write, gate --- *)

let progress r = Printf.printf "  %s\n%!" (pretty_row r)

(* A row that trips the gate is re-measured once and the faster of its
   two runs is kept: a shared runner's scheduling hiccup shows up in
   one run, a real regression in both. *)
let retry_regressed ~tolerance ~baseline rows =
  let compared = compare_rows ~tolerance ~baseline rows in
  match regressions compared with
  | [] -> (rows, compared)
  | regressed ->
    Printf.printf "\n%d row(s) look regressed; re-measuring those rows once:\n%!"
      (List.length regressed);
    let keys = List.map (fun c -> row_key c.row) regressed in
    (* unbudgeted: a handful of rows, and a truncated retry would be
       useless as evidence either way *)
    let reruns = collect ~only:keys ~progress () in
    let rows =
      List.map
        (fun r ->
          match List.find_opt (fun r2 -> row_key r2 = row_key r) reruns with
          | Some r2 when (not r2.Env.truncated) && r2.Env.us_per_decide < r.Env.us_per_decide -> r2
          | _ -> r)
        rows
    in
    (rows, compare_rows ~tolerance ~baseline rows)

let report ~tolerance compared =
  Printf.printf "\nagainst baseline (tolerance %.2fx):\n" tolerance;
  List.iter (fun c -> Printf.printf "  %s\n" (pretty_compared c)) compared;
  let comparable c = match c.verdict with Ok_row _ | Regressed _ -> true | _ -> false in
  match regressions compared with
  | _ :: _ as regressed ->
    Printf.printf "\n%d row(s) regressed beyond %.2fx.\n" (List.length regressed) tolerance;
    1
  | [] when not (List.exists comparable compared) ->
    Printf.printf "\nno row was compared: every row is new to the baseline or truncated.\n";
    1
  | [] ->
    Printf.printf "\nno regressions.\n";
    0

(* The baseline is read before the output is written, so --compare FILE
   --out FILE diffs against the committed bytes. *)
let run ~budget_ms ~out ~compare ~tolerance =
  let usage msg =
    prerr_endline ("error: " ^ msg);
    2
  in
  let baseline =
    match compare with
    | None -> Ok None
    | Some path when not (Sys.file_exists path) ->
      Error (Printf.sprintf "baseline %s does not exist" path)
    | Some path -> Result.map Option.some (Env.read_core path)
  in
  match (parse_tolerance tolerance, baseline) with
  | Error msg, _ | _, Error msg -> usage msg
  | Ok tolerance, Ok baseline -> (
    Printf.printf "analyzer cost matrix (us/decide, seed-fixed workloads):\n%!";
    let rows = collect ?budget_ms ~progress () in
    let rows, compared =
      match baseline with
      | None -> (rows, None)
      | Some baseline ->
        let rows, compared = retry_regressed ~tolerance ~baseline rows in
        (rows, Some compared)
    in
    match Env.write_section ~out ~section:"core" (List.map Env.core_row_to_json rows) with
    | Error msg -> usage msg
    | Ok () -> (
      Printf.printf "  -> %s\n%!" out;
      match compared with None -> 0 | Some compared -> report ~tolerance compared))
