(* The single-decide-path contract of this repo's analyzer core:
   Model.Taskset.Columns round-trips losslessly, and every analyzer
   kernel prints byte-for-byte what the test oracle (oracle.ml: the
   theorem read directly over task records) prints — same verdicts,
   same notes, same JSON — on random tasksets (implicit, constrained and
   unconstrained deadlines, tasks longer than their deadline or wider
   than the device, duplicated and permuted sets).

   Byte identity, not structural equality: the serve/batch front ends
   and the verdict cache both promise cached == fresh == batch at the
   byte level, so these properties pin the strongest visible form. *)

module Columns = Model.Taskset.Columns
module Time = Model.Time

(* deadlines both below and above the period, so GN2's d<=t / d>t
   branches and GN1's carry-in clamping all get exercised; one taskset
   in three keeps D = T throughout, the only domain where DP evaluates
   its bound.  One task in five runs longer than its deadline (C > D):
   GN1 fails it outright and GN2 finds no lambda candidate for it. *)
let task_gen ~implicit =
  QCheck2.Gen.(
    let* t_units = int_range 2 10 in
    let* d_units = if implicit then return t_units else int_range 1 12 in
    let* overrun = int_range 0 4 >|= ( = ) 0 in
    let period = Time.of_units t_units in
    let deadline = Time.of_units d_units in
    let* c_ticks =
      if overrun then int_range (Time.ticks deadline + 1) (Time.ticks deadline + Time.ticks period)
      else int_range 1 (min (Time.ticks period) (Time.ticks deadline))
    in
    let* area = int_range 1 12 in
    return (Model.Task.make ~exec:(Time.of_ticks c_ticks) ~deadline ~period ~area ()))

let taskset_gen =
  QCheck2.Gen.(
    let* implicit = int_range 0 2 >|= ( = ) 0 in
    let* tasks = list_size (int_range 1 7) (task_gen ~implicit) in
    let* tasks = shuffle_l tasks in
    return (Model.Taskset.of_list tasks))

(* device narrow enough that some drawn tasks exceed it (reject_all
   path) and wide enough that full analyses run too *)
let area_gen = QCheck2.Gen.int_range 6 16

let case_gen = QCheck2.Gen.pair taskset_gen area_gen

let verdict_bytes v =
  Format.asprintf "%a" Core.Verdict.pp v ^ "\x00" ^ Core.Json.to_string (Core.Verdict.to_json v)

let qtest = Core_helpers.qtest

(* --- Columns round-trip --- *)

let prop_columns_roundtrip =
  qtest ~count:500 "Columns.to_taskset (of_taskset ts) = ts" taskset_gen (fun ts ->
      Model.Taskset.equal (Columns.to_taskset (Columns.of_taskset ts)) ts)

(* --- columnar decide kernel == record-path oracle, byte for byte --- *)

let bytes_ident name decide oracle =
  qtest ~count:400
    (Printf.sprintf "%s: columnar decide == reference bytes" name)
    case_gen
    (fun (ts, fpga_area) ->
      String.equal (verdict_bytes (decide ~fpga_area ts)) (verdict_bytes (oracle ~fpga_area ts)))

let prop_dp_ident = bytes_ident "DP" Core.Dp.decide (Oracle.Dp.decide ~plus_one:true)

let prop_dp_original_ident =
  bytes_ident "DP-original" Core.Dp.decide_original (Oracle.Dp.decide ~plus_one:false)

let prop_gn1_ident = bytes_ident "GN1" Core.Gn1.decide (Oracle.Gn1.decide ~lemma3_form:true)

let prop_gn1_printed_ident =
  bytes_ident "GN1-printed" Core.Gn1.decide_printed (Oracle.Gn1.decide ~lemma3_form:false)

(* GN2's event sweep stops at the first candidate that satisfies a
   condition; the oracle evaluates every candidate of every task from
   Theorem 3 before choosing.  Verdict bytes must not notice. *)
let prop_gn2_ident = bytes_ident "GN2 pruned vs exhaustive" Core.Gn2.decide Oracle.Gn2.decide

(* the generator reaches every branch the properties above pin: a
   regression in it would otherwise leave a path silently unchecked *)
let generator_coverage () =
  let rand = Random.State.make [| 13 |] in
  let notes = Hashtbl.create 16 in
  for _ = 1 to 400 do
    let ts, fpga_area = QCheck2.Gen.generate1 ~rand case_gen in
    List.iter
      (fun decide ->
        let v = decide ~fpga_area ts in
        if Core.Verdict.accepted v then
          Hashtbl.replace notes (v.Core.Verdict.test_name ^ " ACCEPT") ();
        List.iter
          (fun (c : Core.Verdict.task_check) -> Hashtbl.replace notes c.note ())
          v.Core.Verdict.checks)
      [ Core.Dp.decide; Core.Gn1.decide; Core.Gn2.decide ]
  done;
  List.iter
    (fun note -> Alcotest.(check bool) note true (Hashtbl.mem notes note))
    [
      "DP ACCEPT";
      "GN1 ACCEPT";
      "GN2 ACCEPT";
      "DP requires implicit deadlines (D = T)";
      "a task is wider than the FPGA";
      "C_k > D_k";
      "no lambda candidate in range";
    ]

(* --- approx: columnar demand scan == the oracle's record scan --- *)

let prop_approx_demand =
  qtest ~count:500 "approx: area_demand == record-path area_demand"
    QCheck2.Gen.(pair taskset_gen (int_range 0 30))
    (fun (ts, at_units) ->
      let at = Time.of_units at_units in
      Exact.Approx.area_demand (Columns.of_taskset ts) ~at_ticks:(Time.ticks at)
      = Oracle.area_demand ts ~at)

(* --- Analyzer.decide_all == mapping decide --- *)

let tasksets_gen = QCheck2.Gen.(array_size (int_range 0 5) taskset_gen)

let prop_decide_all_ident =
  qtest ~count:150 "Analyzer.decide_all == Array.map decide (all defaults)"
    QCheck2.Gen.(pair tasksets_gen area_gen)
    (fun (tss, fpga_area) ->
      List.for_all
        (fun (a : Core.Analyzer.t) ->
          let batch = Array.map verdict_bytes (a.decide_all ~fpga_area tss) in
          let one_by_one = Array.map (fun ts -> verdict_bytes (a.decide ~fpga_area ts)) tss in
          batch = one_by_one)
        Core.Analyzer.defaults)

(* --- Cache.Verdicts.decide_all == fresh decides, hits included --- *)

(* the batch deliberately contains duplicates (same taskset twice) so
   the miss-dedup path runs, and a second pass serves pure hits *)
let prop_cache_batch_ident =
  qtest ~count:100 "Verdicts.decide_all == fresh, duplicates and hits included"
    QCheck2.Gen.(pair (pair taskset_gen tasksets_gen) area_gen)
    (fun ((dup, tss), fpga_area) ->
      let tss = Array.concat [ [| dup |]; tss; [| dup |] ] in
      let cache = Cache.Verdicts.create ~capacity:64 () in
      let analyzer = Core.Analyzer.gn2 in
      let fresh = Array.map (fun ts -> verdict_bytes (analyzer.decide ~fpga_area ts)) tss in
      let first =
        Array.map verdict_bytes (Cache.Verdicts.decide_all cache ~analyzer ~fpga_area tss)
      in
      let second =
        Array.map verdict_bytes (Cache.Verdicts.decide_all cache ~analyzer ~fpga_area tss)
      in
      first = fresh && second = fresh)

let () =
  Alcotest.run "columns"
    [
      ("round-trip", [ prop_columns_roundtrip ]);
      ( "columnar == record bytes",
        [
          prop_dp_ident;
          prop_dp_original_ident;
          prop_gn1_ident;
          prop_gn1_printed_ident;
          prop_gn2_ident;
          Alcotest.test_case "generator reaches every pinned branch" `Quick generator_coverage;
          prop_approx_demand;
        ] );
      ("batch == single bytes", [ prop_decide_all_ident; prop_cache_batch_ident ]);
    ]
