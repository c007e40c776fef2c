(* Tests for lib/bench: the results file reader/writer and the
   comparison that decides the CI perf gate. *)

module Env = Bench.Env
module Cb = Bench.Core_bench

let row ?(mode = "single") ?(truncated = false) analyzer n us_per_decide =
  { Env.analyzer; n; mode; us_per_decide; truncated }

let tolerance () =
  let parsed s = Result.to_option (Cb.parse_tolerance s) in
  List.iter
    (fun (s, expected) -> Alcotest.(check (option (float 1e-9))) s expected (parsed s))
    [ ("1.5x", Some 1.5); ("1.5X", Some 1.5); ("1.5", Some 1.5); ("1", Some 1.0);
      ("0.9x", None); ("0.5", None); ("fast", None); ("x", None); ("", None) ]

let verdicts () =
  let show = function
    | Cb.Ok_row r -> Printf.sprintf "ok x%.2f" r
    | Cb.Regressed r -> Printf.sprintf "regressed x%.2f" r
    | Cb.New_row -> "new"
    | Cb.Skipped_truncated -> "skipped"
  in
  let check msg baseline current expected =
    match Cb.compare_rows ~tolerance:1.5 ~baseline:[ baseline ] [ current ] with
    | [ c ] -> Alcotest.(check string) msg (show expected) (show c.Cb.verdict)
    | _ -> Alcotest.fail "one compared row per current row"
  in
  (* a regression needs both the ratio and the 25 us absolute slack *)
  check "ratio and slack" (row "GN1" 64 100.0) (row "GN1" 64 200.0) (Cb.Regressed 2.0);
  check "ratio only" (row "DP" 8 10.0) (row "DP" 8 30.0) (Cb.Ok_row 3.0);
  check "slack only" (row "GN2" 64 1000.0) (row "GN2" 64 1400.0) (Cb.Ok_row 1.4);
  check "current truncated" (row "DP" 8 20.0) (row ~truncated:true "DP" 8 900.0)
    Cb.Skipped_truncated;
  check "baseline truncated" (row ~truncated:true "DP" 8 20.0) (row "DP" 8 900.0)
    Cb.Skipped_truncated;
  check "zero baseline" (row "DP" 8 0.0) (row "DP" 8 900.0) Cb.Skipped_truncated;
  (* rows match on (analyzer, n, mode) *)
  check "missing size" (row "DP" 8 20.0) (row "DP" 64 20.0) Cb.New_row;
  check "missing mode" (row "DP" 8 20.0) (row ~mode:"batch" "DP" 8 20.0) Cb.New_row

let with_file contents f =
  let path = Filename.temp_file "bench" ".jsonl" in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_all path = In_channel.with_open_bin path In_channel.input_all
let get = function Ok v -> v | Error msg -> Alcotest.fail msg

let round_trip () =
  let rows =
    [
      row "approx[1/10]" 64 1980.52;
      row ~mode:"batch" "GN2" 8 937.33;
      row ~truncated:true "exact" 3 0.0;
      row ~mode:"repeat" "obs/counter-incr[off]" 1000 2.5;
    ]
  in
  with_file "" @@ fun path ->
  get (Env.write_section ~out:path ~section:"core" (List.map Env.core_row_to_json rows));
  Alcotest.(check bool) "rows come back unchanged" true (get (Env.read_core path) = rows)

let write_section_splices () =
  (* other sections keep their bytes (spacing included); a stale
     duplicate of the rewritten section goes too *)
  let serve = {|{"bench":"serve", "req_per_s":7283.9}|} in
  let admit = {|{"bench":"admit","mutations":400}|} in
  let old_core us = Env.core_row_to_json (row "DP" 8 us) in
  with_file (String.concat "\n" [ serve; old_core 1.0; admit; old_core 2.0; "" ]) @@ fun path ->
  let fresh = Env.core_row_to_json (row "GN1" 8 81.47) in
  get (Env.write_section ~out:path ~section:"core" [ fresh ]);
  Alcotest.(check string) "sorted by tag" (String.concat "\n" [ admit; fresh; serve; "" ])
    (read_all path)

let untagged_line () =
  let contents = "{\"bench\":\"serve\"}\n{\"x\":2}\n" in
  with_file contents @@ fun path ->
  Alcotest.(check bool) "read fails" true (Result.is_error (Env.read path));
  Alcotest.(check bool) "write fails" true
    (Result.is_error (Env.write_section ~out:path ~section:"serve" []));
  Alcotest.(check string) "file untouched" contents (read_all path)

let () =
  Alcotest.run "bench"
    [
      ( "compare",
        [
          Alcotest.test_case "parse_tolerance" `Quick tolerance;
          Alcotest.test_case "compare_rows verdicts" `Quick verdicts;
        ] );
      ( "results file",
        [
          Alcotest.test_case "core row round trip" `Quick round_trip;
          Alcotest.test_case "write_section splices" `Quick write_section_splices;
          Alcotest.test_case "untagged line is an error" `Quick untagged_line;
        ] );
    ]
