(* [redf bench admit]: the admission daemon's
   mutation path (parse + incremental verdict + journal append +
   fsync), the warm what-if path, the from-scratch analyzer baseline it
   is measured against, and recovery time as a function of journal
   length.  Writes the "admit" section of the results file. *)

module Json = Core.Json

let ( // ) = Filename.concat

(* tiny-utilization tasks so every admission is accepted and the
   resident taskset can grow to [resident] without the analyzer saying
   no: the bench measures machinery, not admission policy *)
let light_task i ~id =
  Json.to_string
    (Json.Obj
       [
         ("op", Json.String "add-task");
         ("id", Json.String id);
         ( "task",
           Json.Obj
             [
               ("name", Json.String (Printf.sprintf "tau%d" i));
               ("C", Json.Int 1);
               ("D", Json.Int (1000 + (i mod 64)));
               ("T", Json.Int (1000 + (i mod 64)));
               ("A", Json.Int 1);
             ] );
       ])

let remove_line i ~id =
  Json.to_string
    (Json.Obj
       [
         ("op", Json.String "remove-task");
         ("id", Json.String id);
         ("name", Json.String (Printf.sprintf "tau%d" i));
       ])

let what_if_line =
  Json.to_string
    (Json.Obj
       [
         ("op", Json.String "what-if");
         ( "add",
           Json.List
             [
               Json.Obj
                 [
                   ("name", Json.String "candidate");
                   ("C", Json.Int 1);
                   ("D", Json.Int 500);
                   ("T", Json.Int 500);
                   ("A", Json.Int 1);
                 ];
             ] );
       ])

let expect_ok what reply =
  match Json.of_string reply with
  | Ok json when Json.member "kind" json = Some (Json.String "admit") -> ()
  | _ -> failwith (Printf.sprintf "bench admit: %s failed: %s" what reply)

let time_us f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1e6)

let fresh_dir tag =
  let dir =
    Filename.get_temp_dir_name () // Printf.sprintf "redf-bench-admit-%s-%d" tag (Unix.getpid ())
  in
  (match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
    Array.iter (fun f -> Sys.remove (dir // f)) (Sys.readdir dir));
  dir

let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (dir // f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

(* build a journal of [records] alternating add/remove (resident state
   stays tiny, so this isolates journal length, not analysis cost) and
   measure a cold open over it *)
let recovery_ms ~analyzer ~fpga_area records =
  let dir = fresh_dir (Printf.sprintf "rec%d" records) in
  Fun.protect ~finally:(fun () -> remove_dir dir)
  @@ fun () ->
  (match Admit.Store.open_dir ~snapshot_every:(records + 1) ~dir () with
  | Error msg -> failwith msg
  | Ok (store, _) ->
    for i = 1 to records do
      let op =
        if i mod 2 = 1 then Admit.State.Add (Model.Task.of_decimal ~name:"flip" ~exec:"1" ~deadline:"9" ~period:"9" ~area:1 ())
        else Admit.State.Remove "flip"
      in
      match
        Admit.Store.commit ~fsync:false store
          { Admit.State.seq = i; rid = None; op; reply = "{\"bench\":true}" }
      with
      | Ok () -> ()
      | Error msg -> failwith ("bench admit: journal build: " ^ msg)
    done;
    Admit.Store.close store);
  let t0 = Unix.gettimeofday () in
  match Admit.Daemon.create ~snapshot_every:(records + 1) ~analyzer ~fpga_area ~dir () with
  | Error msg -> failwith ("bench admit: recovery: " ^ msg)
  | Ok (d, recovery) ->
    let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
    Admit.Daemon.close d;
    if recovery.Admit.Store.replayed <> records then
      failwith
        (Printf.sprintf "bench admit: recovery replayed %d of %d records"
           recovery.Admit.Store.replayed records);
    ms

let percentile = Serve_bench.percentile

let run ~mutations ~resident ~analyzer_name ~fpga_area ~out =
  match Core.Analyzer.of_name analyzer_name with
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    2
  | Ok analyzer -> (
    let dir = fresh_dir "mut" in
    Fun.protect ~finally:(fun () -> remove_dir dir)
    @@ fun () ->
    match Admit.Daemon.create ~snapshot_every:4096 ~analyzer ~fpga_area ~dir () with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
    | Ok (d, _) ->
      (* grow to the resident size, then alternate remove/re-add of the
         same task: after the first pair both verdicts are cache hits,
         so the measured latency is the durable-commit machinery
         (parse, incremental canonical key, dedup lookup, journal
         append, fsync) rather than the analyzer *)
      let latencies = Array.make mutations 0.0 in
      for i = 1 to resident do
        expect_ok "warmup add"
          (Admit.Daemon.handle_line d (light_task i ~id:(Printf.sprintf "warm-%d" i)))
      done;
      for m = 0 to mutations - 1 do
        let id = Printf.sprintf "mut-%d" m in
        let line =
          if m mod 2 = 0 then remove_line resident ~id else light_task resident ~id
        in
        let reply, us = time_us (fun () -> Admit.Daemon.handle_line d line) in
        expect_ok "mutation" reply;
        latencies.(m) <- us
      done;
      (* warm what-if: candidate verdict served from the verdict cache
         through the incremental canonical key *)
      expect_ok "what-if" (Admit.Daemon.handle_line d what_if_line);
      let what_if_runs = 200 in
      let what_if_us = Array.make what_if_runs 0.0 in
      for i = 0 to what_if_runs - 1 do
        let reply, us = time_us (fun () -> Admit.Daemon.handle_line d what_if_line) in
        expect_ok "what-if" reply;
        what_if_us.(i) <- us
      done;
      (* from-scratch baseline: one full analyzer run on the same state *)
      let tasks = Admit.State.tasks (Admit.Daemon.state d) in
      let ts = Model.Taskset.of_list tasks in
      let scratch_runs = 50 in
      let scratch_us = Array.make scratch_runs 0.0 in
      for i = 0 to scratch_runs - 1 do
        let _, us = time_us (fun () -> analyzer.Core.Analyzer.decide ~fpga_area ts) in
        scratch_us.(i) <- us
      done;
      Admit.Daemon.close d;
      let rec_1e3 = recovery_ms ~analyzer ~fpga_area 1_000 in
      let rec_1e5 = recovery_ms ~analyzer ~fpga_area 100_000 in
      Array.sort compare latencies;
      Array.sort compare what_if_us;
      Array.sort compare scratch_us;
      let sum = Array.fold_left ( +. ) 0.0 latencies in
      let json =
        Printf.sprintf
          {|{"bench":"admit","analyzer":"%s","fpga_area":%d,"resident_tasks":%d,"mutations":%d,"fsync":true,"mutations_per_s":%.1f,"mutation_us":{"p50":%.1f,"p99":%.1f,"max":%.1f},"what_if_warm_us":{"p50":%.1f,"p99":%.1f},"from_scratch_us":{"p50":%.1f,"p99":%.1f},"recovery_ms":{"records_1e3":%.1f,"records_1e5":%.1f}}|}
          analyzer.Core.Analyzer.name fpga_area resident mutations
          (float_of_int mutations /. Float.max 1e-9 (sum /. 1e6))
          (percentile latencies 50.0) (percentile latencies 99.0) (percentile latencies 100.0)
          (percentile what_if_us 50.0) (percentile what_if_us 99.0)
          (percentile scratch_us 50.0) (percentile scratch_us 99.0)
          rec_1e3 rec_1e5
      in
      print_endline json;
      match Env.write_section ~out ~section:"admit" [ json ] with
      | Error msg ->
        prerr_endline ("error: " ^ msg);
        2
      | Ok () -> 0)
