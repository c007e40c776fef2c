(* In-process replay of one workload's generated inputs through each
   layer's public functions, with spans recorded around the calls.

   replay.exe --workload W --dir D --seed N --samples S --spans 0|1

   Reads D/lines.jsonl (serve requests) and D/warm.jsonl (serve warm
   pass), and keeps the admit session's state in D/admit.  Writes
   D/replayed.jsonl (the serve lines it replayed; for the sweep, built
   from its own draws) and D/spans.tsv (--spans 1) or D/plain.tsv: one "S name start_ns end_ns parent req" line per
   span, in start order, and one "V name value" line per measured value.
   With --spans 0 the same calls run without recording, which gives the
   tracing overhead. *)

(* --- span recorder ------------------------------------------------------ *)

let now () = Int64.to_int (Monotonic_clock.now ())
let tracing = ref true
let names : (string, int) Hashtbl.t = Hashtbl.create 64
let name_list = ref []

let intern name =
  match Hashtbl.find_opt names name with
  | Some i -> i
  | None ->
    let i = Hashtbl.length names in
    Hashtbl.add names name i;
    name_list := name :: !name_list;
    i

let cap = ref 0
let count = ref 0
let s_name = ref [||]
let s_start = ref [||]
let s_end = ref [||]
let s_parent = ref [||]
let s_req = ref [||]
let current = ref (-1)

let grow () =
  let n = max 1024 (2 * !cap) in
  let ext a = Array.append !a (Array.make (n - !cap) 0) in
  s_name := ext s_name;
  s_start := ext s_start;
  s_end := ext s_end;
  s_parent := ext s_parent;
  s_req := ext s_req;
  cap := n

let span ?(req = -1) name f =
  if not !tracing then f ()
  else begin
    if !count = !cap then grow ();
    let id = !count in
    incr count;
    let parent = !current in
    current := id;
    !s_name.(id) <- intern name;
    !s_parent.(id) <- parent;
    !s_req.(id) <- req;
    let t0 = now () in
    let finish () =
      !s_start.(id) <- t0;
      !s_end.(id) <- now ();
      current := parent
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* work the replay must not trace (warm passes) *)
let untraced f =
  let saved = !tracing in
  tracing := false;
  Fun.protect ~finally:(fun () -> tracing := saved) f

let values = ref []
let value name v = values := (name, v) :: !values

let write_out path =
  let oc = open_out path in
  let by_id = Array.of_list (List.rev !name_list) in
  for i = 0 to !count - 1 do
    Printf.fprintf oc "S\t%s\t%d\t%d\t%d\t%d\n" by_id.(!s_name.(i)) !s_start.(i) !s_end.(i)
      !s_parent.(i) !s_req.(i)
  done;
  List.iter (fun (n, v) -> Printf.fprintf oc "V\t%s\t%.17g\n" n v) (List.rev !values);
  close_out oc

(* --- inputs ------------------------------------------------------------- *)

let read_lines path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")

let fail fmt = Printf.ksprintf failwith fmt
let fpga_area = 100

(* nearest-rank percentile with at least ten samples beyond it (the
   benchmark's tail rule, see stats.py), never below the median *)
let percentile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let med = a.((n - 1) / 2) in
    if n <= 10 then med
    else max med a.(min (int_of_float (Float.ceil (q *. float n)) - 1) (n - 11))

(* --- analyzers ------------------------------------------------------------ *)

let layer_of name =
  match String.lowercase_ascii name with
  | "dp" -> "core.dp"
  | "gn1" -> "core.gn1"
  | "gn2" -> "core.gn2"
  | n when String.starts_with ~prefix:"approx" n -> "exact.approx"
  | n -> "core." ^ n

(* the same analyzer (name and version, hence cache keys and verdict
   bytes) with a span around each taskset it decides *)
let traced (a : Core.Analyzer.t) =
  let label = layer_of a.Core.Analyzer.name ^ ".decide" in
  let one ~fpga_area ts = span label (fun () -> (a.Core.Analyzer.decide_all ~fpga_area [| ts |]).(0)) in
  Core.Analyzer.make ~name:a.Core.Analyzer.name ~cite:a.Core.Analyzer.cite
    ~version:a.Core.Analyzer.version
    ~decide_all:(fun ~fpga_area tss -> Array.map (one ~fpga_area) tss)
    one

(* --- model: the fig3b generator ----------------------------------------- *)

(* draws as Experiment.Sweep does for fig3b: master seed -> one generator
   per utilization point -> one per sample *)
let generate ~seed ~samples =
  let cfg = Experiment.Figures.config ~samples ~seed Experiment.Figures.Fig3b in
  let targets = Array.of_list cfg.Experiment.Sweep.targets in
  let profile = cfg.Experiment.Sweep.profile in
  let point_gens = Parallel.Det.gens (Rng.create ~seed) (Array.length targets) in
  let out = ref [] in
  Array.iteri
    (fun pi g ->
      Array.iter
        (fun sg ->
          match
            span "model.generator.draw" (fun () ->
                Model.Generator.draw_with_target_us sg profile ~target_us:targets.(pi))
          with
          | Some ts -> out := ts :: !out
          | None -> ())
        (Parallel.Det.gens g samples))
    point_gens;
  List.rev !out

(* --- server + cache + core ---------------------------------------------- *)

(* each request line through framing, parse, canonical key, the verdict
   cache (whose analyzer calls are child spans) and response rendering;
   then the same line through Server.Engine.handle_lines, the in-process
   service time.  The two answers must agree byte for byte. *)
let serve_stage ~warm lines =
  let cache = Cache.Verdicts.create ~shards:8 ~capacity:4096 () in
  let framing = Server.Framing.create () in
  let engine = Server.Engine.create ~jobs:1 () in
  let handle req line =
    ignore
      (span ~req "server.framing.feed" (fun () ->
           Server.Framing.feed framing ~now:0. (line ^ "\n")));
    match span ~req "server.protocol.parse" (fun () -> Server.Protocol.parse line) with
    | Error _ -> None
    | Ok r ->
      let analyzer = r.Server.Protocol.analyzer and fpga_area = r.Server.Protocol.fpga_area in
      let ts = r.Server.Protocol.taskset in
      ignore
        (span ~req "cache.canonical.key" (fun () -> Cache.Canonical.key ~analyzer ~fpga_area ts));
      let v =
        span ~req "cache.verdicts.decide_all" (fun () ->
            (Cache.Verdicts.decide_all cache ~analyzer:(traced analyzer) ~fpga_area [| ts |]).(0))
      in
      Some (span ~req "server.protocol.response" (fun () -> Server.Protocol.response r v))
  in
  untraced (fun () ->
      List.iter (fun l -> ignore (handle (-1) l)) warm;
      ignore (Server.Engine.handle_lines engine (Array.of_list warm)));
  let s0 = Cache.Verdicts.stats cache in
  let mismatches = ref 0 in
  List.iteri
    (fun i line ->
      let mine = handle i line in
      let theirs =
        span ~req:i "server.engine.service" (fun () -> (Server.Engine.handle_lines engine [| line |]).(0))
      in
      if mine <> Some theirs then incr mismatches)
    lines;
  let s1 = Cache.Verdicts.stats cache in
  let hits = s1.Cache.Lru.hits - s0.Cache.Lru.hits
  and misses = s1.Cache.Lru.misses - s0.Cache.Lru.misses in
  value "cache.verdicts.hit_ratio" (float hits /. float (max 1 (hits + misses)));
  Server.Engine.shutdown engine;
  !mismatches

(* every distinct taskset of the workload decided directly by each
   analyzer, so decide costs exist even where the request path only hits
   the cache (those spans have no verdict-cache parent) *)
let core_stage tasksets =
  let approx =
    match Core.Analyzer.of_name "approx[0.1]" with Ok a -> a | Error m -> fail "%s" m
  in
  List.iter
    (fun a ->
      let t = traced a in
      List.iter (fun ts -> ignore (t.Core.Analyzer.decide ~fpga_area ts)) tasksets)
    [ Core.Analyzer.dp; Core.Analyzer.gn1; Core.Analyzer.gn2; approx ]

(* --- rat / bignum ---------------------------------------------------------- *)

(* the additions every analyzer performs: running sums of per-task
   system utilizations; operands are the sizes this workload produces *)
let rat_stage tasksets =
  let pairs = ref [] in
  List.iter
    (fun ts ->
      ignore
        (List.fold_left
           (fun acc t ->
             let u = Model.Task.system_utilization t in
             pairs := (acc, u) :: !pairs;
             Rat.add acc u)
           Rat.zero (Model.Taskset.to_list ts)))
    tasksets;
  let pairs = Array.of_list (List.rev !pairs) in
  let digits b = String.length (Bignum.to_string (Bignum.abs b)) in
  let operand x = max (digits (Rat.num x)) (digits (Rat.den x)) in
  let ds = Array.fold_left (fun acc (a, b) -> float (operand a) :: float (operand b) :: acc) [] pairs in
  value "rat.operand_digits_p50" (percentile 0.5 ds);
  value "rat.operand_digits_p99" (percentile 0.99 ds);
  (* ns per op over repeated passes of at least 20 ms *)
  let per_op name inputs f =
    span name (fun () ->
        let t0 = now () and ops = ref 0 in
        while now () - t0 < 20_000_000 do
          Array.iter (fun (a, b) -> ignore (Sys.opaque_identity (f a b))) inputs;
          ops := !ops + Array.length inputs
        done;
        value (name ^ "_ns") (float (now () - t0) /. float (max 1 !ops)))
  in
  if Array.length pairs > 0 then begin
    per_op "rat.add" pairs Rat.add;
    per_op "rat.mul" pairs Rat.mul;
    per_op "rat.compare" pairs Rat.compare;
    let big = Array.map (fun (a, b) -> (Rat.num a, Rat.den b)) pairs in
    per_op "bignum.mul" big Bignum.mul;
    (* the gcd Rat.make runs for a + b: gcd(an*bd + bn*ad, ad*bd) *)
    let gcds =
      Array.map
        (fun (a, b) ->
          let open Bignum.Infix in
          ((Rat.num a * Rat.den b) + (Rat.num b * Rat.den a), Rat.den a * Rat.den b))
        pairs
    in
    per_op "bignum.gcd" gcds Bignum.gcd
  end

(* --- sim + parallel ------------------------------------------------------- *)

let policies = [ ("edf_nf", Sim.Policy.edf_nf); ("edf_fkf", Sim.Policy.edf_fkf) ]

let sim_config policy =
  { (Sim.Engine.default_config ~fpga_area ~policy) with Sim.Engine.horizon = Model.Time.of_units 1000 }

let sim_stage tasksets =
  List.iter
    (fun (name, policy) ->
      let cfg = sim_config policy in
      List.iter
        (fun ts -> ignore (span ("sim.engine.run." ^ name) (fun () -> Sim.Engine.run cfg ts)))
        tasksets)
    policies

(* the sweep's evaluation shape on a 2-worker pool: analytic methods in
   one chunk per worker, simulations one taskset per item; busy share is
   the items' summed time over workers x wall time *)
let pool_stage tasksets =
  let arr = Array.of_list tasksets in
  let n = Array.length arr in
  Parallel.Pool.with_pool ~jobs:2 (fun pool ->
      let busy = Atomic.make 0 in
      let timed f x =
        let s = now () in
        let r = f x in
        ignore (Atomic.fetch_and_add busy (now () - s));
        r
      in
      let half = (n + 1) / 2 in
      let chunks = [| Array.sub arr 0 half; Array.sub arr half (n - half) |] in
      let t0 = now () in
      span "parallel.pool.evaluate" (fun () ->
          List.iter
            (fun (a : Core.Analyzer.t) ->
              ignore
                (Parallel.Pool.map pool
                   (timed (fun c -> a.Core.Analyzer.decide_all ~fpga_area c))
                   chunks))
            [ Core.Analyzer.dp; Core.Analyzer.gn1; Core.Analyzer.gn2; Core.Analyzer.nec ];
          List.iter
            (fun (_, policy) ->
              let cfg = sim_config policy in
              ignore (Parallel.Pool.map pool (timed (Sim.Engine.schedulable cfg)) arr))
            policies);
      let wall = now () - t0 in
      value "parallel.pool.busy_share" (float (Atomic.get busy) /. float (max 1 (2 * wall))))

(* --- admit ------------------------------------------------------------------ *)

let json_of line = match Core.Json.of_string line with Ok j -> j | Error m -> fail "bad JSON: %s" m

let str_member key j =
  match Core.Json.member key j with Some (Core.Json.String s) -> Some s | _ -> None

(* a task in the admit wire format: decimal-string (or integer) times *)
let task_member j =
  let time k =
    match Core.Json.member k j with
    | Some (Core.Json.String s) -> s
    | Some (Core.Json.Int i) -> string_of_int i
    | _ -> fail "task: bad %s" k
  in
  let area = match Core.Json.member "A" j with Some (Core.Json.Int a) -> a | _ -> fail "task: bad A" in
  Model.Task.of_decimal ?name:(str_member "name" j) ~exec:(time "C") ~deadline:(time "D")
    ~period:(time "T") ~area ()

let task_wire (t : Model.Task.t) =
  Printf.sprintf {|{"A":%d,"C":"%s","D":"%s","T":"%s","name":"%s"}|} t.Model.Task.area
    (Model.Time.to_string t.Model.Task.exec) (Model.Time.to_string t.Model.Task.deadline)
    (Model.Time.to_string t.Model.Task.period) t.Model.Task.name

let list_member key j = match Core.Json.member key j with Some (Core.Json.List l) -> l | _ -> []

(* the canonical key of the taskset an op's verdict is about, built
   incrementally as the daemon builds it *)
let delta_key delta op j =
  let d =
    match op with
    | "add-task" -> Cache.Delta.add delta (task_member (Option.get (Core.Json.member "task" j)))
    | "remove-task" -> Cache.Delta.remove delta (Option.get (str_member "name" j))
    | "what-if" ->
      let d =
        List.fold_left
          (fun d n -> match n with Core.Json.String s -> Cache.Delta.remove d s | _ -> d)
          delta (list_member "drop" j)
      in
      List.fold_left (fun d t -> Cache.Delta.add d (task_member t)) d (list_member "add" j)
    | _ -> delta
  in
  Cache.Delta.key d ~analyzer:Core.Analyzer.gn2 ~fpga_area

(* the admit session's ops: toggles, queries and what-ifs over the first
   tasks of the workload's own tasksets *)
let derived_ops tasksets =
  let pool =
    List.concat_map Model.Taskset.to_list tasksets
    |> List.filteri (fun i _ -> i < 6)
    |> List.mapi (fun i t -> { t with Model.Task.name = Printf.sprintf "p%d" i })
    |> Array.of_list
  in
  let m = Array.length pool in
  fun i present ->
    if m = 0 || i >= 400 then None
    else
      let t = pool.(i / 4 mod m) in
      let tj = task_wire t in
      let name = t.Model.Task.name in
      Some
        (match i mod 4 with
        | 0 | 1 ->
          if present name then Printf.sprintf {|{"id":"d%d","name":"%s","op":"remove-task"}|} i name
          else Printf.sprintf {|{"id":"d%d","op":"add-task","task":%s}|} i tj
        | 2 -> Printf.sprintf {|{"id":"d%d","op":"query"}|} i
        | _ ->
          if present name then Printf.sprintf {|{"drop":["%s"],"id":"d%d","op":"what-if"}|} name i
          else Printf.sprintf {|{"add":[%s],"id":"d%d","op":"what-if"}|} tj i)

let admit_stage ~dir ~next_op =
  let analyzer = Core.Analyzer.gn2 in
  let d =
    match Admit.Daemon.create ~analyzer ~fpga_area ~dir () with
    | Ok (d, _) -> d
    | Error m -> fail "admit: %s" m
  in
  let records = ref [] in
  let rec loop i =
    let st = Admit.Daemon.state d in
    match next_op i (Admit.State.mem st) with
    | None -> ()
    | Some line ->
      let j = json_of line in
      let op = Option.value (str_member "op" j) ~default:"?" in
      let delta = Cache.Delta.of_tasks (Admit.State.tasks st) in
      ignore (span ~req:i "cache.delta.key" (fun () -> delta_key delta op j));
      let reply = span ~req:i ("admit.daemon.handle." ^ op) (fun () -> Admit.Daemon.handle_line d line) in
      (match Core.Json.member "admitted" (json_of reply) with
      | Some (Core.Json.Bool true) ->
        let rop =
          if op = "add-task" then Admit.State.Add (task_member (Option.get (Core.Json.member "task" j)))
          else Admit.State.Remove (Option.get (str_member "name" j))
        in
        records := (str_member "id" j, rop, reply) :: !records
      | _ -> ());
      loop (i + 1)
  in
  loop 0;
  Admit.Daemon.close d;
  (* recovery: reopen what the ops left behind, per record of history *)
  let t0 = now () in
  (match span "admit.store.open" (fun () -> Admit.Daemon.create ~analyzer ~fpga_area ~dir ()) with
  | Ok (d, _) ->
    value "admit.store.open_us_per_record"
      (float (now () - t0) /. 1000. /. float (max 1 (Admit.State.seq (Admit.Daemon.state d))));
    Admit.Daemon.close d
  | Error m -> fail "admit reopen: %s" m);
  (* the durable layers on their own, on the same records: a fresh
     journal (append + fsync each), and a fresh store *)
  let recs =
    List.mapi (fun k (rid, op, reply) -> { Admit.State.seq = k + 1; rid; op; reply }) (List.rev !records)
  in
  let jdir = dir ^ "-journal" and cdir = dir ^ "-commit" in
  Unix.mkdir jdir 0o755;
  let jr = Admit.Journal.open_append ~path:(Filename.concat jdir "j.wal") ~valid_bytes:0 () in
  List.iter
    (fun r ->
      let payload = Admit.State.record_to_string r in
      span "admit.journal.append" (fun () -> Admit.Journal.append jr payload))
    recs;
  Admit.Journal.close jr;
  match Admit.Store.open_dir ~dir:cdir () with
  | Error m -> fail "admit store: %s" m
  | Ok (store, _) ->
    List.iter
      (fun r ->
        match span "admit.store.commit" (fun () -> Admit.Store.commit store r) with
        | Ok () -> ()
        | Error m -> fail "admit commit: %s" m)
      recs;
    Admit.Store.close store

(* wall time of a stage whose work is fixed (unlike the rat loops, which
   run for a fixed time, or the fsync-bound admit stage): the sum over
   these stages, with and without spans, gives the tracing overhead *)
let stage name f =
  let t0 = now () in
  let r = f () in
  value ("replay.stage_us." ^ name) (float (now () - t0) /. 1000.);
  r

(* --- main ----------------------------------------------------------------- *)

let () =
  let workload = ref "" and dir = ref "" and seed = ref 1 and samples = ref 2 and spans = ref 1 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--dir", Arg.Set_string dir, "DIR");
      ("--seed", Arg.Set_int seed, "N");
      ("--samples", Arg.Set_int samples, "N (fig3b samples per point)");
      ("--spans", Arg.Set_int spans, "0|1");
    ]
    (fun a -> raise (Arg.Bad a))
    "replay.exe --workload W --dir D --seed N [--samples S] [--spans 0|1]";
  Exact.Registry.ensure ();
  tracing := !spans = 1;
  let path f = Filename.concat !dir f in
  let t0 = now () in
  let drawn = stage "generate" (fun () -> generate ~seed:!seed ~samples:!samples) in
  let lines, warm =
    if !workload = "sweep-fig3b" then
      ( List.concat_map
          (fun ts ->
            List.map
              (fun a -> Server.Protocol.request_line ~analyzer:a ~fpga_area ts)
              [ "DP"; "GN1"; "GN2" ])
          drawn,
        [] )
    else (read_lines (path "lines.jsonl"), read_lines (path "warm.jsonl"))
  in
  let oc = open_out (path "replayed.jsonl") in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  let mismatches = stage "serve" (fun () -> serve_stage ~warm lines) in
  (* the workload's distinct tasksets feed the layers below the server *)
  let tasksets =
    if !workload = "sweep-fig3b" then drawn
    else
      let seen = Hashtbl.create 64 in
      List.filter_map
        (fun l ->
          match Server.Protocol.parse l with
          | Ok r ->
            let k = Cache.Canonical.key ~analyzer:Core.Analyzer.gn2 ~fpga_area r.Server.Protocol.taskset in
            if Hashtbl.mem seen k then None
            else begin
              Hashtbl.add seen k ();
              Some r.Server.Protocol.taskset
            end
          | Error _ -> None)
        lines
      |> List.filteri (fun i _ -> i < 40)
  in
  stage "core" (fun () -> core_stage tasksets);
  rat_stage tasksets;
  stage "sim" (fun () -> sim_stage tasksets);
  pool_stage tasksets;
  admit_stage ~dir:(path "admit") ~next_op:(derived_ops tasksets);
  value "replay.mismatches" (float mismatches);
  value "replay.wall_us" (float (now () - t0) /. 1000.);
  write_out (path (if !tracing then "spans.tsv" else "plain.tsv"))
