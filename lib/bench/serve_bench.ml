(* [redf bench serve]: K concurrent client domains against an
   in-process Server.Loop daemon, each issuing M synchronous requests, with client-side latency measurement (the Obs
   timers aggregate count/sum/min/max only — percentiles need the raw
   samples) and a determinism check that every client's response stream
   is byte-identical to a serial [-j 1] in-process evaluation. *)

let fpga_area = 100

(* a fixed pool of distinct tasksets, cycled per client, so the run
   exercises both cache misses (first pass) and hits (repeats) *)
let workload ~clients ~requests =
  let distinct = max 1 (requests / 4) in
  let tasksets =
    Array.init distinct (fun d ->
        let rng = Rng.create ~seed:(1000 + d) in
        Model.Generator.draw rng (Model.Generator.unconstrained ~n:5))
  in
  Array.init clients (fun c ->
      Array.init requests (fun i ->
          Server.Protocol.request_line ~analyzer:"GN2" ~fpga_area
            ~id:(Core.Json.String (Printf.sprintf "c%d-r%d" c i))
            tasksets.(i mod distinct)))

(* one client: synchronous request/response over its own connection,
   wall-clock latency per request measured around the full roundtrip *)
let client ~addr ~tcp lines =
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  if tcp then (try Unix.setsockopt sock Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  Unix.connect sock addr;
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      let ic = Unix.in_channel_of_descr sock and oc = Unix.out_channel_of_descr sock in
      let latencies = Array.make (Array.length lines) 0.0 in
      let responses =
        Array.mapi
          (fun i line ->
            let t0 = Unix.gettimeofday () in
            output_string oc (line ^ "\n");
            flush oc;
            match input_line ic with
            | exception End_of_file -> failwith "bench serve: server closed the connection mid-request"
            | response ->
              latencies.(i) <- (Unix.gettimeofday () -. t0) *. 1e6;
              response)
          lines
      in
      (latencies, responses))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))
  end

let run ~clients ~requests ~cache_size ~shards ~jobs ~tcp ~check ~out =
  Obs.set_enabled true;
  let lines = workload ~clients ~requests in
  let engine = Server.Engine.create ~cache_size ~shards ~jobs () in
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "redf-bench-%d.sock" (Unix.getpid ()))
  in
  let listener =
    if tcp then Server.Loop.tcp_listener ~host:"127.0.0.1" ~port:0
    else Server.Loop.unix_listener ~path:socket_path
  in
  let addr =
    if tcp then Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", Server.Loop.bound_port listener)
    else Unix.ADDR_UNIX socket_path
  in
  let server = Domain.spawn (fun () -> Server.Loop.serve engine [ listener ]) in
  let t0 = Unix.gettimeofday () in
  let client_domains =
    Array.map (fun client_lines -> Domain.spawn (fun () -> client ~addr ~tcp client_lines)) lines
  in
  let results = Array.map Domain.join client_domains in
  let elapsed = Unix.gettimeofday () -. t0 in
  Server.Engine.request_stop engine;
  Domain.join server;
  Server.Engine.shutdown engine;
  (* counter snapshot before the reference run, which feeds the same
     process-wide counters *)
  let counter name = Obs.Counter.value (Obs.Counter.make name) in
  let served_requests = counter "server.requests" in
  let served_connections = counter "server.connections" in
  let served_shed = counter "server.shed" in
  let determinism =
    if not check then "skipped"
    else begin
      (* the contract this section exists to demonstrate: concurrent
         serving returns, per client, the bytes a serial in-process
         evaluation returns *)
      Server.Engine.with_engine ~cache_size ~shards:1 ~jobs:1 @@ fun reference ->
      let ok = ref true in
      Array.iteri
        (fun c client_lines ->
          let expected = Server.Engine.handle_lines reference client_lines in
          let _, got = results.(c) in
          if got <> expected then ok := false)
        lines;
      if !ok then "ok" else "FAIL"
    end
  in
  let all = Array.concat (Array.to_list (Array.map fst results)) in
  Array.sort compare all;
  let total = clients * requests in
  let json =
    Printf.sprintf
      {|{"bench":"serve","transport":"%s","clients":%d,"requests_per_client":%d,"total_requests":%d,"jobs":%d,"cache_size":%d,"cache_shards":%d,"elapsed_s":%.3f,"req_per_s":%.1f,"latency_us":{"p50":%.1f,"p99":%.1f,"min":%.1f,"max":%.1f},"server":{"requests":%d,"connections":%d,"shed":%d},"determinism":"%s"}|}
      (if tcp then "tcp" else "unix")
      clients requests total jobs cache_size shards elapsed
      (float_of_int total /. Float.max 1e-9 elapsed)
      (percentile all 50.0) (percentile all 99.0)
      (percentile all 0.0)
      (percentile all 100.0)
      served_requests served_connections served_shed determinism
  in
  print_endline json;
  match Env.write_section ~out ~section:"serve" [ json ] with
  | Error msg ->
    prerr_endline ("error: " ^ msg);
    2
  | Ok () -> if determinism = "FAIL" then 1 else 0
