(* The one reader/writer of the benchmark results: the results
   directory, and the tagged JSON-lines file every bench section writes
   its rows to.

   This module deliberately lives outside the determinism scope of
   check-src (wall clocks and the filesystem are its whole job); the
   analyzers it measures stay inside. *)

let results_dir = "results"
let default_out = Filename.concat results_dir "BENCH.jsonl"

let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let ensure_parent_dir path = ensure_dir (Filename.dirname path)

let write_file name contents =
  let path = Filename.concat results_dir name in
  ensure_parent_dir path;
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let heading title = Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let find_sub haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i =
    if i + n > h then None else if String.sub haystack i n = needle then Some i else go (i + 1)
  in
  go 0

(* Field extraction by substring scan rather than a JSON parser:
   Core.Json refuses floats by design, and every row is one flat
   object, so textual slicing is exact. *)
let string_field line name =
  let marker = Printf.sprintf "\"%s\":\"" name in
  match find_sub line marker with
  | None -> None
  | Some i -> (
    let start = i + String.length marker in
    match String.index_from_opt line start '"' with
    | None -> None
    | Some stop -> Some (String.sub line start (stop - start)))

let raw_field line name =
  let marker = Printf.sprintf "\"%s\":" name in
  match find_sub line marker with
  | None -> None
  | Some i ->
    let start = i + String.length marker in
    let stop = ref start in
    while !stop < String.length line && line.[!stop] <> ',' && line.[!stop] <> '}' do incr stop done;
    Some (String.trim (String.sub line start (!stop - start)))

(* --- tagged JSON lines --- *)

let section_tag line = string_field line "bench"

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ when not (Sys.file_exists path) -> Ok []
  | exception Sys_error msg -> Error msg
  | contents ->
    let rec go acc lineno = function
      | [] -> Ok (List.rev acc)
      | line :: rest when String.trim line = "" -> go acc (lineno + 1) rest
      | line :: rest -> (
        match section_tag line with
        | Some tag -> go ((tag, line) :: acc) (lineno + 1) rest
        | None -> Error (Printf.sprintf "%s:%d: line has no \"bench\" tag" path lineno))
    in
    go [] 1 (String.split_on_char '\n' contents)

let write_section ~out ~section lines =
  Result.bind (read out) (fun existing ->
      let others = List.filter (fun (tag, _) -> tag <> section) existing in
      let rows =
        List.stable_sort
          (fun (a, _) (b, _) -> String.compare a b)
          (others @ List.map (fun line -> (section, line)) lines)
      in
      try
        ensure_parent_dir out;
        Out_channel.with_open_bin out (fun oc ->
            List.iter (fun (_, line) -> output_string oc (line ^ "\n")) rows);
        Ok ()
      with Sys_error msg -> Error msg)

(* --- core rows --- *)

type core_row = {
  analyzer : string;
  n : int;
  mode : string;  (* "single" | "batch" | "repeat" *)
  us_per_decide : float;
  truncated : bool;  (* measured under an expired --budget-ms, or skipped *)
}

let core_row_to_json r =
  Printf.sprintf
    "{\"bench\":\"core\",\"analyzer\":%S,\"n\":%d,\"mode\":%S,\"us_per_decide\":%.2f,\"truncated\":%b}"
    r.analyzer r.n r.mode r.us_per_decide r.truncated

let core_row_of_json line =
  match
    ( string_field line "analyzer",
      Option.bind (raw_field line "n") int_of_string_opt,
      string_field line "mode",
      Option.bind (raw_field line "us_per_decide") float_of_string_opt,
      Option.bind (raw_field line "truncated") bool_of_string_opt )
  with
  | Some analyzer, Some n, Some mode, Some us_per_decide, Some truncated ->
    Some { analyzer; n; mode; us_per_decide; truncated }
  | _ -> None

let read_core path =
  Result.bind (read path) (fun lines ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | ("core", line) :: rest -> (
          match core_row_of_json line with
          | Some row -> go (row :: acc) rest
          | None -> Error (Printf.sprintf "%s: malformed core row: %s" path line))
        | _ :: rest -> go acc rest
      in
      go [] lines)
