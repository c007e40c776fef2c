(** The one reader/writer of the benchmark results.

    Every [redf bench <section>] writes its rows to one JSON-lines file
    (default [results/BENCH.jsonl]): one line per row, each tagged with
    the section that owns it by a ["bench":"<section>"] field.  A
    section rewrites its own lines and leaves every other section's
    lines byte-for-byte alone.

    This library is excluded from check-src's determinism scope — wall
    clocks and the filesystem are its whole job.  Nothing here may leak
    into analyzer decide paths. *)

val results_dir : string
(** ["results"] — where the committed benchmark artifacts live. *)

val default_out : string
(** ["results/BENCH.jsonl"]. *)

val write_file : string -> string -> unit
(** [write_file name contents] writes [results_dir/name]. *)

val heading : string -> unit
(** Print a section title, underlined, after a blank line. *)

(** {2 Tagged JSON lines}

    Sections cannot nest under one JSON object: rows carry floats,
    which exact-arithmetic {!Core.Json} refuses to represent, so the
    file is spliced textually. *)

val read : string -> ((string * string) list, string) result
(** The non-blank lines of a results file, each paired with its
    section tag, in file order.  A missing file is empty; a line
    without a tag is an error. *)

val write_section : out:string -> section:string -> string list -> (unit, string) result
(** [write_section ~out ~section lines] replaces every line of
    [section] in [out] by [lines], keeps every other line
    byte-for-byte, and rewrites the file with lines stably sorted by
    tag, creating missing directories.  Fails, writing nothing, if
    [out] does not {!read}. *)

(** {2 Core rows} *)

type core_row = {
  analyzer : string;  (** what was timed: an analyzer name, or a substrate row like ["sim/EDF-NF/migrating"] *)
  n : int;  (** taskset size (or operand size / inner repeat count, see {!Core_bench}) *)
  mode : string;
      (** ["single"] ({!Core.Analyzer.t.decide} per taskset), ["batch"]
          ([decide_all]) or ["repeat"] ([n] calls per timed iteration) *)
  us_per_decide : float;
  truncated : bool;
      (** the row's measurement was cut short (or skipped entirely,
          [us_per_decide = 0.]) by an expired [--budget-ms]; comparison
          ignores truncated rows on either side *)
}

val core_row_to_json : core_row -> string
(** One ["bench":"core"] line. *)

val read_core : string -> (core_row list, string) result
(** The ["core"] rows of a results file, in file order. *)
