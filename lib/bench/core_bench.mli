(** [redf bench core]: per-decide analyzer cost across taskset sizes
    and call modes, the substrate rows under them, and the comparison
    against a committed baseline — the CI perf gate.

    The analyzer matrix: DP/GN1/GN2/approx at N in {8, 64, 256} in
    single mode; DP/GN1/GN2 in batch mode ([decide_all] over 16
    distinct tasksets) at N in {8, 64}; the exact oracle at N in
    {2, 3}.  The substrate rows, in ["repeat"] mode ([n] = 1000 calls
    per timed iteration, so microseconds per row read as nanoseconds
    per call): the simulator at N=10 over 100 time units (three
    configurations, and EDF-NF with metrics on), [Bignum.mul] of 7^64
    by itself, [Generator.draw] at N=10, and the four disabled {!Obs}
    primitives.  Workloads derive from fixed seeds. *)


val parse_tolerance : string -> (float, string) result
(** Accepts ["1.5x"] or ["1.5"]; must be at least 1.0. *)

val abs_slack_us : float
(** A row only counts as regressed if, besides exceeding the ratio
    tolerance, it slowed down by at least this many microseconds —
    micro-rows jitter too much between machines for a pure ratio
    gate. *)

type verdict =
  | Ok_row of float  (** ratio current/baseline, within tolerance *)
  | Regressed of float  (** ratio beyond tolerance and absolute slack *)
  | New_row  (** no matching (analyzer, n, mode) row in the baseline *)
  | Skipped_truncated  (** either side truncated (or zero) — not comparable *)

type compared = { row : Env.core_row; baseline_us : float option; verdict : verdict }

val compare_rows :
  tolerance:float -> baseline:Env.core_row list -> Env.core_row list -> compared list
(** Match current rows to baseline rows by (analyzer, n, mode). *)

val run : budget_ms:int option -> out:string -> compare:string option -> tolerance:string -> int
(** Measure, write the ["core"] section of [out], and with [compare]
    gate on that baseline (read before [out] is written, so both may
    name the same file).  [budget_ms] bounds the whole section's wall
    clock: a row still running when it expires is cut short and flagged
    {!Env.core_row.truncated}; rows not yet started are recorded with
    [us_per_decide = 0.] and the same flag.  A row that trips the gate
    is re-measured once and the faster run kept.  Exit status: 0; 1 on
    a regression, or when no row could be compared; 2 on a bad
    tolerance or an unreadable baseline or [out]. *)
