(** The DP test — Theorem 1.

    Danne & Platzner's utilization bound for EDF-FkF (hence also valid for
    EDF-NF, which dominates it), restated by Guan et al. with the
    integer-area correction: a taskset [Gamma] is schedulable by EDF-FkF on
    a device with [A(H) >= Amax] columns if for every task [tau_k]

    {v US(Gamma) <= (A(H) - Amax + 1) * (1 - UT(tau_k)) + US(tau_k) v}

    The test is derived for periodic tasks with implicit deadlines
    ([D = T]); {!applicable} reports whether a taskset is in its domain,
    and outside it every task is rejected with the note
    ["DP requires implicit deadlines (D = T)"] (a constrained deadline
    can miss although the bound holds).  {!decide_original} evaluates
    Danne & Platzner's uncorrected bound (real-valued areas,
    [A(H) - Amax]), kept as a baseline, on the same domain. *)

val applicable : Model.Taskset.t -> bool
(** All deadlines implicit. *)

val decide : fpga_area:int -> Model.Taskset.t -> Verdict.t
val accepts : fpga_area:int -> Model.Taskset.t -> bool

val decide_all : fpga_area:int -> Model.Taskset.t array -> Verdict.t array
(** One verdict per taskset, in order; element [i] is byte-identical to
    [decide ~fpga_area tss.(i)]. *)

val decide_original : fpga_area:int -> Model.Taskset.t -> Verdict.t
(** Danne & Platzner's original bound with [A(H) - Amax] (no [+1]). *)

val accepts_original : fpga_area:int -> Model.Taskset.t -> bool
