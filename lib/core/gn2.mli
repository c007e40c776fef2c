(** The GN2 test — Theorem 3, for EDF-FkF (hence also sound for EDF-NF).

    FPGA generalisation of Baker's BAK2, combining the per-window
    interference analysis with busy-interval (problem-window) extension.
    For every task [tau_k] the test searches a constant
    [lambda >= C_k/T_k]; with [lambda_k = lambda * max(1, T_k/D_k)],
    [Abnd = A(H) - Amax + 1] and the per-task work-rate bound

    {v beta^lambda_k(i) =
         max(C_i/T_i, C_i/T_i (1 - D_i/D_k) + C_i/D_k)   if C_i/T_i <= lambda
         C_i/T_i                                          if C_i/T_i > lambda and lambda >= C_i/D_i
         C_i/T_i + (C_i - lambda D_i)/D_k                 if C_i/T_i > lambda and lambda <  C_i/D_i v}

    the taskset is accepted iff for every [k] some candidate [lambda]
    satisfies

    {v 1)  sum_i A_i min(beta^lambda_k(i), 1 - lambda_k) <  Abnd (1 - lambda_k)
       2)  sum_i A_i min(beta^lambda_k(i), 1) < (Abnd - Amin)(1 - lambda_k) + Amin v}

    Only the discontinuity points of [beta] need be tried: for task [k],
    [lambda = C_i/T_i] for all [i], plus [C_i/D_i] when [D_i > T_i], that
    lie within [\[C_k/T_k, min(1, D_k/T_k)\]].  No other points are
    added: at [lambda_k = 1], for instance, condition 2 degenerates and
    would wrongly accept the paper's Table 1.  Evaluated naively this is
    the paper's O(N^3) test; {!decide} rewrites [beta] as the hinge
    [max(K_i, A_i - B_i lambda)], keeps both condition sums as running
    linear coefficients over an event sweep, and slices one globally
    sorted candidate array per task — O(N^2 log N) per taskset, stopping
    at the first candidate that satisfies a condition.

    Two typos in the published statement are corrected here (see
    DESIGN.md §2): the middle [beta] case prints [C_k/T_k] for [C_i/T_i],
    and condition 2 prints [<=] although only the strict form reproduces
    the paper's own Table 1 decision. *)

val decide : fpga_area:int -> Model.Taskset.t -> Verdict.t
(** Per task, the check reports the first candidate (ascending) at
    which either condition holds, condition 1 taking precedence there;
    when none does, the candidate whose condition-2 margin
    [lhs - rhs] came closest (the first such on ties). *)

val accepts : fpga_area:int -> Model.Taskset.t -> bool

val decide_all : fpga_area:int -> Model.Taskset.t array -> Verdict.t array
(** One verdict per taskset, in order; element [i] is byte-identical to
    [decide ~fpga_area tss.(i)]. *)
