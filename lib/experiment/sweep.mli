(** Acceptance-ratio sweeps (the harness behind Figures 3 and 4).

    A sweep fixes a generator profile, a list of target system
    utilizations, and a set of methods (analytic tests and/or a
    simulation); for each utilization point it draws [samples] tasksets
    conditioned on that utilization and records the fraction each method
    accepts.  Results carry enough structure to be printed as the paper's
    figure series, exported as CSV, or plotted in ASCII. *)

type method_kind =
  | Analytic of Core.Analyzer.t  (** any registry analyzer ({!Core.Analyzer}) *)
  | Simulation of string * Sim.Policy.t
      (** synchronous release, migrating placement — the paper's setup *)

val standard_methods : method_kind list
(** DP, GN1, GN2, the EDF-NF / EDF-FkF simulations (the five series the
    paper's figures compare), plus the necessary-condition bound
    {!Core.Feasibility.feasible_maybe} as a horizon-independent upper
    bound on the true curve. *)

type conditioning =
  | Scaled
      (** per-point: draw tasksets rescaled to hit each target exactly
          (statistically efficient; needs a profile whose utilization
          range tolerates rescaling) *)
  | Binned
      (** draw unconditioned tasksets and bucket them by nearest target
          (the paper's approach; bucket population varies with the
          profile's natural US distribution) *)

type config = {
  profile : Model.Generator.profile;
  targets : float list;  (** system-utilization points *)
  samples : int;  (** tasksets per point (Scaled) or per target on average (Binned) *)
  seed : int;
  sim_horizon : Model.Time.t;  (** horizon for simulation methods *)
  methods : method_kind list;
  conditioning : conditioning;
}

val default_targets : float list
(** 10, 15, ..., 100 (the paper plots US up to the device area 100). *)

val default_config : profile:Model.Generator.profile -> config
(** [standard_methods], [default_targets], 300 samples, seed 42,
    horizon 1000 time units.  The paper uses >= 10000 samples; see
    EXPERIMENTS.md for the runtime trade-off and the flags
    [redf bench figures] exposes. *)

type point = {
  target_us : float;
  generated : int;  (** tasksets actually produced (target may be unreachable) *)
  accepted : int array;  (** per method, parallel to [config.methods] *)
}

type t = { config : config; method_names : string list; points : point list }

val run : ?progress:(int -> int -> unit) -> ?jobs:int -> config -> t
(** [run cfg] evaluates every work item — one generated taskset judged
    by every method — on a pool of [jobs] worker domains (default 1 =
    serial; 0 = one per core, see {!Parallel.resolve_jobs}).

    Determinism: each work item owns a generator derived from
    [cfg.seed] and the item's index alone ({!Parallel.Det}), so the
    result — and every byte of {!to_csv} / {!to_table} output — is
    identical for any [jobs], including the serial path.

    [progress] contract: called as [progress done_ total] where the
    unit is work items (points × samples for [Scaled], total draws for
    [Binned]).  Calls are serialized and [done_] is strictly
    increasing even under parallel completion, ending with
    [done_ = total]; callbacks may therefore safely update a terminal
    line or a shared counter without locking. *)

val acceptance : t -> method_index:int -> point -> float
(** Acceptance ratio in [0,1]; 0 when no taskset was generated. *)

val to_table : t -> string
(** Aligned text table: one row per utilization point, one column per
    method — the textual form of a paper figure. *)

val to_csv : t -> string

val to_ascii_plot : ?height:int -> t -> string
(** Crude line plot of acceptance ratio vs utilization, one letter per
    method. *)
