(** [redf bench ablations]: fresh Tables 1-3 incomparability witnesses
    and the ablation experiments of DESIGN.md.  Output is determined by
    the three knobs. *)

val run : samples:int -> horizon:int -> seed:int -> unit

val sync_witness : unit -> Model.Taskset.t
(** Schedulable under synchronous release, missed with first-release
    offsets (0, 2, 0.5) on area 10: there is no critical instant. *)
