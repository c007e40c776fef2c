(** [redf bench figures]: results/figX.csv for Figures 3-4, the paper's
    claims checked against them, and acceptance vs task count. *)

val run :
  samples:int ->
  horizon:int ->
  seed:int ->
  jobs:int ->
  sweep:(Experiment.Figures.figure -> Experiment.Sweep.t) ->
  unit
(** [sweep] regenerates one figure at [samples]/[horizon]/[seed]/[jobs]
    — [redf sweep]'s own code path. *)
