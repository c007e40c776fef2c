(** Exact-rational views of task parameters, shared by all tests.

    One array per parameter, with the per-task divisions ([C_i/T_i],
    [C_i/D_i]) and the area extrema computed once at construction
    instead of once per use.  Built from {!Model.Taskset.Columns}; the
    decide kernels of {!Dp}/{!Gn1}/{!Gn2} run over this view. *)

type t = {
  n : int;
  area : int array;  (** [A_i] *)
  area_q : Rat.t array;
  c : Rat.t array;  (** [C_i] in time units *)
  d : Rat.t array;  (** [D_i] *)
  t : Rat.t array;  (** [T_i] *)
  u : Rat.t array;  (** [C_i / T_i] *)
  dens : Rat.t array;  (** [C_i / D_i] *)
  amax : int;
  amin : int;
}

val of_taskset : Model.Taskset.t -> t

val total_us : t -> Rat.t
(** [US(Gamma) = sum_i A_i C_i / T_i]. *)
