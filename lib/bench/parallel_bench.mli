(** [redf bench parallel]: scaling and byte identity across job counts
    of the sweep, audit and exhaustive-search paths. *)

val run : samples:int -> seed:int -> int
(** Print the timings and identity checks and write the ["parallel"]
    rows to {!Env.default_out}.  Exit status: 0; 1 when an output
    depends on the job count; 2 when the results file is unreadable. *)
