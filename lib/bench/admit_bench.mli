(** [redf bench admit]: the admission daemon's mutation, what-if and
    recovery paths against a throwaway state directory. *)

val run :
  mutations:int -> resident:int -> analyzer_name:string -> fpga_area:int -> out:string -> int
(** Print the ["admit"] row and write it to [out].  Exit status: 0; 1
    when the daemon cannot start; 2 on an unknown analyzer or an
    unreadable [out]. *)
