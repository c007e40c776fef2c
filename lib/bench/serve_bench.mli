(** [redf bench serve]: concurrent clients against an in-process
    {!Server.Loop} daemon. *)

val percentile : float array -> float -> float
(** [percentile sorted p], nearest rank. *)

val run :
  clients:int ->
  requests:int ->
  cache_size:int ->
  shards:int ->
  jobs:int ->
  tcp:bool ->
  check:bool ->
  out:string ->
  int
(** Print the ["serve"] row and write it to [out].  Exit status: 0; 1
    when a client's responses differ from a serial evaluation; 2 when
    [out] is unreadable. *)
