(* Re-exported from the simulator, which tags every charge with one. *)
include Fbufs_sim.Component
