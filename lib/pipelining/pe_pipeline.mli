(** Automated PE pipelining (Section 4.2).

    A static-timing model over the PE datapath decides how many pipeline
    stages the PE needs to meet the target clock (~1.1 ns), and a
    DAG-retiming pass places the stage boundaries: nodes are levelled
    ASAP under a candidate period (found by binary search), and every
    edge crossing a level boundary receives pipeline registers [14, 8].
    Stages are added while each extra stage still buys a significant
    period reduction. *)

type plan = {
  stages : int;           (** pipeline latency in cycles (1 = combinational) *)
  period_ps : float;      (** achieved clock period *)
  regs_inserted : int;    (** 16-bit pipeline registers added *)
  reg_area : float;       (** um^2 of those registers *)
  reg_energy : float;     (** fJ per operation *)
}

val node_delay : Apex_merging.Datapath.t -> int -> float
(** Worst-case combinational delay contributed by one datapath node
    (FU delay over its supported ops plus its input muxes). *)

val min_period : Apex_merging.Datapath.t -> stages:int -> float * int
(** Best achievable period with the given number of stages, and the
    number of pipeline registers the levelling inserts. *)

val plan : ?target_ps:float -> Apex_merging.Datapath.t -> plan
(** Iteratively add stages until the target period
    (default {!Apex_models.Tech.clock_period_ps}) is met or an extra
    stage improves the period by less than 10%. *)

val assign_stages :
  Apex_merging.Datapath.t -> period_ps:float -> stages:int -> int array option
(** The ASAP stage of every datapath node under the given period, or
    [None] when the period is infeasible with that many stages.  Feeds
    pipelined RTL emission: an edge crossing [k] stage boundaries gets
    [k] pipeline registers. *)

val rtl_stages : Apex_merging.Datapath.t -> int array option
(** {!assign_stages} at the stage count and period {!plan} picks, or
    [None] for a single-stage PE: the stages both the PE RTL and the
    fabric RTL emit, matching the latency the application plan assumes. *)
