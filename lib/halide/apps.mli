(** The application suite (Table 1) plus the three unseen applications
    of Section 5.2 (Laplacian pyramid, stereo, FAST corner detection).

    Every application is written in the mini-Halide DSL and lowered to
    an unrolled per-output compute kernel: the graph computes [unroll]
    adjacent output elements per firing, as the paper does (camera
    pipeline computes 4 output pixels in parallel, Section 5.1).

    The kernels are fixed inputs: {!evaluated}, {!unseen}, {!extended}
    and {!by_name} read one table, lowered on first use and shared by
    every caller and domain for the life of the process, so repeated
    calls return physically equal values.  Callers must not mutate a
    shared graph's node arrays.  The per-application constructors
    ({!camera_pipeline}, ...) lower a fresh copy on every call. *)

type domain = Image_processing | Machine_learning

type t = {
  name : string;
  domain : domain;
  description : string;
  graph : Apex_dfg.Graph.t;   (** unrolled compute kernel *)
  unroll : int;               (** output elements per firing *)
  mem_tiles : int;            (** line buffers / weight buffers the app
                                  needs on the fabric (Table 3 #MEM) *)
  io_tiles : int;             (** stream I/O tiles (Table 3 #IO) *)
  outputs_per_run : int;      (** output elements per frame / layer *)
}

val camera_pipeline : unit -> t
(** Denoise, demosaic, color-correct and gamma-curve raw sensor data. *)

val harris : unit -> t
(** Harris corner response: Sobel gradients, structure tensor, det/trace. *)

val gaussian : unit -> t
(** 3x3 Gaussian blur. *)

val unsharp : unit -> t
(** Unsharp masking: original plus amplified blur residual. *)

val resnet_layer : unit -> t
(** One 3x3 convolution layer with bias, ReLU and residual add. *)

val mobilenet_layer : unit -> t
(** Depthwise 3x3 + pointwise 1x1 convolution with ReLU6. *)

val laplacian : unit -> t
(** One Laplacian-pyramid level (unseen during PE-IP analysis). *)

val stereo : unit -> t
(** Block-matching disparity by SAD over candidate shifts (unseen). *)

val fast_corner : unit -> t
(** FAST segment-test corner detection (unseen). *)

val evaluated : unit -> t list
(** The six applications of Table 1, in table order. *)

val unseen : unit -> t list
(** The three applications used only for the generalization experiment. *)

val sobel : unit -> t
val median3 : unit -> t
val resize : unit -> t

val extended : unit -> t list
(** Extra applications beyond the paper's suite (Sobel edge magnitude,
    a median-network denoiser, bilinear downscaling) — extension
    workloads for the same flow. *)

val by_name : string -> t
(** @raise Not_found for unknown names. *)

val profile : t -> Apex_models.Comparators.app_profile
(** Derive the analytic-model profile (op counts, multiplies, critical
    path length) from the application graph. *)
