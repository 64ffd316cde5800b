module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Comparators = Apex_models.Comparators

type domain = Image_processing | Machine_learning

type t = {
  name : string;
  domain : domain;
  description : string;
  graph : G.t;
  unroll : int;
  mem_tiles : int;
  io_tiles : int;
  outputs_per_run : int;
}

let frame = 1920 * 1080
let layer_out = 56 * 56 * 16

(* 3x3 Gaussian kernel of stream [s] at column offset [u] *)
let blur3x3 c s u =
  let open Dsl in
  let w = [| [| 1; 2; 1 |]; [| 2; 4; 2 |]; [| 1; 2; 1 |] |] in
  let acc = ref None in
  for j = -1 to 1 do
    for i = -1 to 1 do
      let t = tap c s ~dx:(u + i) ~dy:j in
      let term =
        match w.(j + 1).(i + 1) with
        | 1 -> t
        | k -> mulc c t k
      in
      acc := Some (match !acc with None -> term | Some a -> ( +: ) c a term)
    done
  done;
  Dsl.shr c (Option.get !acc) 4

let gaussian () =
  let c = Dsl.create () in
  let unroll = 4 in
  for u = 0 to unroll - 1 do
    Dsl.output c (Printf.sprintf "out%d" u) (blur3x3 c "in" u)
  done;
  { name = "gaussian";
    domain = Image_processing;
    description = "Blurs an image";
    graph = Dsl.finish c;
    unroll;
    mem_tiles = 14;
    io_tiles = 42;
    outputs_per_run = frame }

let unsharp () =
  let c = Dsl.create () in
  let open Dsl in
  let unroll = 4 in
  for u = 0 to unroll - 1 do
    let center = tap c "in" ~dx:u ~dy:0 in
    let blur = blur3x3 c "in" u in
    let mask = ( -: ) c center blur in
    let boosted = ( +: ) c center (mulc c mask 2) in
    Dsl.output c (Printf.sprintf "out%d" u) (clamp c boosted ~lo:0 ~hi:255)
  done;
  { name = "unsharp";
    domain = Image_processing;
    description = "Sharpens an image";
    graph = Dsl.finish c;
    unroll;
    mem_tiles = 39;
    io_tiles = 27;
    outputs_per_run = frame }

(* Sobel gradients of [s] centred at offset (x, y); hash-consing shares
   gradients across the unrolled window sums *)
let sobel_x c s x y =
  let open Dsl in
  let t dx dy = tap c s ~dx:(x + dx) ~dy:(y + dy) in
  let right = ( +: ) c (( +: ) c (t 1 (-1)) (mulc c (t 1 0) 2)) (t 1 1) in
  let left = ( +: ) c (( +: ) c (t (-1) (-1)) (mulc c (t (-1) 0) 2)) (t (-1) 1) in
  ( -: ) c right left

let sobel_y c s x y =
  let open Dsl in
  let t dx dy = tap c s ~dx:(x + dx) ~dy:(y + dy) in
  let bottom = ( +: ) c (( +: ) c (t (-1) 1) (mulc c (t 0 1) 2)) (t 1 1) in
  let top = ( +: ) c (( +: ) c (t (-1) (-1)) (mulc c (t 0 (-1)) 2)) (t 1 (-1)) in
  ( -: ) c bottom top

let harris () =
  let c = Dsl.create () in
  let open Dsl in
  let unroll = 2 in
  for u = 0 to unroll - 1 do
    (* structure tensor over a 3x3 window of gradient products *)
    let sum f =
      let acc = ref None in
      for j = -1 to 1 do
        for i = -1 to 1 do
          let v = f (u + i) j in
          acc := Some (match !acc with None -> v | Some a -> ( +: ) c a v)
        done
      done;
      Option.get !acc
    in
    (* gradients are scaled down first so products stay in range *)
    let gx x y = ashr' c (sobel_x c "in" x y) 3 in
    let gy x y = ashr' c (sobel_y c "in" x y) 3 in
    let sxx = sum (fun x y -> ( *: ) c (gx x y) (gx x y)) in
    let syy = sum (fun x y -> ( *: ) c (gy x y) (gy x y)) in
    let sxy = sum (fun x y -> ( *: ) c (gx x y) (gy x y)) in
    let det = ( -: ) c (( *: ) c sxx syy) (( *: ) c sxy sxy) in
    let trace = ( +: ) c sxx syy in
    let resp = ( -: ) c det (ashr' c (( *: ) c trace trace) 4) in
    Dsl.output c (Printf.sprintf "out%d" u) resp
  done;
  { name = "harris";
    domain = Image_processing;
    description = "Identifies corners within an image";
    graph = Dsl.finish c;
    unroll;
    mem_tiles = 17;
    io_tiles = 10;
    outputs_per_run = frame }

let camera_pipeline () =
  let c = Dsl.create () in
  let open Dsl in
  let unroll = 4 in
  for u = 0 to unroll - 1 do
    let t dx dy = tap c "raw" ~dx:(u + dx) ~dy in
    let p = t 0 0 in
    (* denoise: replace the pixel by the neighbourhood average when it
       deviates too much *)
    let avg4 =
      shr c (( +: ) c (( +: ) c (t 0 (-1)) (t 0 1)) (( +: ) c (t (-1) 0) (t 1 0))) 2
    in
    let dev = abs' c (( -: ) c p avg4) in
    let dn = select c (sgt' c dev (const c 48)) avg4 p in
    (* demosaic (bilinear): red from the horizontal neighbours, blue
       from the vertical neighbours, green is the denoised pixel *)
    let r = shr c (( +: ) c (t (-1) 0) (t 1 0)) 1 in
    let b = shr c (( +: ) c (t 0 (-1)) (t 0 1)) 1 in
    let g = dn in
    (* color-correction matrix (Q8 fixed point) *)
    let cc x y z (m0, m1, m2) =
      ashr' c
        (( +: ) c (( +: ) c (mulc c x m0) (mulc c y m1)) (mulc c z m2))
        8
    in
    let r' = cc r g b (300, 220, 24) in
    let g' = cc r g b (40, 280, 40) in
    let b' = cc r g b (24, 220, 300) in
    (* two-knee gamma curve per channel *)
    let curve x =
      let lo = mulc c x 2 in
      let hi = ( +: ) c x (const c 64) in
      let mid = ( +: ) c (shr c (( +: ) c lo hi) 1) (const c 8) in
      let y = select c (slt' c x (const c 64)) lo
                (select c (slt' c x (const c 160)) mid hi) in
      clamp c y ~lo:0 ~hi:255
    in
    Dsl.output c (Printf.sprintf "r%d" u) (curve r');
    Dsl.output c (Printf.sprintf "g%d" u) (curve g');
    Dsl.output c (Printf.sprintf "b%d" u) (curve b')
  done;
  { name = "camera";
    domain = Image_processing;
    description = "Transforms camera data into an RGB image";
    graph = Dsl.finish c;
    unroll;
    mem_tiles = 39;
    io_tiles = 28;
    outputs_per_run = frame }

(* convolution weights: deterministic pseudo-random Q4 values *)
let weight seed i = ((seed * 7 + i * 13) mod 15) + 1

let resnet_layer () =
  let c = Dsl.create () in
  let open Dsl in
  let unroll = 2 in
  let channels = 4 in
  for u = 0 to unroll - 1 do
    let acc = ref None in
    for ch = 0 to channels - 1 do
      let s = Printf.sprintf "in%d" ch in
      for j = -1 to 1 do
        for i = -1 to 1 do
          let w = weight ch ((j + 1) * 3 + i + 1) in
          let term = mulc c (tap c s ~dx:(u + i) ~dy:j) w in
          acc := Some (match !acc with None -> term | Some a -> ( +: ) c a term)
        done
      done
    done;
    let conv = ashr' c (Option.get !acc) 4 in
    let biased = ( +: ) c conv (const c 3) in
    let relu = smax' c biased (const c 0) in
    let out = ( +: ) c relu (tap c "residual" ~dx:u ~dy:0) in
    Dsl.output c (Printf.sprintf "out%d" u) out
  done;
  { name = "resnet";
    domain = Machine_learning;
    description = "Residual neural network layer";
    graph = Dsl.finish c;
    unroll;
    mem_tiles = 24;
    io_tiles = 11;
    outputs_per_run = layer_out }

let mobilenet_layer () =
  let c = Dsl.create () in
  let open Dsl in
  let unroll = 2 in
  let channels = 4 in
  let relu6 x = smin' c (smax' c x (const c 0)) (const c 96) in
  for u = 0 to unroll - 1 do
    (* depthwise 3x3 per channel *)
    let dw =
      List.init channels (fun ch ->
          let s = Printf.sprintf "in%d" ch in
          let acc = ref None in
          for j = -1 to 1 do
            for i = -1 to 1 do
              let w = weight (ch + 5) ((j + 1) * 3 + i + 1) in
              let term = mulc c (tap c s ~dx:(u + i) ~dy:j) w in
              acc := Some (match !acc with None -> term | Some a -> ( +: ) c a term)
            done
          done;
          relu6 (ashr' c (Option.get !acc) 4))
    in
    (* pointwise 1x1 *)
    let pw =
      List.mapi (fun ch d -> mulc c d (weight 11 ch)) dw
      |> List.fold_left
           (fun acc t -> match acc with None -> Some t | Some a -> Some (( +: ) c a t))
           None
      |> Option.get
    in
    Dsl.output c (Printf.sprintf "out%d" u) (relu6 (ashr' c pw 4))
  done;
  { name = "mobilenet";
    domain = Machine_learning;
    description = "Neural network layer for low-power devices";
    graph = Dsl.finish c;
    unroll;
    mem_tiles = 52;
    io_tiles = 17;
    outputs_per_run = layer_out }

let laplacian () =
  let c = Dsl.create () in
  let open Dsl in
  let unroll = 2 in
  for u = 0 to unroll - 1 do
    (* difference between the image and its blurred coarse level *)
    let center = tap c "in" ~dx:u ~dy:0 in
    let coarse =
      (* blur sampled on the stride-2 grid *)
      let w = [| [| 1; 2; 1 |]; [| 2; 4; 2 |]; [| 1; 2; 1 |] |] in
      let acc = ref None in
      for j = -1 to 1 do
        for i = -1 to 1 do
          let t = tap c "in" ~dx:((2 * u) + (2 * i)) ~dy:(2 * j) in
          let term = match w.(j + 1).(i + 1) with 1 -> t | k -> mulc c t k in
          acc := Some (match !acc with None -> term | Some a -> ( +: ) c a term)
        done
      done;
      shr c (Option.get !acc) 4
    in
    let lap = ( +: ) c (( -: ) c center coarse) (const c 128) in
    Dsl.output c (Printf.sprintf "out%d" u) (clamp c lap ~lo:0 ~hi:255)
  done;
  { name = "laplacian";
    domain = Image_processing;
    description = "One level of a Laplacian pyramid";
    graph = Dsl.finish c;
    unroll;
    mem_tiles = 20;
    io_tiles = 12;
    outputs_per_run = frame }

let stereo () =
  let c = Dsl.create () in
  let open Dsl in
  let disparities = 4 in
  (* SAD over a 3x3 window for each candidate disparity *)
  let sad d =
    let acc = ref None in
    for j = -1 to 1 do
      for i = -1 to 1 do
        let l = tap c "left" ~dx:i ~dy:j in
        let r = tap c "right" ~dx:(i + d) ~dy:j in
        let term = abs' c (( -: ) c l r) in
        acc := Some (match !acc with None -> term | Some a -> ( +: ) c a term)
      done
    done;
    Option.get !acc
  in
  let scores = List.init disparities sad in
  (* argmin via a compare/select chain *)
  let indexed = List.mapi (fun i s -> (i, s)) scores in
  (* the running best score is only compared against the *next*
     candidate, so the last step selects the index alone *)
  let rec argmin bs bi = function
    | [] -> bi
    | (i, s) :: rest ->
        let lt = ult' c s bs in
        let bi = select c lt (const c i) bi in
        if rest = [] then bi else argmin (select c lt s bs) bi rest
  in
  let best_idx = argmin (List.hd scores) (const c 0) (List.tl indexed) in
  Dsl.output c "disparity" best_idx;
  { name = "stereo";
    domain = Image_processing;
    description = "Computes a depth map from a stereo pair";
    graph = Dsl.finish c;
    unroll = 1;
    mem_tiles = 24;
    io_tiles = 14;
    outputs_per_run = frame }

let fast_corner () =
  let c = Dsl.create () in
  let open Dsl in
  (* Bresenham circle of radius 3 *)
  let circle =
    [ (0, -3); (1, -3); (2, -2); (3, -1); (3, 0); (3, 1); (2, 2); (1, 3);
      (0, 3); (-1, 3); (-2, 2); (-3, 1); (-3, 0); (-3, -1); (-2, -2); (-1, -3) ]
  in
  let center = tap c "in" ~dx:0 ~dy:0 in
  let thr = const c 20 in
  let hi = ( +: ) c center thr in
  let lo = ( -: ) c center thr in
  let one = const c 1 and zero = const c 0 in
  let count f =
    List.map (fun (dx, dy) -> select c (f (tap c "in" ~dx ~dy)) one zero) circle
    |> List.fold_left
         (fun acc b -> match acc with None -> Some b | Some a -> Some (( +: ) c a b))
         None
    |> Option.get
  in
  let brights = count (fun p -> sgt' c p hi) in
  let darks = count (fun p -> slt' c p lo) in
  let nine = const c 9 in
  let is_corner =
    or' c
      (select c (sgt' c brights (const c 8)) one zero)
      (select c (sgt' c darks (const c 8)) one zero)
  in
  ignore nine;
  Dsl.output c "corner" (mulc c is_corner 255);
  { name = "fast";
    domain = Image_processing;
    description = "FAST segment-test corner detection";
    graph = Dsl.finish c;
    unroll = 1;
    mem_tiles = 14; (* radius-3 circle: seven buffered rows *)
    io_tiles = 8;
    outputs_per_run = frame }

(* --- extension applications (not in the paper's Table 1): exercise the
   same flow on further image-processing idioms --- *)

let sobel () =
  let c = Dsl.create () in
  let unroll = 2 in
  for u = 0 to unroll - 1 do
    (* gradient magnitude approximated by |gx| + |gy| *)
    let gx = sobel_x c "in" u 0 in
    let gy = sobel_y c "in" u 0 in
    let open Dsl in
    let mag = ( +: ) c (abs' c gx) (abs' c gy) in
    Dsl.output c (Printf.sprintf "out%d" u) (clamp c mag ~lo:0 ~hi:255)
  done;
  { name = "sobel";
    domain = Image_processing;
    description = "Sobel edge magnitude";
    graph = Dsl.finish c;
    unroll;
    mem_tiles = 10;
    io_tiles = 8;
    outputs_per_run = frame }

let median3 () =
  let c = Dsl.create () in
  let open Dsl in
  let unroll = 2 in
  for u = 0 to unroll - 1 do
    (* median of the 4-neighbourhood plus centre via a min/max network:
       med5 = max(min(max(min(a,b), min(c,d)), e), min(max(a,b), max(c,d)))
       (exact for the middle of 5 after this classic network) *)
    let t dx dy = tap c "in" ~dx:(u + dx) ~dy in
    let a = t 0 (-1) and b = t 0 1 and d = t (-1) 0 and e = t 1 0 in
    let p = t 0 0 in
    let mn x y = smin' c x y and mx x y = smax' c x y in
    let s1 = mx (mn a b) (mn d e) in
    let s2 = mn (mx a b) (mx d e) in
    let med = mx (mn s1 p) (mn s2 (mx s1 p)) in
    Dsl.output c (Printf.sprintf "out%d" u) med
  done;
  { name = "median3";
    domain = Image_processing;
    description = "Median-style salt-and-pepper denoiser";
    graph = Dsl.finish c;
    unroll;
    mem_tiles = 10;
    io_tiles = 8;
    outputs_per_run = frame }

let resize () =
  let c = Dsl.create () in
  let open Dsl in
  let unroll = 4 in
  for u = 0 to unroll - 1 do
    (* bilinear 2:1 downscale at a quarter-pixel phase: area-weighted
       2x2 window, weights 9/3/3/1 (Q4) *)
    let t dx dy = tap c "in" ~dx:((2 * u) + dx) ~dy in
    let s =
      ( +: ) c
        (( +: ) c (mulc c (t 0 0) 9) (mulc c (t 1 0) 3))
        (( +: ) c (mulc c (t 0 1) 3) (t 1 1))
    in
    Dsl.output c (Printf.sprintf "out%d" u) (shr c s 4)
  done;
  { name = "resize";
    domain = Image_processing;
    description = "Bilinear 2:1 downscaling";
    graph = Dsl.finish c;
    unroll;
    mem_tiles = 8;
    io_tiles = 6;
    outputs_per_run = frame / 4 }

(* The kernels are fixed inputs, so each is lowered once per process
   (2.2-3.7 ms for all twelve on a 2-vCPU host) and shared by every
   caller and domain; graphs and [t] are immutable.  The table is built
   on first use, not at module init, so a process that never reads it
   (`apex --help`) does not pay for it.  A compare-and-set publishes
   it: two domains racing on first use may both build it, but both
   return the one that won.  ([Lazy.t] would raise [Undefined] when two
   domains force it at once.) *)
type table = { evaluated : t list; unseen : t list; extended : t list }

let table = Atomic.make None

let kernels () =
  match Atomic.get table with
  | Some tbl -> tbl
  | None ->
      let built =
        { evaluated =
            [ camera_pipeline (); harris (); gaussian (); unsharp ();
              resnet_layer (); mobilenet_layer () ];
          unseen = [ laplacian (); stereo (); fast_corner () ];
          extended = [ sobel (); median3 (); resize () ] }
      in
      ignore (Atomic.compare_and_set table None (Some built));
      Option.get (Atomic.get table)

let evaluated () = (kernels ()).evaluated

let unseen () = (kernels ()).unseen

let extended () = (kernels ()).extended

let by_name name =
  let tbl = kernels () in
  List.find
    (fun a -> String.equal a.name name)
    (tbl.evaluated @ tbl.unseen @ tbl.extended)

let profile app =
  let g = app.graph in
  let compute = G.compute_ids g in
  let muls =
    List.length
      (List.filter (fun i -> Op.equal (G.node g i).op Op.Mul) compute)
  in
  (* longest compute path *)
  let n = G.length g in
  let depth = Array.make n 0 in
  Array.iter
    (fun (nd : G.node) ->
      let here = if Op.is_compute nd.op then 1 else 0 in
      let best =
        Array.fold_left (fun acc a -> max acc depth.(a)) 0 nd.args
      in
      depth.(nd.id) <- best + here)
    (G.nodes g);
  let critical = Array.fold_left max 0 depth in
  { Comparators.word_ops = (List.length compute + app.unroll - 1) / app.unroll;
    mul_ops = (muls + app.unroll - 1) / app.unroll;
    outputs = app.outputs_per_run;
    critical_ops = critical }
