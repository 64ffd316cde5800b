(* Tests for the mini-Halide DSL and the application suite. *)

module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Interp = Apex_dfg.Interp
module Dsl = Apex_halide.Dsl
module Apps = Apex_halide.Apps

let check = Alcotest.check
let int = Alcotest.int

let all_apps () = Apps.evaluated () @ Apps.unseen () @ Apps.extended ()

(* constant input environment: every input pixel = v *)
let flat_env g v =
  G.io_inputs g
  |> List.map (fun (n : G.node) ->
         match n.op with
         | Op.Input name -> (name, v)
         | Op.Bit_input name -> (name, 0)
         | _ -> assert false)

(* --- DSL --- *)

let test_dsl_cse () =
  let c = Dsl.create () in
  let a = Dsl.tap c "in" ~dx:0 ~dy:0 in
  let b = Dsl.tap c "in" ~dx:0 ~dy:0 in
  let s1 = Dsl.( +: ) c a b in
  let s2 = Dsl.( +: ) c a b in
  Dsl.output c "o1" s1;
  Dsl.output c "o2" s2;
  let g = Dsl.finish c in
  (* one input, one add, two outputs *)
  check int "nodes" 4 (G.length g);
  check int "one add" 1 (List.length (G.compute_ids g))

let test_dsl_clamp () =
  let c = Dsl.create () in
  let x = Dsl.input c "x" in
  Dsl.output c "o" (Dsl.clamp c x ~lo:0 ~hi:255);
  let g = Dsl.finish c in
  let run v = List.assoc "o" (Interp.run g [ ("x", v) ]) in
  check int "clamps high" 255 (run 300);
  check int "passes" 77 (run 77);
  check int "clamps low" 0 (run 0xFF00 (* -256 *))

let test_dsl_select () =
  let c = Dsl.create () in
  let x = Dsl.input c "x" in
  let cond = Dsl.slt' c x (Dsl.const c 10) in
  Dsl.output c "o" (Dsl.select c cond (Dsl.const c 1) (Dsl.const c 2));
  let g = Dsl.finish c in
  let run v = List.assoc "o" (Interp.run g [ ("x", v) ]) in
  check int "then" 1 (run 5);
  check int "else" 2 (run 50)

(* --- structural checks on every application --- *)

let test_all_apps_valid () =
  List.iter
    (fun (a : Apps.t) ->
      match G.validate a.graph with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s invalid: %s" a.name m)
    (all_apps ())

let test_app_sizes () =
  (* each app's kernel should be a real kernel, not a toy *)
  List.iter
    (fun (a : Apps.t) ->
      let n = List.length (G.compute_ids a.graph) in
      if n < 20 then Alcotest.failf "%s too small: %d compute nodes" a.name n;
      if n > 2000 then Alcotest.failf "%s too large: %d compute nodes" a.name n)
    (all_apps ())

let test_camera_is_largest_ip () =
  let size name = List.length (G.compute_ids (Apps.by_name name).graph) in
  Alcotest.(check bool) "camera > gaussian" true (size "camera" > size "gaussian");
  Alcotest.(check bool) "camera ~90 ops/pixel" true
    (let a = Apps.by_name "camera" in
     let per_pixel = List.length (G.compute_ids a.graph) / a.unroll in
     per_pixel >= 40 && per_pixel <= 150)

let test_ml_apps_mul_heavy () =
  List.iter
    (fun name ->
      let a = Apps.by_name name in
      let p = Apps.profile a in
      Alcotest.(check bool)
        (name ^ " is MAC heavy")
        true
        (float_of_int p.mul_ops >= 0.3 *. float_of_int p.word_ops))
    [ "resnet"; "mobilenet" ]

let test_by_name_and_lists () =
  check int "evaluated" 6 (List.length (Apps.evaluated ()));
  check int "unseen" 3 (List.length (Apps.unseen ()));
  check int "extended" 3 (List.length (Apps.extended ()));
  Alcotest.check_raises "unknown app" Not_found (fun () ->
      ignore (Apps.by_name "nonexistent"))

(* The kernels are lowered once per process and shared: this runs
   before any other case reads the table, so the two domains race on
   its first use, and both must get the one value every later call
   returns. *)
let test_kernel_table_shared () =
  let go = Atomic.make false in
  let reader () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    (Apps.by_name "camera", Apps.evaluated ())
  in
  let d1 = Domain.spawn reader and d2 = Domain.spawn reader in
  Atomic.set go true;
  let camera1, evaluated1 = Domain.join d1 in
  let camera2, evaluated2 = Domain.join d2 in
  let same = Alcotest.(check bool) in
  same "raced by_name" true (camera1 == camera2);
  same "raced evaluated" true (evaluated1 == evaluated2);
  same "a later by_name" true (Apps.by_name "camera" == camera1);
  List.iter
    (fun (a : Apps.t) ->
      same (a.name ^ ": by_name is the table's value") true
        (Apps.by_name a.name == a))
    (all_apps ());
  same "unseen" true (Apps.unseen () == Apps.unseen ());
  same "extended" true (Apps.extended () == Apps.extended ())

(* --- functional sanity via the golden interpreter --- *)

let test_gaussian_flat () =
  (* blur of a flat image is the same flat value (kernel sums to 16) *)
  let a = Apps.by_name "gaussian" in
  let out = Interp.run a.graph (flat_env a.graph 100) in
  List.iter (fun (_, v) -> check int "flat blur" 100 v) out

let test_gaussian_impulse () =
  (* center weight is 4/16 *)
  let a = Apps.by_name "gaussian" in
  let env =
    flat_env a.graph 0
    |> List.map (fun (n, v) -> if n = "in@0,0" then (n, 16) else (n, v))
  in
  let out = Interp.run a.graph env in
  check int "impulse response" 4 (List.assoc "out0" out)

let test_unsharp_flat () =
  (* no detail: unsharp returns the original *)
  let a = Apps.by_name "unsharp" in
  let out = Interp.run a.graph (flat_env a.graph 90) in
  List.iter (fun (_, v) -> check int "flat unsharp" 90 v) out

let test_harris_flat_zero () =
  (* no gradients anywhere: response is 0 *)
  let a = Apps.by_name "harris" in
  let out = Interp.run a.graph (flat_env a.graph 128) in
  List.iter (fun (_, v) -> check int "flat harris" 0 v) out

let test_camera_outputs_in_range () =
  let a = Apps.by_name "camera" in
  let st = Random.State.make [| 5 |] in
  for _ = 1 to 20 do
    let env =
      G.io_inputs a.graph
      |> List.map (fun (n : G.node) ->
             match n.op with
             | Op.Input name -> (name, Random.State.int st 256)
             | _ -> assert false)
    in
    Interp.run a.graph env
    |> List.iter (fun (name, v) ->
           if v > 255 then Alcotest.failf "camera %s out of range: %d" name v)
  done

let test_stereo_identical_images () =
  (* left = right (flat): disparity 0 wins because strict less keeps the
     first candidate *)
  let a = Apps.by_name "stereo" in
  let out = Interp.run a.graph (flat_env a.graph 42) in
  check int "zero disparity" 0 (List.assoc "disparity" out)

let test_stereo_finds_shift () =
  (* right image shifted by 2: disparity 2 has SAD 0 *)
  let a = Apps.by_name "stereo" in
  let pattern x = (x * 37 + 11) land 0xff in
  let env =
    G.io_inputs a.graph
    |> List.map (fun (n : G.node) ->
           match n.op with
           | Op.Input name -> (
               match String.split_on_char '@' name with
               | [ "left"; coord ] -> (
                   match String.split_on_char ',' coord with
                   | [ dx; _ ] -> (name, pattern (int_of_string dx))
                   | _ -> assert false)
               | [ "right"; coord ] -> (
                   match String.split_on_char ',' coord with
                   | [ dx; _ ] -> (name, pattern (int_of_string dx + 2))
                   | _ -> assert false)
               | _ -> assert false)
           | _ -> assert false)
  in
  (* right(i+d) where right(x) = left(x+2) means SAD(d=2)... the taps are
     right@(i+d); matching left@(i) requires pattern(i) = pattern(i+d+2)?
     With right(x) = pattern(x+2), SAD at d compares pattern(i) with
     pattern(i+d+2); zero when d+2 = 0, so instead shift left *)
  ignore env;
  let env2 =
    G.io_inputs a.graph
    |> List.map (fun (n : G.node) ->
           match n.op with
           | Op.Input name -> (
               match String.split_on_char '@' name with
               | [ "left"; coord ] -> (
                   match String.split_on_char ',' coord with
                   | [ dx; _ ] -> (name, pattern (int_of_string dx + 2))
                   | _ -> assert false)
               | [ "right"; coord ] -> (
                   match String.split_on_char ',' coord with
                   | [ dx; _ ] -> (name, pattern (int_of_string dx))
                   | _ -> assert false)
               | _ -> assert false)
           | _ -> assert false)
  in
  let out = Interp.run a.graph env2 in
  check int "disparity 2" 2 (List.assoc "disparity" out)

let test_fast_flat_no_corner () =
  let a = Apps.by_name "fast" in
  let out = Interp.run a.graph (flat_env a.graph 100) in
  check int "no corner" 0 (List.assoc "corner" out)

let test_fast_bright_center_corner () =
  (* dark center surrounded by bright circle: all 16 circle pixels are
     brighter than center + threshold -> corner *)
  let a = Apps.by_name "fast" in
  let env =
    G.io_inputs a.graph
    |> List.map (fun (n : G.node) ->
           match n.op with
           | Op.Input name -> (name, if name = "in@0,0" then 10 else 200)
           | _ -> assert false)
  in
  let out = Interp.run a.graph env in
  check int "corner detected" 255 (List.assoc "corner" out)

let test_resnet_relu () =
  (* with all-zero inputs and residual, output = relu(bias) + 0 = 3 *)
  let a = Apps.by_name "resnet" in
  let out = Interp.run a.graph (flat_env a.graph 0) in
  List.iter (fun (_, v) -> check int "bias through relu" 3 v) out

let test_mobilenet_relu6 () =
  (* big inputs saturate at the relu6 cap *)
  let a = Apps.by_name "mobilenet" in
  let out = Interp.run a.graph (flat_env a.graph 200) in
  List.iter
    (fun (_, v) ->
      Alcotest.(check bool) "capped" true (v <= 96))
    out

let test_sobel_flat () =
  (* flat image: no gradient, no edge *)
  let a = Apps.by_name "sobel" in
  let out = Interp.run a.graph (flat_env a.graph 77) in
  List.iter (fun (_, v) -> check int "flat sobel" 0 v) out

let test_median3_flat_and_spike () =
  let a = Apps.by_name "median3" in
  let out = Interp.run a.graph (flat_env a.graph 50) in
  List.iter (fun (_, v) -> check int "flat median" 50 v) out;
  (* a single hot pixel at the centre is rejected by the median *)
  let env =
    flat_env a.graph 50
    |> List.map (fun (n, v) -> if n = "in@0,0" then (n, 255) else (n, v))
  in
  check int "spike removed" 50 (List.assoc "out0" (Interp.run a.graph env))

let test_resize_average () =
  let a = Apps.by_name "resize" in
  (* flat image: weights sum to 16, so the value passes through *)
  let out = Interp.run a.graph (flat_env a.graph 60) in
  List.iter (fun (_, v) -> check int "flat resize" 60 v) out;
  (* weighting: corner pixel with weight 9/16 *)
  let env =
    flat_env a.graph 0
    |> List.map (fun (n, v) -> if n = "in@0,0" then (n, 16) else (n, v))
  in
  check int "weighted corner" 9 (List.assoc "out0" (Interp.run a.graph env))

let test_laplacian_flat () =
  (* flat image: residual 0 + 128 offset *)
  let a = Apps.by_name "laplacian" in
  let out = Interp.run a.graph (flat_env a.graph 50) in
  List.iter (fun (_, v) -> check int "flat laplacian" 128 v) out

(* --- line-buffer sizing --- *)

(* Lower bound on an app's memory tiles: every input stream buffers the
   rows its taps ["s@dx,dy"] span, at [width] 16-bit words a row,
   double-buffered into the two 2 KB banks of one tile. *)
let derived_mem_tiles ~width (a : Apps.t) =
  let rows = Hashtbl.create 4 in
  List.iter
    (fun (n : G.node) ->
      match n.op with
      | Op.Input name | Op.Bit_input name ->
          let stream, dy =
            match String.split_on_char '@' name with
            | [ s; c ] -> (s, int_of_string (List.nth (String.split_on_char ',' c) 1))
            | _ -> (name, 0)
          in
          let lo, hi = Option.value ~default:(dy, dy) (Hashtbl.find_opt rows stream) in
          Hashtbl.replace rows stream (min lo dy, max hi dy)
      | _ -> ())
    (G.io_inputs a.graph);
  let words = Hashtbl.fold (fun _ (lo, hi) acc -> acc + ((hi - lo + 1) * width)) rows 0 in
  max 1 (((2 * 2 * words) + 4095) / 4096)

let test_derived_mem_tiles_bound () =
  List.iter
    (fun (a : Apps.t) ->
      let width =
        match a.domain with Apps.Image_processing -> 1920 | Apps.Machine_learning -> 56
      in
      let derived = derived_mem_tiles ~width a in
      Alcotest.(check bool)
        (Printf.sprintf "%s: derived %d <= metadata %d" a.name derived a.mem_tiles)
        true (derived <= a.mem_tiles))
    (all_apps ())

(* --- profiles --- *)

let test_profiles_sane () =
  List.iter
    (fun (a : Apps.t) ->
      let p = Apps.profile a in
      Alcotest.(check bool) (a.name ^ " word ops > 0") true (p.word_ops > 0);
      Alcotest.(check bool) (a.name ^ " critical path > 2") true (p.critical_ops > 2);
      Alcotest.(check bool)
        (a.name ^ " critical <= ops")
        true
        (p.critical_ops <= p.word_ops);
      Alcotest.(check bool) (a.name ^ " outputs set") true (p.outputs > 1000))
    (all_apps ())

let () =
  Alcotest.run "halide"
    [ ( "dsl",
        [ Alcotest.test_case "hash consing" `Quick test_dsl_cse;
          Alcotest.test_case "clamp" `Quick test_dsl_clamp;
          Alcotest.test_case "select" `Quick test_dsl_select ] );
      ( "structure",
        [ Alcotest.test_case "kernel table shared" `Quick test_kernel_table_shared;
          Alcotest.test_case "all apps valid" `Quick test_all_apps_valid;
          Alcotest.test_case "kernel sizes" `Quick test_app_sizes;
          Alcotest.test_case "camera is largest IP" `Quick test_camera_is_largest_ip;
          Alcotest.test_case "ML apps MAC heavy" `Quick test_ml_apps_mul_heavy;
          Alcotest.test_case "registry" `Quick test_by_name_and_lists ] );
      ( "semantics",
        [ Alcotest.test_case "gaussian: flat" `Quick test_gaussian_flat;
          Alcotest.test_case "gaussian: impulse" `Quick test_gaussian_impulse;
          Alcotest.test_case "unsharp: flat" `Quick test_unsharp_flat;
          Alcotest.test_case "harris: flat" `Quick test_harris_flat_zero;
          Alcotest.test_case "camera: range" `Quick test_camera_outputs_in_range;
          Alcotest.test_case "stereo: identical" `Quick test_stereo_identical_images;
          Alcotest.test_case "stereo: shifted" `Quick test_stereo_finds_shift;
          Alcotest.test_case "fast: flat" `Quick test_fast_flat_no_corner;
          Alcotest.test_case "fast: corner" `Quick test_fast_bright_center_corner;
          Alcotest.test_case "resnet: relu bias" `Quick test_resnet_relu;
          Alcotest.test_case "mobilenet: relu6 cap" `Quick test_mobilenet_relu6;
          Alcotest.test_case "laplacian: flat" `Quick test_laplacian_flat;
          Alcotest.test_case "sobel: flat" `Quick test_sobel_flat;
          Alcotest.test_case "median3: flat and spike" `Quick test_median3_flat_and_spike;
          Alcotest.test_case "resize: average" `Quick test_resize_average ] );
      ( "linebuffer",
        [ Alcotest.test_case "derived mem tiles" `Quick test_derived_mem_tiles_bound ] );
      ("profiles", [ Alcotest.test_case "sane" `Quick test_profiles_sane ]) ]
