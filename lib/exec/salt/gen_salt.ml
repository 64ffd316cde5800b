(* Prints the store's build salt as an OCaml module: one digest over
   the paths and contents of the files named on the command line, in
   sorted order, so the same sources give the same salt on any host. *)

let () =
  let files = List.sort compare (List.tl (Array.to_list Sys.argv)) in
  let each f = f ^ "\000" ^ Digest.to_hex (Digest.file f) in
  Printf.printf "let digest = %S\n"
    (Digest.to_hex (Digest.string (String.concat "\n" (List.map each files))))
