let timed reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let write_json file fields =
  let kept =
    match Obs.Json.parse (In_channel.with_open_bin file In_channel.input_all) with
    | Ok (Obs.Json.Obj kv) ->
      List.filter (fun (k, _) -> not (List.mem_assoc k fields)) kv
    | Ok _ | Error _ | (exception Sys_error _) -> []
  in
  let oc = open_out file in
  output_string oc (Obs.Json.to_string (Obs.Json.Obj (fields @ kept)));
  output_char oc '\n';
  close_out oc;
  Printf.printf "   (table written to %s)\n" file
