(* Front-end robustness: arbitrary input must produce either a program
   or a positioned diagnostic — never an exception escaping the API,
   never a crash. *)

let arb_garbage =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 1 126)) (0 -- 400))

let no_crash src =
  match Frontend.Sema.compile ~file:"<fuzz>" src with
  | Ok prog -> Ir.Validate.run prog = Ok ()
  | Error errs -> errs <> []

let no_crash_expr src =
  match Frontend.Parser.parse_expr src with
  | Ok _ | Error _ -> true

let prop_roundtrip_accepted_soup src =
  (* Anything the front end accepts must validate, print, and reparse
     to the same text. *)
  match Frontend.Sema.compile ~file:"<fuzz>" src with
  | Error _ -> true
  | Ok prog ->
    let s1 = Ir.Pp.to_string prog in
    (match Frontend.Sema.compile ~file:"<fuzz2>" s1 with
    | Error _ -> false
    | Ok p2 -> String.equal s1 (Ir.Pp.to_string p2))

let () =
  Helpers.run "fuzz"
    [
      ( "frontend",
        [
          Helpers.qtest ~count:500 "raw bytes never crash" arb_garbage no_crash;
          Helpers.qtest ~count:500 "token soup never crashes" Helpers.arb_token_soup no_crash;
          Helpers.qtest ~count:500 "expressions never crash" arb_garbage no_crash_expr;
          Helpers.qtest ~count:500 "accepted soup round-trips" Helpers.arb_token_soup
            prop_roundtrip_accepted_soup;
        ] );
    ]
