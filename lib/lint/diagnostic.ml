type severity =
  | Note
  | Warning
  | Error

let severity_to_string = function
  | Note -> "note"
  | Warning -> "warning"
  | Error -> "error"

let severity_of_string = function
  | "note" -> Some Note
  | "warning" -> Some Warning
  | "error" -> Some Error
  | _ -> None

let severity_order = function
  | Note -> 0
  | Warning -> 1
  | Error -> 2

type t = {
  code : string;
  rule : string;
  severity : severity;
  loc : Frontend.Loc.t;
  scope : string;
  message : string;
  hint : string option;
  witness : string list Lazy.t;
}

let no_witness = Lazy.from_val []

let compare a b =
  Stdlib.compare
    ( a.loc.Frontend.Loc.file,
      a.loc.Frontend.Loc.line,
      a.loc.Frontend.Loc.col,
      a.code,
      a.scope,
      a.message )
    ( b.loc.Frontend.Loc.file,
      b.loc.Frontend.Loc.line,
      b.loc.Frontend.Loc.col,
      b.code,
      b.scope,
      b.message )

let key d = (d.code, d.scope, d.message)

let equal a b =
  a.code = b.code && a.rule = b.rule && a.severity = b.severity
  && a.loc = b.loc && a.scope = b.scope && a.message = b.message
  && a.hint = b.hint
  && Lazy.force a.witness = Lazy.force b.witness

let matches ~code ~filter d =
  let has hay sub =
    let n = String.length sub and m = String.length hay in
    let rec go i = i + n <= m && (String.sub hay i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  d.code = code
  &&
  match filter with
  | None -> true
  | Some sub -> has d.scope sub || has d.message sub

let fact d =
  ( Printf.sprintf "diag:%s:%s" d.code d.scope,
    match Lazy.force d.witness with [] -> None | w -> Some w )

let pp ppf d =
  if d.loc = Frontend.Loc.dummy then
    Format.fprintf ppf "%s[%s] %s: %s"
      (severity_to_string d.severity)
      d.code d.scope d.message
  else
    Format.fprintf ppf "%a: %s[%s] %s: %s" Frontend.Loc.pp d.loc
      (severity_to_string d.severity)
      d.code d.scope d.message;
  (match d.hint with
  | None -> ()
  | Some h -> Format.fprintf ppf "@,    hint: %s" h);
  match Lazy.force d.witness with
  | [] -> ()
  | lines ->
    Format.fprintf ppf "@,    witness:";
    List.iter (fun l -> Format.fprintf ppf "@,      %s" l) lines

let to_json d =
  Obs.Json.Obj
    [
      ("code", Obs.Json.String d.code);
      ("rule", Obs.Json.String d.rule);
      ("severity", Obs.Json.String (severity_to_string d.severity));
      ("file", Obs.Json.String d.loc.Frontend.Loc.file);
      ("line", Obs.Json.Int d.loc.Frontend.Loc.line);
      ("col", Obs.Json.Int d.loc.Frontend.Loc.col);
      ("scope", Obs.Json.String d.scope);
      ("message", Obs.Json.String d.message);
      ( "hint",
        match d.hint with
        | None -> Obs.Json.Null
        | Some h -> Obs.Json.String h );
      ( "witness",
        Obs.Json.List
          (List.map (fun l -> Obs.Json.String l) (Lazy.force d.witness)) );
    ]
