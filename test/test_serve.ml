(* The analysis server, tested at the wire: protocol totality under
   hostile bytes, structured errors for every bad request, and the
   central contract — after any interleaving of session edit scripts,
   every fact the server reports over the protocol is identical to a
   from-scratch [Core.Analyze.run] on a client-side mirror of the
   program.  A differential suite also drives the tracing interpreter
   against server-reported MOD(s)/USE(s) (the per-site projections of
   GMOD/GUSE), so the soundness statement survives the protocol
   encoder and decoder. *)

module Json = Obs.Json
module Protocol = Serve.Protocol
module Server = Serve.Server

(* --- decoding helpers: a response must be a {id, ok, ...} object --- *)

let parse_json line =
  match Json.parse line with
  | Ok j -> j
  | Error m -> Alcotest.failf "response is not JSON (%s): %s" m line

let member name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response missing %S: %s" name (Json.to_string j)

let str_list what = function
  | Json.List l ->
    List.map
      (function
        | Json.String s -> s
        | j -> Alcotest.failf "%s: not a string: %s" what (Json.to_string j))
      l
  | j -> Alcotest.failf "%s: not a list: %s" what (Json.to_string j)

let has_substring hay sub =
  let n = String.length sub and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = sub || go (i + 1)) in
  n = 0 || go 0

let send srv ~client req =
  Server.handle_line srv ~client (Protocol.to_line ~id:(Json.Int 1) req)

let send_ok srv ~client req =
  let line = send srv ~client req in
  let j = parse_json line in
  (match member "ok" j with
  | Json.Bool true -> ()
  | _ -> Alcotest.failf "expected ok:true, got: %s" line);
  member "result" j

let send_err srv ~client req =
  let j = parse_json (send srv ~client req) in
  match (member "ok" j, Json.member "error" j) with
  | Json.Bool false, Some (Json.String m) -> m
  | _ -> Alcotest.failf "expected ok:false, got: %s" (Json.to_string j)

let load srv ~client name prog =
  let source = Ir.Pp.to_string prog in
  ignore (send_ok srv ~client (Protocol.Load { program = name; source }))

(* Re-parse a program from its own pretty-printed text.  The server
   compiles the source it is sent, and compilation numbers variables
   and call sites by textual order — which the in-memory programs the
   workload generators build need not follow.  Tests that compare
   per-site or per-variable facts must speak the server's numbering,
   so they mirror the program exactly as the server sees it. *)
let normalize prog = Helpers.compile (Ir.Pp.to_string prog)

(* --- protocol round-trip --- *)

let hostile = "evil \"name\" \\with\\ \n newline \t tab \x01 ctrl \x7f del"

let sample_requests =
  [
    Protocol.Load { program = "p"; source = "program p; begin skip; end." };
    Protocol.Load { program = hostile; source = hostile };
    Protocol.Unload { program = "p" };
    Protocol.Query { program = "p"; session = ""; query = Protocol.Gmod { proc = "q" } };
    Protocol.Query
      { program = "p"; session = "s"; query = Protocol.Guse { proc = hostile } };
    Protocol.Query
      { program = "p"; session = ""; query = Protocol.Rmod { proc = "q"; var = "x" } };
    Protocol.Query
      { program = "p"; session = "s"; query = Protocol.Ruse { proc = "q"; var = "x" } };
    Protocol.Query { program = "p"; session = ""; query = Protocol.Alias { proc = "q" } };
    Protocol.Query { program = "p"; session = ""; query = Protocol.Purity { proc = "q" } };
    Protocol.Query { program = "p"; session = ""; query = Protocol.Mod_site { site = 3 } };
    Protocol.Query { program = "p"; session = ""; query = Protocol.Use_site { site = 0 } };
    Protocol.Query { program = "p"; session = "s"; query = Protocol.Lint_delta };
    Protocol.Query { program = "p"; session = ""; query = Protocol.Source };
    Protocol.Edit
      { program = "p"; session = ""; script = "add-assign q g = 7"; lint = true };
    Protocol.Edit { program = hostile; session = hostile; script = ""; lint = false };
    Protocol.Explain
      { program = "p"; session = ""; fact = Some "gmod q g"; all = false };
    Protocol.Explain { program = "p"; session = "s"; fact = None; all = true };
    Protocol.Stats;
    Protocol.Shutdown;
  ]

let test_protocol_roundtrip () =
  List.iteri
    (fun i req ->
      let id = Json.Int i in
      let line = Protocol.to_line ~id req in
      let inc = Protocol.parse line in
      if inc.Protocol.id <> id then
        Alcotest.failf "request %d: id not recovered from %s" i line;
      match inc.Protocol.request with
      | Ok req' when req' = req -> ()
      | Ok _ -> Alcotest.failf "request %d: parsed to a different request: %s" i line
      | Error m -> Alcotest.failf "request %d: did not parse (%s): %s" i m line)
    sample_requests

let test_protocol_malformed () =
  let cases =
    [
      ("", false);
      ("   ", false);
      ("nonsense", false);
      ("[1, 2, 3]", false);
      ("42", false);
      ("{}", true);
      ({|{"op": 42}|}, true);
      ({|{"op": "frobnicate"}|}, true);
      ({|{"op": "load"}|}, true);
      ({|{"op": "load", "program": "p"}|}, true);
      ({|{"op": "query", "program": "p"}|}, true);
      ({|{"op": "query", "program": 7, "query": "gmod", "proc": "q"}|}, true);
      ({|{"op": "edit", "program": "p"}|}, true);
      ({|{"op": "explain", "program": "p"}|}, true);
      ({|{"op": "explain", "program": "p", "fact": "gmod q g", "all": true}|}, true);
    ]
  in
  List.iter
    (fun (line, is_obj) ->
      let inc = Protocol.parse line in
      (match inc.Protocol.request with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed line: %s" line);
      (* id recovery only makes sense for objects; either way parse is
         total and the id defaults to Null. *)
      if (not is_obj) && inc.Protocol.id <> Json.Null then
        Alcotest.failf "non-object line recovered an id: %s" line)
    cases;
  (* The id is recovered even when the request is rejected. *)
  let inc = Protocol.parse {|{"id": 42, "op": "frobnicate"}|} in
  Alcotest.(check bool) "id recovered" true (inc.Protocol.id = Json.Int 42)

let test_op_class () =
  let check req cls = Alcotest.(check string) cls cls (Protocol.op_class (Ok req)) in
  check (List.nth sample_requests 0) "load";
  check (List.nth sample_requests 3) "query.gmod";
  check (List.nth sample_requests 12) "query.source";
  check (List.nth sample_requests 13) "edit";
  check (List.nth sample_requests 15) "explain";
  check Protocol.Stats "stats";
  check Protocol.Shutdown "shutdown";
  Alcotest.(check string) "invalid" "invalid" (Protocol.op_class (Error "x"))

(* --- protocol fuzz: the server answers every line, never dies --- *)

let fuzz_server = lazy (Server.create ())

(* Any response must itself parse as a {id, ok} envelope. *)
let well_formed_response line =
  match Json.parse line with
  | Error _ -> false
  | Ok j -> (
    match (Json.member "id" j, Json.member "ok" j) with
    | Some _, Some (Json.Bool true) -> Json.member "result" j <> None
    | Some _, Some (Json.Bool false) -> (
      match Json.member "error" j with Some (Json.String _) -> true | _ -> false)
    | _ -> false)

let prop_server_answers line =
  let srv = Lazy.force fuzz_server in
  let resp = Server.handle_line srv ~client:99 line in
  well_formed_response resp
  (* ... and the server is still serving afterwards. *)
  && well_formed_response (Server.handle_line srv ~client:99 {|{"op": "stats"}|})

let arb_garbage =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 1 126)) (0 -- 300))

(* JSON-shaped soup reaches deeper parser and dispatch states than raw
   bytes: well-bracketed noise with op-like keys and hostile values. *)
let json_fragments =
  [|
    "{"; "}"; "["; "]"; ":"; ","; "\"op\""; "\"id\""; "\"program\""; "\"query\"";
    "\"session\""; "\"proc\""; "\"var\""; "\"site\""; "\"script\""; "\"fact\"";
    "\"all\""; "\"lint\""; "\"load\""; "\"unload\""; "\"edit\""; "\"explain\"";
    "\"stats\""; "\"shutdown\""; "\"gmod\""; "\"guse\""; "\"rmod\""; "\"ruse\"";
    "\"alias\""; "\"purity\""; "\"mod\""; "\"use\""; "\"lint-delta\"";
    "\"source\""; "true"; "false"; "null"; "0"; "-1"; "42"; "1e9"; "\"\"";
    "\"p\""; "\"q\""; "\"x\"";
  |]

let arb_json_soup =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck.Gen.(
      map
        (fun picks ->
          String.concat " "
            (List.map (fun i -> json_fragments.(i mod Array.length json_fragments)) picks))
        (list_size (0 -- 60) (0 -- 1000)))

(* Valid requests cut off mid-line: every prefix must still get a
   structured answer. *)
let arb_truncated =
  let lines =
    Array.of_list (List.map (fun r -> Protocol.to_line r) sample_requests)
  in
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck.Gen.(
      map2
        (fun i frac ->
          let line = lines.(i mod Array.length lines) in
          let n = String.length line in
          String.sub line 0 (min n (int_of_float (frac *. float_of_int n))))
        (0 -- 1000) (float_bound_inclusive 1.0))

(* Hostile names inside *valid* requests: the server must answer with a
   structured error (unknown program), not a parse failure or a crash. *)
let prop_hostile_names i =
  let srv = Lazy.force fuzz_server in
  let name = Printf.sprintf "%s-%d" hostile i in
  let reqs =
    [
      Protocol.Query
        { program = name; session = name; query = Protocol.Gmod { proc = name } };
      Protocol.Edit { program = name; session = name; script = name; lint = true };
      Protocol.Explain { program = name; session = name; fact = Some name; all = false };
      Protocol.Unload { program = name };
    ]
  in
  List.for_all
    (fun req ->
      let resp = Server.handle_line srv ~client:98 (Protocol.to_line req) in
      well_formed_response resp
      &&
      match Json.member "ok" (Result.get_ok (Json.parse resp)) with
      | Some (Json.Bool false) -> true
      | _ -> false)
    reqs

(* --- directed server tests --- *)

(* Happy path: every query class against the registry base must agree
   with a direct Core.Analyze.run through the same naming scheme. *)
let check_state ?(program = "p") srv ~client ~session mirror =
  let fresh = Core.Analyze.run mirror in
  let q query = Protocol.Query { program; session; query } in
  (match member "source" (send_ok srv ~client (q Protocol.Source)) with
  | Json.String s -> Alcotest.(check string) "source" (Ir.Pp.to_string mirror) s
  | j -> Alcotest.failf "source not a string: %s" (Json.to_string j));
  Ir.Prog.iter_procs mirror (fun p ->
      let pname = p.Ir.Prog.pname in
      let pid = p.Ir.Prog.pid in
      let vars_of req = str_list pname (member "vars" (send_ok srv ~client (q req))) in
      Alcotest.(check (list string))
        ("gmod " ^ pname)
        (Serve.Delta.set_names mirror fresh.Core.Analyze.gmod.(pid))
        (vars_of (Protocol.Gmod { proc = pname }));
      Alcotest.(check (list string))
        ("guse " ^ pname)
        (Serve.Delta.set_names mirror fresh.Core.Analyze.guse.(pid))
        (vars_of (Protocol.Guse { proc = pname }));
      (match member "pure" (send_ok srv ~client (q (Protocol.Purity { proc = pname }))) with
      | Json.Bool b ->
        Alcotest.(check bool)
          ("purity " ^ pname)
          (List.mem pid (Lint.Rule.pure_procs fresh))
          b
      | j -> Alcotest.failf "purity not a bool: %s" (Json.to_string j));
      let expect_pairs =
        List.map
          (fun (x, y) ->
            [
              Ir.Pp.qualified_var_name mirror x; Ir.Pp.qualified_var_name mirror y;
            ])
          (Core.Alias.pairs fresh.Core.Analyze.alias pid)
      in
      let got_pairs =
        match member "pairs" (send_ok srv ~client (q (Protocol.Alias { proc = pname }))) with
        | Json.List l -> List.map (str_list "alias pair") l
        | j -> Alcotest.failf "pairs not a list: %s" (Json.to_string j)
      in
      Alcotest.(check (list (list string))) ("alias " ^ pname) expect_pairs got_pairs);
  Ir.Prog.iter_vars mirror (fun v ->
      match v.Ir.Prog.kind with
      | Ir.Prog.Formal { proc; mode = Ir.Prog.By_ref; _ } ->
        let pname = (Ir.Prog.proc mirror proc).Ir.Prog.pname in
        let check_member what req expected =
          match member "member" (send_ok srv ~client (q req)) with
          | Json.Bool b ->
            Alcotest.(check bool)
              (Printf.sprintf "%s %s.%s" what pname v.Ir.Prog.vname)
              expected b
          | j -> Alcotest.failf "member not a bool: %s" (Json.to_string j)
        in
        check_member "rmod"
          (Protocol.Rmod { proc = pname; var = v.Ir.Prog.vname })
          (Core.Rmod.modified fresh.Core.Analyze.rmod v.Ir.Prog.vid);
        check_member "ruse"
          (Protocol.Ruse { proc = pname; var = v.Ir.Prog.vname })
          (Core.Rmod.modified fresh.Core.Analyze.ruse v.Ir.Prog.vid)
      | _ -> ());
  for site = 0 to Ir.Prog.n_sites mirror - 1 do
    let vars_of req = str_list "site" (member "vars" (send_ok srv ~client (q req))) in
    Alcotest.(check (list string))
      (Printf.sprintf "mod site %d" site)
      (Serve.Delta.set_names mirror (Core.Analyze.mod_of_site fresh site))
      (vars_of (Protocol.Mod_site { site }));
    Alcotest.(check (list string))
      (Printf.sprintf "use site %d" site)
      (Serve.Delta.set_names mirror (Core.Analyze.use_of_site fresh site))
      (vars_of (Protocol.Use_site { site }))
  done

let test_query_vs_batch () =
  let srv = Server.create () in
  let prog = normalize (Workload.Families.diamond ()) in
  load srv ~client:1 "p" prog;
  check_state srv ~client:1 ~session:"" prog;
  (* An unedited lint-delta is empty — and carries the key contract. *)
  let r =
    send_ok srv ~client:1
      (Protocol.Query { program = "p"; session = ""; query = Protocol.Lint_delta })
  in
  Alcotest.(check (list string)) "lint_added" [] (str_list "lint_added" (member "lint_added" r));
  Alcotest.(check (list string))
    "lint_removed" [] (str_list "lint_removed" (member "lint_removed" r))

let test_structured_errors () =
  let srv = Server.create () in
  load srv ~client:1 "p" (Workload.Families.diamond ());
  let expect_err what req frag =
    let m = send_err srv ~client:1 req in
    if not (has_substring m frag) then
      Alcotest.failf "%s: error %S does not mention %S" what m frag
  in
  let q query = Protocol.Query { program = "p"; session = ""; query } in
  expect_err "unknown program"
    (Protocol.Query { program = "nope"; session = ""; query = Protocol.Source })
    "unknown program";
  expect_err "unknown proc" (q (Protocol.Gmod { proc = "nope" })) "unknown procedure";
  expect_err "unknown var" (q (Protocol.Rmod { proc = "a"; var = "nope" }))
    "unknown variable";
  expect_err "bad site" (q (Protocol.Mod_site { site = 9999 })) "no such site";
  expect_err "bad site" (q (Protocol.Use_site { site = -1 })) "no such site";
  expect_err "bad script"
    (Protocol.Edit { program = "p"; session = ""; script = "gibberish here"; lint = false })
    "bad edit script";
  expect_err "bad fact"
    (Protocol.Explain { program = "p"; session = ""; fact = Some "wat"; all = false })
    "unrecognised fact";
  expect_err "bad load"
    (Protocol.Load { program = "p"; source = "program p; begin frob; end." })
    ":";
  expect_err "empty name" (Protocol.Load { program = ""; source = "" }) "empty";
  expect_err "unload unknown" (Protocol.Unload { program = "nope" }) "unknown program"

(* A structural edit renumbers every id, so the engine re-solves every
   procedure mid-session; the edits before and after it take the cone
   path over the renumbered program, and after each the session
   answers exactly as a batch run on the edited program does. *)
let test_edit_structural () =
  let srv = Server.create () in
  let base = normalize (Workload.Families.ref_chain 6) in
  load srv ~client:1 "p" base;
  let mirror = ref base in
  List.iter
    (fun script ->
      let r =
        send_ok srv ~client:1
          (Protocol.Edit { program = "p"; session = ""; script; lint = true })
      in
      (match member "edits" r with
      | Json.List [ Json.String _ ] -> ()
      | j -> Alcotest.failf "expected one rendered edit, got %s" (Json.to_string j));
      ignore (member "gmod_delta" r);
      ignore (member "guse_delta" r);
      ignore (member "procs_resolved" r);
      ignore (member "lint_added" r);
      (mirror :=
         match Incremental.Script.parse !mirror script with
         | Ok [ (_, p') ] -> p'
         | _ -> Alcotest.failf "script %S did not parse" script);
      check_state srv ~client:1 ~session:"" !mirror)
    [ "add-assign p1 g0 = 1"; "add-proc zz writes=g0"; "add-call p2 zz" ]

let test_unload_drops_sessions () =
  let srv = Server.create () in
  let base = Workload.Families.diamond () in
  load srv ~client:1 "p" base;
  ignore
    (send_ok srv ~client:1
       (Protocol.Edit
          { program = "p"; session = "s"; script = "add-proc zz writes=g0"; lint = false }));
  let session_source () =
    match
      member "source"
        (send_ok srv ~client:1
           (Protocol.Query { program = "p"; session = "s"; query = Protocol.Source }))
    with
    | Json.String s -> s
    | j -> Alcotest.failf "source not a string: %s" (Json.to_string j)
  in
  let edited = session_source () in
  Alcotest.(check bool) "session saw the edit" true (edited <> Ir.Pp.to_string base);
  ignore (send_ok srv ~client:1 (Protocol.Unload { program = "p" }));
  let m =
    send_err srv ~client:1
      (Protocol.Query { program = "p"; session = "s"; query = Protocol.Source })
  in
  Alcotest.(check bool) "unloaded" true (has_substring m "unknown program");
  (* Reload: the session did not survive the unload. *)
  load srv ~client:1 "p" base;
  Alcotest.(check string) "session dropped" (Ir.Pp.to_string base) (session_source ())

let test_explain () =
  let srv = Server.create () in
  load srv ~client:1 "p" (Workload.Families.ref_chain 4);
  let r =
    send_ok srv ~client:1
      (Protocol.Explain
         { program = "p"; session = ""; fact = Some "gmod:p1:x"; all = false })
  in
  (match member "witness" r with
  | Json.List (_ :: _) -> ()
  | j -> Alcotest.failf "expected a non-empty witness, got %s" (Json.to_string j));
  let r =
    send_ok srv ~client:1
      (Protocol.Explain { program = "p"; session = ""; fact = None; all = true })
  in
  (match (member "total" r, member "missing" r) with
  | Json.Int total, Json.Int 0 when total > 0 -> ()
  | t, m ->
    Alcotest.failf "explain all: total %s missing %s" (Json.to_string t)
      (Json.to_string m))

(* A session's forest follows its edits: after an edit, [explain] with
   [all] in that session still finds a witness for every fact, and the
   facts the edit introduced are explained, through a call step too. *)
let test_session_explain () =
  let srv = Server.create () in
  load srv ~client:1 "p" (Workload.Families.ref_chain 4);
  let explain fact =
    Protocol.Explain { program = "p"; session = "s"; fact = Some fact; all = false }
  in
  let introduced = [ "gmod:p2:g0"; "gmod:p1:g0" ] in
  List.iter
    (fun fact ->
      let m = send_err srv ~client:1 (explain fact) in
      Alcotest.(check bool) (fact ^ " not yet") true (has_substring m "does not hold"))
    introduced;
  ignore
    (send_ok srv ~client:1
       (Protocol.Edit
          {
            program = "p";
            session = "s";
            script = "add-assign p2 g0 = 7";
            lint = false;
          }));
  List.iter
    (fun fact ->
      match member "witness" (send_ok srv ~client:1 (explain fact)) with
      | Json.List (_ :: _) -> ()
      | j -> Alcotest.failf "%s: expected a witness, got %s" fact (Json.to_string j))
    introduced;
  let r =
    send_ok srv ~client:1
      (Protocol.Explain { program = "p"; session = "s"; fact = None; all = true })
  in
  match (member "total" r, member "missing" r) with
  | Json.Int total, Json.Int 0 when total > 0 -> ()
  | t, m ->
    Alcotest.failf "session explain all: total %s missing %s" (Json.to_string t)
      (Json.to_string m)

(* Every fact a served [explain] with [all] lists resolves as a single
   [fact] in the same session, after an edit, to the witness it was
   listed with: on a pointer program that includes the facts about
   other procedures' locals a dereference reaches, which go by their
   qualified name. *)
let test_session_all_facts_resolve () =
  let srv = Server.create () in
  let source =
    In_channel.with_open_bin "../programs/pointers.mp" In_channel.input_all
  in
  ignore (send_ok srv ~client:1 (Protocol.Load { program = "p"; source }));
  ignore
    (send_ok srv ~client:1
       (Protocol.Edit
          {
            program = "p";
            session = "s";
            script = "add-assign pointers x = 5";
            lint = false;
          }));
  let explain fact all = Protocol.Explain { program = "p"; session = "s"; fact; all } in
  let listed =
    match member "facts" (send_ok srv ~client:1 (explain None true)) with
    | Json.List l -> l
    | j -> Alcotest.failf "facts not a list: %s" (Json.to_string j)
  in
  let resolved = ref 0 in
  List.iter
    (fun entry ->
      match member "fact" entry with
      | Json.String fact when not (String.starts_with ~prefix:"diag:" fact) ->
        let r = send_ok srv ~client:1 (explain (Some fact) false) in
        if member "witness" r <> member "witness" entry then
          Alcotest.failf "%s: served witness differs from the listed one" fact;
        incr resolved
      | Json.String _ -> ()
      | j -> Alcotest.failf "fact not a string: %s" (Json.to_string j))
    listed;
  Alcotest.(check bool) "some facts resolved" true (!resolved > 0)

let test_stats_and_shutdown () =
  let srv = Server.create () in
  load srv ~client:1 "p" (Workload.Families.diamond ());
  ignore
    (send_ok srv ~client:1
       (Protocol.Query { program = "p"; session = ""; query = Protocol.Source }));
  let r = send_ok srv ~client:1 Protocol.Stats in
  (match member "programs" r with
  | Json.List (Json.Obj fields :: _) ->
    List.iter
      (fun k ->
        if not (List.mem_assoc k fields) then
          Alcotest.failf "stats program entry missing %S" k)
      [
        "name"; "procedures"; "sites"; "analyzed"; "sessions"; "edits";
        "call_levels"; "call_max_width";
      ]
  | j -> Alcotest.failf "stats.programs: %s" (Json.to_string j));
  (match member "recommended_domain_count" r with
  | Json.Int c when c >= 1 -> ()
  | j -> Alcotest.failf "stats.recommended_domain_count: %s" (Json.to_string j));
  ignore (member "requests" r);
  ignore (member "latency" r);
  Alcotest.(check bool) "not stopping" false (Server.stopping srv);
  let r = send_ok srv ~client:1 Protocol.Shutdown in
  (match member "stopping" r with
  | Json.Bool true -> ()
  | j -> Alcotest.failf "shutdown: %s" (Json.to_string j));
  Alcotest.(check bool) "stopping" true (Server.stopping srv)

(* --- concurrency: pooled batches behave exactly like serial ones --- *)

let batch_requests rand programs =
  let lines = ref [] in
  let push client req =
    lines := (client, Protocol.to_line ~id:(Json.Int (List.length !lines)) req) :: !lines
  in
  List.iteri
    (fun i (name, base) ->
      let client = i + 1 in
      let mirror = ref base in
      for _ = 1 to 2 do
        (match Workload.Edits.gen ~rand ~steps:1 !mirror with
        | [ (edit, prog') ] -> (
          match Incremental.Script.render !mirror edit with
          | Some script ->
            push client
              (Protocol.Edit { program = name; session = "s"; script; lint = true });
            mirror := prog'
          | None -> ())
        | _ -> ());
        Ir.Prog.iter_procs !mirror (fun p ->
            push client
              (Protocol.Query
                 {
                   program = name;
                   session = "s";
                   query = Protocol.Gmod { proc = p.Ir.Prog.pname };
                 }))
      done;
      push client (Protocol.Query { program = name; session = "s"; query = Protocol.Source }))
    programs;
  (* Interleave the two clients' requests so the batch alternates
     programs — the grouping logic has to untangle them. *)
  let a, b = List.partition (fun (c, _) -> c = 1) (List.rev !lines) in
  let rec weave xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | x :: xs, y :: ys -> x :: y :: weave xs ys
  in
  weave a b

let test_concurrent_sessions rand =
  let programs =
    [
      ("a", normalize (Helpers.flat_of_seed ~n:8 11));
      ("b", normalize (Helpers.nested_of_seed ~n:8 22));
    ]
  in
  let batch = batch_requests rand programs in
  let run srv =
    List.iter (fun (name, prog) -> load srv ~client:0 name prog) programs;
    Server.handle_batch srv batch
  in
  let serial = run (Server.create ()) in
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      let pooled = run (Server.create ?pool ()) in
      Alcotest.(check (list string)) "pooled = serial" serial pooled)

(* --- the socket transport, end to end --- *)

let test_socket () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sidefx-test-%d.sock" (Unix.getpid ()))
  in
  let srv = Server.create () in
  let d = Domain.spawn (fun () -> Server.serve_socket ~max_clients:8 srv ~path) in
  Fun.protect
    ~finally:(fun () ->
      (* Make sure the server domain winds down even when a check above
         failed before the scripted shutdown. *)
      (if not (Server.stopping srv) then
         try
           let c = Serve.Loadgen.socket_conn ~retries:5 ~path () in
           c.Serve.Loadgen.send (Protocol.to_line Protocol.Shutdown);
           (try ignore (c.Serve.Loadgen.recv ()) with _ -> ());
           c.Serve.Loadgen.close ()
         with _ -> ());
      Domain.join d)
    (fun () ->
      let prog = Workload.Families.diamond () in
      let conn = Serve.Loadgen.socket_conn ~path () in
      let roundtrip req =
        conn.Serve.Loadgen.send (Protocol.to_line ~id:(Json.Int 7) req);
        let j = parse_json (conn.Serve.Loadgen.recv ()) in
        Alcotest.(check bool)
          "id echo" true
          (Json.member "id" j = Some (Json.Int 7));
        (match member "ok" j with
        | Json.Bool true -> ()
        | _ -> Alcotest.failf "socket request failed: %s" (Json.to_string j));
        member "result" j
      in
      ignore
        (roundtrip (Protocol.Load { program = "p"; source = Ir.Pp.to_string prog }));
      let r =
        roundtrip
          (Protocol.Query
             { program = "p"; session = ""; query = Protocol.Gmod { proc = "a" } })
      in
      ignore (member "vars" r);
      ignore (roundtrip Protocol.Shutdown);
      conn.Serve.Loadgen.close ());
  Alcotest.(check bool) "server stopped" true (Server.stopping srv)

(* A small in-process loadgen run doubles as an integration test: the
   report must come back clean, with every edit it sent accepted. *)
let test_loadgen_clean rand =
  let seed = Random.State.int rand 10_000 in
  let srv = Server.create () in
  let programs =
    [
      ("flat", Ir.Pp.to_string (Helpers.flat_of_seed ~n:8 3));
      ("nested", Ir.Pp.to_string (Helpers.nested_of_seed ~n:8 4));
    ]
  in
  let r =
    Serve.Loadgen.run ~concurrency:8 ~clients:16 ~seed ~programs
      ~connect:(Serve.Loadgen.in_process srv) ()
  in
  if r.Serve.Loadgen.protocol_errors <> 0 then
    Alcotest.failf "loadgen saw %d protocol errors: %s"
      r.Serve.Loadgen.protocol_errors
      (String.concat "; " r.Serve.Loadgen.error_samples);
  Alcotest.(check bool) "requests flowed" true (r.Serve.Loadgen.requests > 16)

(* --- a fresh session reuses the base lint --- *)

let rec spans_named name (s : Obs.Span.t) =
  (if s.Obs.Span.name = name then [ s ] else [])
  @ List.concat_map (spans_named name) s.Obs.Span.children

(* Until its first edit a session holds the registry's base analysis,
   so its first lint edit takes the baseline from the registry's base
   lint: the edit opens one [lint] span, the edited program's, and its
   deltas equal those of a batch lint of both versions. *)
let test_fresh_session_base_lint () =
  let base = normalize (Workload.Families.dag_style ~seed:1009 ~n:32) in
  let srv = Server.create () in
  load srv ~client:1 "p" base;
  let q query = Protocol.Query { program = "p"; session = ""; query } in
  (* A server that has answered a lint-delta holds the base lint. *)
  ignore (send_ok srv ~client:1 (q Protocol.Lint_delta));
  let rand = Random.State.make [| 0xba5e |] in
  let lint p = Lint.Engine.run (Core.Analyze.run ~provenance:true p) in
  let edits = ref 0 in
  for session = 0 to 7 do
    match Workload.Edits.gen ~rand ~steps:1 base with
    | [ (edit, edited) ] -> (
      match Incremental.Script.render base edit with
      | Some script ->
        incr edits;
        let session = Printf.sprintf "fresh%d" session in
        let r, span =
          Obs.Span.collect "edit" (fun () ->
              send_ok srv ~client:1
                (Protocol.Edit { program = "p"; session; script; lint = true }))
        in
        Alcotest.(check int)
          (script ^ ": one lint pass") 1
          (List.length (spans_named "lint" span));
        let expected =
          Json.Obj
            (Serve.Delta.lint_fields
               (Some (Lint.Engine.delta ~before:(lint base) ~after:(lint edited))))
        in
        List.iter
          (fun key ->
            Alcotest.(check string)
              (script ^ ": " ^ key)
              (Json.to_string (member key expected))
              (Json.to_string (member key r)))
          [ "lint_added"; "lint_removed" ]
      | None -> ())
    | _ -> ()
  done;
  Alcotest.(check bool) "some edits sent" true (!edits > 0)

(* --- served responses, pinned --- *)

(* Every response line of a fixed in-process Loadgen run on two
   dag_style 32 programs (edits with and without lint, lint deltas,
   queries, a session [explain --all] per program), then, per program,
   [explain --all] on the base, one [diag:] fact per finding code on
   the base, three lint edits in a fresh session, and the same [diag:]
   facts plus the first five [gmod:] facts of [--all] in that session.
   Witnesses and deltas are all in the text, so a change in when
   provenance is built cannot move a byte unnoticed. *)
let served_transcript () =
  let srv = Server.create () in
  let programs =
    List.map
      (fun seed ->
        ( Printf.sprintf "dag%d" seed,
          Ir.Pp.to_string (Workload.Families.dag_style ~seed ~n:32) ))
      [ 1009; 1010 ]
  in
  let b = Buffer.create (1 lsl 16) in
  let record line =
    Buffer.add_string b line;
    Buffer.add_char b '\n'
  in
  let connect =
    let fresh = Serve.Loadgen.in_process srv in
    fun () ->
      let c = fresh () in
      {
        c with
        Serve.Loadgen.recv =
          (fun () ->
            let line = c.Serve.Loadgen.recv () in
            record line;
            line);
      }
  in
  let r =
    Serve.Loadgen.run ~concurrency:8 ~clients:64 ~seed:7 ~programs ~connect ()
  in
  if r.Serve.Loadgen.protocol_errors <> 0 then
    Alcotest.failf "loadgen saw %d protocol errors: %s"
      r.Serve.Loadgen.protocol_errors
      (String.concat "; " r.Serve.Loadgen.error_samples);
  let rand = Random.State.make [| 0x90_1d |] in
  List.iter
    (fun (name, source) ->
      let ask ~session req_fact =
        let fact, all =
          match req_fact with None -> (None, true) | Some f -> (Some f, false)
        in
        let line =
          send srv ~client:1 (Protocol.Explain { program = name; session; fact; all })
        in
        record line;
        parse_json line
      in
      let facts j =
        match Json.member "facts" (member "result" j) with
        | Some (Json.List l) ->
          List.map (fun f -> match member "fact" f with Json.String s -> s | _ -> "") l
        | _ -> []
      in
      let prefixed p s =
        String.length s > String.length p && String.sub s 0 (String.length p) = p
      in
      let diag_codes all =
        List.filter_map
          (fun f ->
            if prefixed "diag:" f then Some (List.nth (String.split_on_char ':' f) 1)
            else None)
          all
        |> List.sort_uniq compare
      in
      let base = facts (ask ~session:"" None) in
      List.iter (fun c -> ignore (ask ~session:"" (Some ("diag:" ^ c)))) (diag_codes base);
      let mirror = ref (Helpers.compile source) in
      for _ = 1 to 3 do
        match Workload.Edits.gen ~rand ~steps:1 !mirror with
        | [ (edit, prog') ] -> (
          match Incremental.Script.render !mirror edit with
          | Some script ->
            record
              (send srv ~client:1
                 (Protocol.Edit { program = name; session = "g"; script; lint = true }));
            mirror := prog'
          | None -> ())
        | _ -> ()
      done;
      let edited = facts (ask ~session:"g" None) in
      List.iter (fun c -> ignore (ask ~session:"g" (Some ("diag:" ^ c)))) (diag_codes edited);
      List.iteri
        (fun i f -> if i < 5 then ignore (ask ~session:"g" (Some f)))
        (List.filter (prefixed "gmod:") edited))
    programs;
  Buffer.contents b

let served_digest = ("1ba231b1fe22cea494ad9e1b14d3346b", 754)

let test_served_golden () =
  let text = served_transcript () in
  let lines = List.length (String.split_on_char '\n' text) - 1 in
  Alcotest.(check (pair string int))
    "served response digest" served_digest
    (Digest.to_hex (Digest.string text), lines)

(* --- the central property: sessions are bit-identical to batch --- *)

(* Two sessions on one program, edited in interleaved rounds; after
   every edit, every queryable fact of *both* sessions must equal a
   from-scratch analysis of that session's mirror (and the untouched
   session must be unaffected — isolation). *)
let prop_session_equivalence seed =
  let base = normalize (Helpers.flat_of_seed ~n:6 seed) in
  let srv = Server.create () in
  load srv ~client:1 "p" base;
  check_state srv ~client:1 ~session:"" base;
  let rand = Random.State.make [| seed; 0x5e55 |] in
  let mirrors = [| ref base; ref base |] in
  let sessions = [| "a"; "b" |] in
  for round = 0 to 2 do
    let which = (round + Random.State.int rand 2) mod 2 in
    let mirror = mirrors.(which) in
    (match Workload.Edits.gen ~rand ~steps:1 !mirror with
    | [ (edit, prog') ] -> (
      match Incremental.Script.render !mirror edit with
      | Some script ->
        ignore
          (send_ok srv ~client:1
             (Protocol.Edit
                { program = "p"; session = sessions.(which); script; lint = false }));
        mirror := prog'
      | None -> ())
    | _ -> ());
    check_state srv ~client:1 ~session:sessions.(which) !(mirrors.(which));
    (* The *other* session must not have moved. *)
    let other = 1 - which in
    check_state srv ~client:1 ~session:sessions.(other) !(mirrors.(other))
  done;
  true

(* --- cross-layer soundness, through the protocol --- *)

(* Execute the program under the tracing interpreter and check that
   everything it observed at each executed call site is contained in
   the MOD(s)/USE(s) the *server* reports for that site — GMOD/GUSE
   projected to the site, encoded to JSON, decoded back to variable
   ids.  A defect anywhere in analysis, encoder, or decoder breaks
   containment. *)
let prop_protocol_sound seed =
  (* Reparse the pretty-printed source so interpreter and server agree
     on every id (pp ∘ compile is the identity on pp output). *)
  let prog = Helpers.compile (Ir.Pp.to_string (Helpers.flat_of_seed ~n:12 seed)) in
  let srv = Server.create () in
  load srv ~client:1 "p" prog;
  let o = Interp.run ~fuel:10_000 ~max_depth:256 prog in
  let decode req =
    let vars = str_list "vars" (member "vars" (send_ok srv ~client:1 req)) in
    List.map (Helpers.var_id prog) vars
  in
  let ok = ref true in
  Ir.Prog.iter_sites prog (fun s ->
      let sid = s.Ir.Prog.sid in
      if !ok && o.Interp.calls_executed.(sid) > 0 then begin
        let q query = Protocol.Query { program = "p"; session = ""; query } in
        let served_mod = decode (q (Protocol.Mod_site { site = sid })) in
        let served_use = decode (q (Protocol.Use_site { site = sid })) in
        let contained observed served =
          List.for_all (fun v -> List.mem v served) (Bitvec.to_list observed)
        in
        if not (contained (Interp.observed_mod o sid) served_mod) then begin
          ok := false;
          QCheck.Test.fail_reportf "site %d: observed MOD not in served MOD(s)" sid
        end;
        if not (contained (Interp.observed_use o sid) served_use) then begin
          ok := false;
          QCheck.Test.fail_reportf "site %d: observed USE not in served USE(s)" sid
        end
      end);
  !ok

let () =
  Helpers.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "requests round-trip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "malformed lines rejected" `Quick test_protocol_malformed;
          Alcotest.test_case "op classes" `Quick test_op_class;
        ] );
      ( "protocol-fuzz",
        [
          Helpers.qtest ~count:300 "raw bytes always answered" arb_garbage
            prop_server_answers;
          Helpers.qtest ~count:300 "json soup always answered" arb_json_soup
            prop_server_answers;
          Helpers.qtest ~count:300 "truncated requests always answered" arb_truncated
            prop_server_answers;
          Helpers.qtest ~count:50 "hostile names get structured errors"
            QCheck.(make ~print:string_of_int Gen.(0 -- 1000))
            prop_hostile_names;
        ] );
      ( "server",
        [
          Alcotest.test_case "queries match direct analysis" `Quick test_query_vs_batch;
          Alcotest.test_case "structured errors" `Quick test_structured_errors;
          Alcotest.test_case "mid-session structural edit = batch" `Quick
            test_edit_structural;
          Alcotest.test_case "unload drops sessions" `Quick test_unload_drops_sessions;
          Alcotest.test_case "explain facts and --all" `Quick test_explain;
          Alcotest.test_case "session explain follows edits" `Quick
            test_session_explain;
          Alcotest.test_case "session --all facts resolve after an edit" `Quick
            test_session_all_facts_resolve;
          Alcotest.test_case "stats and shutdown" `Quick test_stats_and_shutdown;
          Helpers.seeded_case "pooled batch = serial batch" `Quick
            test_concurrent_sessions;
          Alcotest.test_case "socket transport round-trip" `Quick test_socket;
          Helpers.seeded_case "loadgen runs clean in-process" `Quick test_loadgen_clean;
          Alcotest.test_case "served response digest" `Quick test_served_golden;
          Alcotest.test_case "fresh session reuses the base lint" `Quick
            test_fresh_session_base_lint;
        ] );
      ( "equivalence",
        [
          Helpers.qtest ~count:200 "session facts = from-scratch analysis"
            Helpers.arb_flat_prog prop_session_equivalence;
        ] );
      ( "soundness",
        [
          Helpers.qtest ~count:60 "observed effects within served MOD/USE"
            Helpers.arb_flat_prog prop_protocol_sound;
        ] );
    ]
