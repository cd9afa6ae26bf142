module Json = Obs.Json
module Engine = Incremental.Engine

type t = {
  registry : Registry.t;
  sessions : (int * string * string, Session.t) Hashtbl.t;
  sessions_mu : Mutex.t;
  pool : Par.Pool.t option;
  mutable stop : bool;
}

(* Lazy so that merely linking the server (every [sidefx] build) does
   not register serve metrics into unrelated commands' --json dumps —
   they exist once the first request is actually handled. *)
let requests_total = lazy (Obs.Metric.counter "serve.requests")
let errors_total = lazy (Obs.Metric.counter "serve.errors")
let class_counter cls = Obs.Metric.counter ("serve.requests." ^ cls)
let class_hist cls = Obs.Metric.histogram ("serve." ^ cls ^ "_s")

let create ?pool () =
  {
    registry = Registry.create ();
    sessions = Hashtbl.create 64;
    sessions_mu = Mutex.create ();
    pool;
    stop = false;
  }

let registry t = t.registry
let stopping t = t.stop

let ( let* ) = Result.bind

(* --- session table (mutex-guarded: concurrent groups may create
   sessions for distinct programs in the same batch) --- *)

let session_find t ~client ~program ~session =
  Mutex.lock t.sessions_mu;
  let r = Hashtbl.find_opt t.sessions (client, program, session) in
  Mutex.unlock t.sessions_mu;
  r

let session_get_or_create t (entry : Registry.entry) ~client ~session =
  (* Force the base analysis outside the lock so a slow first analysis
     of one program never serialises sessions on other programs. *)
  ignore (Lazy.force entry.Registry.analysis);
  Mutex.lock t.sessions_mu;
  let key = (client, entry.Registry.name, session) in
  let s =
    match Hashtbl.find_opt t.sessions key with
    | Some s -> s
    | None ->
      let s = Session.create entry ~name:session in
      Hashtbl.add t.sessions key s;
      s
  in
  Mutex.unlock t.sessions_mu;
  s

let drop_sessions_if t pred =
  Mutex.lock t.sessions_mu;
  let doomed =
    Hashtbl.fold (fun k _ acc -> if pred k then k :: acc else acc) t.sessions []
  in
  List.iter (Hashtbl.remove t.sessions) doomed;
  Mutex.unlock t.sessions_mu

let drop_client t client =
  drop_sessions_if t (fun (c, _, _) -> c = client)

let drop_program_sessions t program =
  drop_sessions_if t (fun (_, p, _) -> p = program)

let sessions_of_program t program =
  Mutex.lock t.sessions_mu;
  let acc =
    Hashtbl.fold
      (fun (_, p, _) s acc -> if p = program then s :: acc else acc)
      t.sessions []
  in
  Mutex.unlock t.sessions_mu;
  acc

(* --- resolution helpers --- *)

let find_entry t program =
  match Registry.find t.registry program with
  | Some e -> Ok e
  | None -> Error (Printf.sprintf "unknown program '%s'" program)

let names_json prog set =
  Json.List
    (List.map (fun n -> Json.String n) (Delta.set_names prog set))

(* The session's view of a program: its engine's analysis when the
   client has opened a session, the shared registry base otherwise. *)
let analysis_for t (entry : Registry.entry) ~client ~session =
  match session_find t ~client ~program:entry.Registry.name ~session with
  | Some s -> (Session.analysis s, Some s)
  | None -> (Lazy.force entry.Registry.analysis, None)

(* --- query --- *)

let exec_query t entry ~client ~session (q : Protocol.query) =
  let a, sess = analysis_for t entry ~client ~session in
  let prog = a.Core.Analyze.prog in
  match q with
  | Protocol.Gmod { proc } ->
    let* pid = Core.Explain.resolve_proc prog proc in
    Ok
      (Json.Obj
         [
           ("proc", Json.String proc);
           ("vars", names_json prog a.Core.Analyze.gmod.(pid));
         ])
  | Protocol.Guse { proc } ->
    let* pid = Core.Explain.resolve_proc prog proc in
    Ok
      (Json.Obj
         [
           ("proc", Json.String proc);
           ("vars", names_json prog a.Core.Analyze.guse.(pid));
         ])
  | Protocol.Rmod { proc; var } ->
    let* pid = Core.Explain.resolve_proc prog proc in
    let* vid = Core.Explain.resolve_var prog ~proc:pid var in
    Ok
      (Json.Obj
         [
           ("proc", Json.String proc);
           ("var", Json.String var);
           ("member", Json.Bool (Core.Rmod.modified a.Core.Analyze.rmod vid));
         ])
  | Protocol.Ruse { proc; var } ->
    let* pid = Core.Explain.resolve_proc prog proc in
    let* vid = Core.Explain.resolve_var prog ~proc:pid var in
    Ok
      (Json.Obj
         [
           ("proc", Json.String proc);
           ("var", Json.String var);
           ("member", Json.Bool (Core.Rmod.modified a.Core.Analyze.ruse vid));
         ])
  | Protocol.Must { proc } ->
    let* pid = Core.Explain.resolve_proc prog proc in
    let m = a.Core.Analyze.mustmod in
    Ok
      (Json.Obj
         [
           ("proc", Json.String proc);
           ("vars", names_json prog (Core.Mustmod.mustmod_of m pid));
           ("intra", names_json prog (Core.Mustmod.intra_of m pid));
           ("demoted", names_json prog (Core.Mustmod.demoted_of m pid));
         ])
  | Protocol.Alias { proc } ->
    let* pid = Core.Explain.resolve_proc prog proc in
    Ok
      (Json.Obj
         [
           ("proc", Json.String proc);
           ( "pairs",
             Json.List
               (List.map
                  (fun (x, y) ->
                    Json.List
                      [
                        Json.String (Ir.Pp.qualified_var_name prog x);
                        Json.String (Ir.Pp.qualified_var_name prog y);
                      ])
                  (Core.Alias.pairs a.Core.Analyze.alias pid)) );
         ])
  | Protocol.Purity { proc } ->
    let* pid = Core.Explain.resolve_proc prog proc in
    Ok
      (Json.Obj
         [
           ("proc", Json.String proc);
           ("pure", Json.Bool (List.mem pid (Lint.Rule.pure_procs a)));
         ])
  | Protocol.Mod_site { site } | Protocol.Use_site { site } ->
    if site < 0 || site >= Ir.Prog.n_sites prog then
      Error (Printf.sprintf "no such site: %d" site)
    else
      let set =
        match q with
        | Protocol.Mod_site _ -> Core.Analyze.mod_of_site a site
        | _ -> Core.Analyze.use_of_site a site
      in
      Ok (Json.Obj [ ("site", Json.Int site); ("vars", names_json prog set) ])
  | Protocol.Lint_delta ->
    let before = Lazy.force entry.Registry.base_lint in
    let after = match sess with Some s -> Session.lint s | None -> before in
    let added, removed = Lint.Engine.delta ~before ~after in
    Ok (Json.Obj (Delta.lint_fields (Some (added, removed))))
  | Protocol.Source -> Ok (Json.Obj [ ("source", Json.String (Ir.Pp.to_string prog)) ])

(* --- edit --- *)

let exec_edit t entry ~client ~program ~session ~script ~lint =
  let s = session_get_or_create t entry ~client ~session in
  let engine = s.Session.engine in
  let snap = Delta.snapshot (Engine.analysis engine) in
  let lint_before = if lint then Some (Session.lint s) else None in
  match Incremental.Script.parse (Engine.prog engine) script with
  | Error e ->
    Error ("bad edit script: " ^ Incremental.Script.error_to_string e)
  | Ok steps ->
    let rendered =
      List.rev
        (fst
           (List.fold_left
              (fun (acc, p) (edit, p') ->
                (Incremental.Edit.to_string p edit :: acc, p'))
              ([], Engine.prog engine)
              steps))
    in
    let resolved = ref 0 in
    List.iter
      (fun (edit, _) ->
        resolved := !resolved + (Engine.apply engine edit).Engine.procs_resolved)
      steps;
    let after = Engine.analysis engine in
    let gmod_rows, guse_rows = Delta.rows snap after in
    let lint_delta =
      match lint_before with
      | Some before ->
        Some (Lint.Engine.delta ~before ~after:(Session.lint s))
      | None -> None
    in
    Ok
      (Json.Obj
         ([
            ("program", Json.String program);
            ("session", Json.String session);
            ( "edits",
              Json.List (List.map (fun e -> Json.String e) rendered) );
            ("gmod_delta", Delta.rows_json gmod_rows);
            ("guse_delta", Delta.rows_json guse_rows);
            ("procs_resolved", Json.Int !resolved);
          ]
         @ Delta.lint_fields lint_delta))

(* --- explain (the CLI fact grammar, served) --- *)

let lint_for (entry : Registry.entry) = function
  | Some s -> Session.lint s
  | None -> Lazy.force entry.Registry.base_lint

let exec_explain t entry ~client ~program ~session ~fact ~all =
  let a, sess = analysis_for t entry ~client ~session in
  let locs =
    (* Edited programs have no source spans; the base keeps its real
       location table. *)
    match sess with
    | Some s when Session.edits s > 0 -> Frontend.Locs.dummy a.Core.Analyze.prog
    | _ -> entry.Registry.locs
  in
  if all then begin
    let facts = Core.Explain.all_facts a ~locs in
    let results = facts @ List.map Lint.Diagnostic.fact (lint_for entry sess) in
    let missing = List.filter (fun (_, w) -> w = None) results in
    Ok
      (Json.Obj
         [
           ("program", Json.String program);
           ("facts", Json.List (List.map Core.Explain.fact_json results));
           ("total", Json.Int (List.length results));
           ("missing", Json.Int (List.length missing));
           ( "missing_facts",
             Json.List (List.map (fun (f, _) -> Json.String f) missing) );
         ])
  end
  else
    let fact_str = Option.get fact in
    let* f = Core.Explain.parse_fact fact_str in
    let answer fields =
      Ok
        (Json.Obj
           (("program", Json.String program)
           :: ("fact", Json.String fact_str)
           :: fields))
    in
    match f with
    | Core.Explain.Fdiag (code, filter) ->
      let found =
        List.filter (Lint.Diagnostic.matches ~code ~filter) (lint_for entry sess)
      in
      if List.is_empty found then
        Error (Printf.sprintf "no finding matches '%s'" fact_str)
      else answer [ ("findings", Json.List (List.map Lint.Diagnostic.to_json found)) ]
    | _ -> (
      let* lines = Core.Explain.fact_witness a ~locs f in
      match lines with
      | None -> Error (Printf.sprintf "fact '%s' does not hold" fact_str)
      | Some ls ->
        answer [ ("witness", Json.List (List.map (fun l -> Json.String l) ls)) ])

(* --- stats --- *)

let quantiles_json h =
  Json.Obj
    [
      ("count", Json.Int (Obs.Metric.hist_observations h));
      ("p50_ns", Json.Int (Obs.Metric.hist_quantile_ns h 0.50));
      ("p95_ns", Json.Int (Obs.Metric.hist_quantile_ns h 0.95));
      ("p99_ns", Json.Int (Obs.Metric.hist_quantile_ns h 0.99));
    ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let exec_stats t =
  let programs =
    List.map
      (fun (e : Registry.entry) ->
        let sessions = sessions_of_program t e.Registry.name in
        (* Condensation shape of the call multi-graph: how much level
           parallelism a pooled re-analysis of this program could use.
           Graph work only — safe to compute for unanalyzed entries. *)
        let levels =
          (Callgraph.Call.build e.Registry.prog).Callgraph.Call.scc
            .Graphs.Scc.levels
        in
        Json.Obj
          [
            ("name", Json.String e.Registry.name);
            ("procedures", Json.Int (Ir.Prog.n_procs e.Registry.prog));
            ("sites", Json.Int (Ir.Prog.n_sites e.Registry.prog));
            ("analyzed", Json.Bool (Lazy.is_val e.Registry.analysis));
            ("sessions", Json.Int (List.length sessions));
            ( "edits",
              Json.Int
                (List.fold_left (fun acc s -> acc + Session.edits s) 0 sessions)
            );
            ("call_levels", Json.Int levels.Graphs.Scc.n_levels);
            ("call_max_width", Json.Int levels.Graphs.Scc.max_width);
          ])
      (Registry.entries t.registry)
  in
  let requests =
    List.filter_map
      (fun (name, _, value) ->
        if starts_with ~prefix:"serve.requests." name then
          Some
            ( String.sub name 15 (String.length name - 15),
              Json.Int value )
        else None)
      (Obs.Metric.all ())
    |> List.sort compare
  in
  let latency =
    List.filter_map
      (fun h ->
        let name = Obs.Metric.hist_name h in
        if starts_with ~prefix:"serve." name then
          Some (name, quantiles_json h)
        else None)
      (Obs.Metric.histograms_in_order ())
    |> List.sort compare
  in
  Ok
    (Json.Obj
       [
         ("programs", Json.List programs);
         ( "recommended_domain_count",
           Json.Int (Domain.recommended_domain_count ()) );
         ("requests", Json.Obj requests);
         ("latency", Json.Obj latency);
       ])

(* --- dispatch --- *)

let exec t ~client (req : Protocol.request) =
  match req with
  | Protocol.Load { program; source } ->
    let* entry = Registry.load t.registry ~name:program ~source in
    (* A reload invalidates every session on the old version. *)
    drop_program_sessions t program;
    Ok
      (Json.Obj
         [
           ("program", Json.String program);
           ("procedures", Json.Int (Ir.Prog.n_procs entry.Registry.prog));
           ("sites", Json.Int (Ir.Prog.n_sites entry.Registry.prog));
         ])
  | Protocol.Unload { program } ->
    let* () = Registry.unload t.registry program in
    drop_program_sessions t program;
    Ok (Json.Obj [ ("unloaded", Json.String program) ])
  | Protocol.Query { program; session; query } ->
    let* entry = find_entry t program in
    exec_query t entry ~client ~session query
  | Protocol.Edit { program; session; script; lint } ->
    let* entry = find_entry t program in
    exec_edit t entry ~client ~program ~session ~script ~lint
  | Protocol.Explain { program; session; fact; all } ->
    let* entry = find_entry t program in
    exec_explain t entry ~client ~program ~session ~fact ~all
  | Protocol.Stats -> exec_stats t
  | Protocol.Shutdown ->
    t.stop <- true;
    Ok (Json.Obj [ ("stopping", Json.Bool true) ])

(* --- batches --- *)

(* Program-scoped requests may fan out; everything else is a barrier. *)
let parallel_safe = function
  | Ok (Protocol.Query _ | Protocol.Edit _ | Protocol.Explain _) -> true
  | _ -> false

let program_of = function
  | Ok (Protocol.Query { program; _ })
  | Ok (Protocol.Edit { program; _ })
  | Ok (Protocol.Explain { program; _ }) ->
    program
  | _ -> ""

let handle_batch t items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let parsed = Array.map (fun (_, line) -> Protocol.parse line) arr in
  let out = Array.make n "" in
  let lat_ns = Array.make n 0 in
  let failed = Array.make n false in
  let exec_one i =
    let client, _ = arr.(i) in
    let inc = parsed.(i) in
    let cls = Protocol.op_class inc.Protocol.request in
    let t0 = Unix.gettimeofday () in
    let resp =
      Obs.Span.with_ ("serve." ^ cls) @@ fun () ->
      match inc.Protocol.request with
      | Error msg ->
        failed.(i) <- true;
        Protocol.error_response ~id:inc.Protocol.id msg
      | Ok req -> (
        match exec t ~client req with
        | Ok result -> Protocol.ok_response ~id:inc.Protocol.id result
        | Error msg ->
          failed.(i) <- true;
          Protocol.error_response ~id:inc.Protocol.id msg
        | exception e ->
          failed.(i) <- true;
          Protocol.error_response ~id:inc.Protocol.id
            ("internal error: " ^ Printexc.to_string e))
    in
    lat_ns.(i) <- int_of_float ((Unix.gettimeofday () -. t0) *. 1e9);
    out.(i) <- resp
  in
  let i = ref 0 in
  while !i < n do
    if not (parallel_safe parsed.(!i).Protocol.request) then begin
      exec_one !i;
      incr i
    end
    else begin
      let j = ref !i in
      while !j < n && parallel_safe parsed.(!j).Protocol.request do
        incr j
      done;
      (* Group the run [i, j) by program, keeping arrival order inside
         each group (per-client, per-program order is what sessions
         depend on). *)
      let order = ref [] in
      let groups : (string, int list ref) Hashtbl.t = Hashtbl.create 8 in
      for k = !i to !j - 1 do
        let p = program_of parsed.(k).Protocol.request in
        match Hashtbl.find_opt groups p with
        | Some cell -> cell := k :: !cell
        | None ->
          Hashtbl.add groups p (ref [ k ]);
          order := p :: !order
      done;
      let tasks =
        List.rev_map
          (fun p -> List.rev !(Hashtbl.find groups p))
          !order
      in
      (match t.pool with
      | Some pool when List.length tasks > 1 ->
        Par.Pool.run pool
          (Array.of_list
             (List.map (fun idxs _slot -> List.iter exec_one idxs) tasks))
      | _ -> List.iter (fun idxs -> List.iter exec_one idxs) tasks);
      i := !j
    end
  done;
  (* Metrics on the calling domain, after any fan-out has joined. *)
  for k = 0 to n - 1 do
    let cls = Protocol.op_class parsed.(k).Protocol.request in
    Obs.Metric.incr (Lazy.force requests_total);
    Obs.Metric.incr (class_counter cls);
    if failed.(k) then Obs.Metric.incr (Lazy.force errors_total);
    Obs.Metric.observe_ns (class_hist cls) lat_ns.(k)
  done;
  Array.to_list out

let handle_line t ~client line =
  match handle_batch t [ (client, line) ] with
  | [ resp ] -> resp
  | _ -> assert false

(* --- transports --- *)

let load_file t ~name ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | source -> Result.map (fun (_ : Registry.entry) -> ()) (Registry.load t.registry ~name ~source)
  | exception Sys_error msg -> Error msg

let serve_channels t ic oc =
  let rec loop () =
    if t.stop then ()
    else
      match input_line ic with
      | exception End_of_file -> ()
      | line ->
        output_string oc (handle_line t ~client:0 line);
        output_char oc '\n';
        flush oc;
        loop ()
  in
  loop ()

(* One connected socket client: a stable id for session keying, a
   buffer holding a partial trailing line, and an output buffer of
   responses not yet accepted by the (non-blocking) socket.  The
   server must never block on a send: a client that has queued many
   requests and not yet read a large response (explain --all can
   exceed the socket buffer) would otherwise deadlock the whole loop
   against itself — it is waiting for a response the server cannot
   write until the client drains the previous one. *)
type conn = {
  fd : Unix.file_descr;
  cid : int;
  buf : Buffer.t;
  out : Buffer.t;
  mutable out_off : int;
}

(* Push as much pending output as the socket accepts right now.
   [`Ok] when fully drained, [`Partial] when the socket would block,
   [`Closed] when the peer is gone. *)
let flush_conn c =
  let rec go () =
    let pending = Buffer.length c.out - c.out_off in
    if pending = 0 then begin
      Buffer.clear c.out;
      c.out_off <- 0;
      `Ok
    end
    else
      match Unix.write_substring c.fd (Buffer.contents c.out) c.out_off pending with
      | 0 -> `Partial
      | k ->
        c.out_off <- c.out_off + k;
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        `Partial
      | exception Unix.Unix_error _ -> `Closed
  in
  go ()

(* Split the buffered bytes into complete lines; the tail (no newline
   yet) stays buffered. *)
let take_lines buf =
  let s = Buffer.contents buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
    Buffer.clear buf;
    Buffer.add_string buf (String.sub s (last + 1) (String.length s - last - 1));
    String.split_on_char '\n' (String.sub s 0 last)

let serve_socket ?(max_clients = 512) t ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let clients : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  let cleanup () =
    Hashtbl.iter
      (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ())
      clients;
    (try Unix.close srv with Unix.Unix_error _ -> ());
    try Unix.unlink path with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 128;
  let next_id = ref 1 in
  let chunk = Bytes.create 65536 in
  while not t.stop do
    let fds = srv :: Hashtbl.fold (fun fd _ acc -> fd :: acc) clients [] in
    let wfds =
      Hashtbl.fold
        (fun fd c acc -> if Buffer.length c.out > c.out_off then fd :: acc else acc)
        clients []
    in
    match Unix.select fds wfds [] 0.5 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, writable, _ ->
      if List.memq srv ready then begin
        match Unix.accept srv with
        | fd, _ ->
          if Hashtbl.length clients >= max_clients then (
            try Unix.close fd with Unix.Unix_error _ -> ())
          else begin
            Unix.set_nonblock fd;
            Hashtbl.add clients fd
              {
                fd;
                cid = !next_id;
                buf = Buffer.create 256;
                out = Buffer.create 256;
                out_off = 0;
              };
            incr next_id
          end
        | exception Unix.Unix_error _ -> ()
      end;
      let batch = ref [] in
      let closed = ref [] in
      List.iter
        (fun fd ->
          if fd != srv then
            match Hashtbl.find_opt clients fd with
            | None -> ()
            | Some c -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> closed := c :: !closed
              | k ->
                Buffer.add_subbytes c.buf chunk 0 k;
                List.iter
                  (fun line -> batch := (c, line) :: !batch)
                  (take_lines c.buf)
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                ->
                ()
              | exception Unix.Unix_error _ -> closed := c :: !closed))
        ready;
      let batch = List.rev !batch in
      if batch <> [] then begin
        let responses =
          handle_batch t (List.map (fun (c, line) -> (c.cid, line)) batch)
        in
        List.iter2
          (fun (c, _) resp ->
            if not (List.memq c !closed) then begin
              Buffer.add_string c.out resp;
              Buffer.add_char c.out '\n'
            end)
          batch responses
      end;
      (* Drain what each socket will take: everything that became
         writable, plus anything that just got a response queued. *)
      let flushed = Hashtbl.create 16 in
      let try_flush c =
        if (not (Hashtbl.mem flushed c.fd)) && not (List.memq c !closed) then begin
          Hashtbl.add flushed c.fd ();
          match flush_conn c with
          | `Ok | `Partial -> ()
          | `Closed -> closed := c :: !closed
        end
      in
      List.iter
        (fun fd -> Option.iter try_flush (Hashtbl.find_opt clients fd))
        writable;
      List.iter (fun (c, _) -> try_flush c) batch;
      List.iter
        (fun c ->
          if Hashtbl.mem clients c.fd then begin
            (try Unix.close c.fd with Unix.Unix_error _ -> ());
            Hashtbl.remove clients c.fd;
            drop_client t c.cid
          end)
        !closed
  done;
  (* Best-effort drain of unsent responses — above all the shutdown
     acknowledgement itself — before the fds are closed. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  Hashtbl.iter
    (fun _ c ->
      let rec drain () =
        if Unix.gettimeofday () < deadline then
          match flush_conn c with
          | `Ok | `Closed -> ()
          | `Partial ->
            (match Unix.select [] [ c.fd ] [] 0.1 with
            | exception Unix.Unix_error _ -> ()
            | _ -> ());
            drain ()
      in
      drain ())
    clients
