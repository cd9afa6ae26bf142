(* Provenance / explain soundness.

   Two contracts from the observability work:

   1. {e Replay}: every witness chain the explain layer reconstructs is
      a real path in the call / binding multigraph, and replaying each
      step against the finished solutions (and the ground-truth local
      sets) re-derives the fact.  Checked exhaustively: every GMOD/GUSE
      bit, every set RMOD/RUSE β node and every §5 alias pair of every
      program must yield a chain that validates step by step.

   2. {e Invisibility}: [~provenance:true] changes neither a single
      result bit nor a single counted operation — recording reasons
      must stay off the measured paths. *)

module A = Core.Analyze
module P = Core.Provenance
module E = Core.Explain
module B = Callgraph.Binding

let analyze prog = A.run ~provenance:true prog

let gset (t : A.t) = function `Mod -> t.A.gmod | `Use -> t.A.guse
let rres (t : A.t) = function `Mod -> t.A.rmod | `Use -> t.A.ruse
let iplus (t : A.t) = function `Mod -> t.A.imod_plus | `Use -> t.A.iuse_plus
let ifold (t : A.t) = function `Mod -> t.A.imod | `Use -> t.A.iuse

(* The flat (unfolded) LMOD/LUSE family — the eq. 5 ground truth a
   terminal [Glocal] step must replay against. *)
let flat_local (t : A.t) = function
  | `Mod -> Frontend.Local.imod_flat t.A.info
  | `Use -> Frontend.Local.iuse_flat t.A.info

let side_name = function `Mod -> "MOD" | `Use -> "USE"

let ref_base (s : Ir.Prog.site) pos =
  if pos < 0 || pos >= Array.length s.Ir.Prog.args then None
  else
    match s.Ir.Prog.args.(pos) with
    | Ir.Prog.Arg_ref lv -> Some (Ir.Expr.lvalue_base lv)
    | Ir.Prog.Arg_value _ -> None

(* --- GMOD/GUSE chains ------------------------------------------------ *)

(* One link of eq. 4/5: either a propagation step whose side condition
   holds and whose successor continues at the right procedure, or a
   terminal seed that replays against ground truth. *)
let gmod_step_ok t side ~var (step : E.gmod_step) (next : E.gmod_step option) =
  let prog = t.A.prog in
  match (step.E.reason, next) with
  | P.Gcall sid, Some n ->
    let s = Ir.Prog.site prog sid in
    s.Ir.Prog.caller = step.E.proc
    && s.Ir.Prog.callee = n.E.proc
    && Bitvec.get (gset t side).(n.E.proc) var
    && not (Bitvec.get (Ir.Info.local t.A.info n.E.proc) var)
  | P.Gnested c, Some n ->
    n.E.proc = c
    && List.mem c (Ir.Prog.proc prog step.E.proc).Ir.Prog.nested
    && Bitvec.get (iplus t side).(c) var
    && not (Bitvec.get (Ir.Info.local t.A.info c) var)
  | P.Glocal, None -> Bitvec.get (flat_local t side).(step.E.proc) var
  | P.Gbind { site; arg_pos }, None ->
    let s = Ir.Prog.site prog site in
    let callee = Ir.Prog.proc prog s.Ir.Prog.callee in
    s.Ir.Prog.caller = step.E.proc
    && ref_base s arg_pos = Some var
    && arg_pos < Array.length callee.Ir.Prog.formals
    && Core.Rmod.modified (rres t side) callee.Ir.Prog.formals.(arg_pos)
  | _ -> false (* terminal reason mid-chain, or propagation at the end *)

let rec gmod_chain_ok t side ~var = function
  | [] -> false
  | [ last ] -> gmod_step_ok t side ~var last None
  | step :: (next :: _ as rest) ->
    gmod_step_ok t side ~var step (Some next) && gmod_chain_ok t side ~var rest

let check_gmod_fact t side ~proc ~var =
  match E.gmod_chain t ~side ~proc ~var with
  | None -> QCheck.Test.fail_reportf "no chain for %s fact p%d v%d" (side_name side) proc var
  | Some [] -> QCheck.Test.fail_reportf "empty chain for p%d v%d" proc var
  | Some (head :: _ as chain) ->
    if head.E.proc <> proc then
      QCheck.Test.fail_reportf "chain for p%d v%d starts at p%d" proc var head.E.proc;
    if not (gmod_chain_ok t side ~var chain) then
      QCheck.Test.fail_reportf "chain for %s p%d v%d does not replay" (side_name side)
        proc var;
    true

(* --- RMOD/RUSE chains ------------------------------------------------ *)

let check_rmod_fact t side ~var =
  let b = t.A.binding in
  let res = rres t side in
  match E.rmod_chain t ~side ~var with
  | None -> QCheck.Test.fail_reportf "no β chain for %s formal v%d" (side_name side) var
  | Some [] -> QCheck.Test.fail_reportf "empty β chain for v%d" var
  | Some (head :: _ as chain) ->
    if B.node_opt b var <> Some head.E.node then
      QCheck.Test.fail_reportf "β chain for v%d starts at node %d" var head.E.node;
    let rec walk : E.rmod_step list -> bool = function
      | [] -> assert false
      | [ last ] -> (
        (* A chain ends at a seed: the node's formal is in its owner's
           folded IMOD/IUSE. *)
        match last.E.reason with
        | P.Rseed ->
          let v' = B.var b last.E.node in
          let owner = Option.get (Ir.Prog.var_owner (Ir.Prog.var t.A.prog v')) in
          res.Core.Rmod.rmod.(last.E.node) && Bitvec.get (ifold t side).(owner) v'
        | P.Redge _ -> false)
      | step :: (next :: _ as rest) -> (
        match step.E.reason with
        | P.Rseed -> false
        | P.Redge e ->
          (* eq. 6: the bit flows edge-backwards, so the chain walks the
             edge forwards, from its source to its destination. *)
          res.Core.Rmod.rmod.(step.E.node)
          && Graphs.Digraph.edge_src b.B.graph e = step.E.node
          && Graphs.Digraph.edge_dst b.B.graph e = next.E.node
          && walk rest)
    in
    if not (walk chain) then
      QCheck.Test.fail_reportf "β chain for %s v%d does not replay" (side_name side) var;
    true

(* --- alias pairs ----------------------------------------------------- *)

let alias_link_ok t (l : E.alias_link) =
  let prog = t.A.prog in
  let x, y = l.E.pair in
  Core.Alias.may_alias t.A.alias ~proc:l.E.aproc x y
  &&
  match l.E.reason with
  | P.Apositions { site; pos_i; pos_j } ->
    let s = Ir.Prog.site prog site in
    let callee = Ir.Prog.proc prog s.Ir.Prog.callee in
    l.E.aproc = s.Ir.Prog.callee
    && (match (ref_base s pos_i, ref_base s pos_j) with
       | Some a, Some b -> a = b
       | _ -> false)
    && Core.Alias.norm callee.Ir.Prog.formals.(pos_i) callee.Ir.Prog.formals.(pos_j)
       = (x, y)
  | P.Avisible { site; pos } ->
    let s = Ir.Prog.site prog site in
    let callee = Ir.Prog.proc prog s.Ir.Prog.callee in
    l.E.aproc = s.Ir.Prog.callee
    && (match ref_base s pos with
       | Some b ->
         Core.Alias.norm callee.Ir.Prog.formals.(pos) b = (x, y)
         && Ir.Prog.visible prog ~proc:s.Ir.Prog.callee ~var:b
       | None -> false)
  | P.Apropagated { site; from_pair } ->
    let s = Ir.Prog.site prog site in
    let fx, fy = from_pair in
    l.E.aproc = s.Ir.Prog.callee
    && Core.Alias.may_alias t.A.alias ~proc:s.Ir.Prog.caller fx fy
  | P.Ainherited { parent } ->
    (Ir.Prog.proc prog l.E.aproc).Ir.Prog.parent = Some parent
    && Core.Alias.may_alias t.A.alias ~proc:parent x y
  | P.Apointsto { site; pos } ->
    (* A points-to-introduced pair: the flagged position is a
       dereference actual of the right site. *)
    let s = Ir.Prog.site prog site in
    l.E.aproc = s.Ir.Prog.callee
    && pos < Array.length s.Ir.Prog.args
    &&
    (match s.Ir.Prog.args.(pos) with
    | Ir.Prog.Arg_ref (Ir.Expr.Lderef _) -> true
    | _ -> false)

let check_alias_fact t ~proc x y =
  match E.alias_links t ~proc x y with
  | None | Some [] ->
    QCheck.Test.fail_reportf "no derivation for alias <%d,%d> in p%d" x y proc
  | Some (head :: _ as links) ->
    if head.E.aproc <> proc || head.E.pair <> Core.Alias.norm x y then
      QCheck.Test.fail_reportf "alias derivation head mismatch for p%d" proc;
    List.iter
      (fun l ->
        if not (alias_link_ok t l) then
          let lx, ly = l.E.pair in
          let r =
            match l.E.reason with
            | P.Apositions { site; pos_i; pos_j } ->
              Printf.sprintf "Apositions s%d %d/%d" site pos_i pos_j
            | P.Avisible { site; pos } -> Printf.sprintf "Avisible s%d %d" site pos
            | P.Apropagated { site; from_pair = fx, fy } ->
              Printf.sprintf "Apropagated s%d <%d,%d>" site fx fy
            | P.Ainherited { parent } -> Printf.sprintf "Ainherited p%d" parent
            | P.Apointsto { site; pos } -> Printf.sprintf "Apointsto s%d %d" site pos
          in
          QCheck.Test.fail_reportf "alias link <%d,%d> in p%d (%s) does not replay" lx
            ly l.E.aproc r)
      links;
    true

(* --- exhaustive per-program check ------------------------------------ *)

(* Returns the number of facts checked so tests can insist the corpus
   was not vacuous. *)
let check_program prog =
  let t = analyze prog in
  let facts = ref 0 in
  List.iter
    (fun side ->
      Array.iteri
        (fun pid set ->
          List.iter
            (fun vid ->
              incr facts;
              ignore (check_gmod_fact t side ~proc:pid ~var:vid))
            (Bitvec.to_list set))
        (gset t side);
      let res = rres t side in
      Ir.Prog.iter_vars prog (fun v ->
          if Ir.Prog.is_ref_formal v then
            let vid = v.Ir.Prog.vid in
            match B.node_opt t.A.binding vid with
            | Some n when res.Core.Rmod.rmod.(n) ->
              incr facts;
              ignore (check_rmod_fact t side ~var:vid)
            | _ -> ()))
    [ `Mod; `Use ];
  Ir.Prog.iter_procs prog (fun p ->
      List.iter
        (fun (x, y) ->
          incr facts;
          ignore (check_alias_fact t ~proc:p.Ir.Prog.pid x y))
        (Core.Alias.pairs t.A.alias p.Ir.Prog.pid));
  !facts

let prop_replay_flat seed = check_program (Helpers.flat_of_seed seed) >= 0
let prop_replay_nested seed = check_program (Helpers.nested_of_seed seed) >= 0

let prop_replay_generated seed =
  let rand = Random.State.make [| seed; 0x3a17e55 |] in
  check_program (Workload.Gen.generate rand Workload.Gen.default) >= 0

let test_families_exhaustive () =
  let total =
    List.fold_left
      (fun acc (name, prog) ->
        let n = check_program prog in
        if n = 0 then Alcotest.failf "%s: no facts to explain" name;
        acc + n)
      0
      [
        ("ref_chain", Workload.Families.ref_chain 10);
        ("ref_cycle", Workload.Families.ref_cycle 6);
        ("global_chain", Workload.Families.global_chain 8);
        ("mutual_pair", Workload.Families.mutual_pair ());
        ("diamond", Workload.Families.diamond ());
        ("nested_textbook", Workload.Families.nested_textbook ());
        ("arrays", Workload.Arrays.generate ~seed:3 ~n_kernels:5);
      ]
  in
  Helpers.check_bool "corpus is not vacuous" true (total > 100)

(* --- every listed fact resolves ---------------------------------------

   [all_facts] names each fact in the grammar [--fact] and the server
   accept; fed back through [parse_fact] and [fact_witness] it must
   resolve and return the witness it was listed with.  Pointer
   programs list facts about other procedures' locals a dereference
   reaches, which go by their qualified name. *)

let check_facts_resolve name (a : A.t) ~locs =
  let facts = E.all_facts a ~locs in
  if facts = [] then Alcotest.failf "%s: no facts listed" name;
  List.iter
    (fun (fact, witness) ->
      match E.parse_fact fact with
      | Error e -> Alcotest.failf "%s: %s does not parse: %s" name fact e
      | Ok f -> (
        match E.fact_witness a ~locs f with
        | Error e -> Alcotest.failf "%s: %s does not resolve: %s" name fact e
        | Ok w ->
          if w <> witness then
            Alcotest.failf "%s: %s resolves to another witness" name fact))
    facts

let test_all_facts_resolve () =
  let tiers = [ Ptsto.Steensgaard; Ptsto.Andersen ] in
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".mp" then begin
        let path = Filename.concat "../programs" file in
        let src = In_channel.with_open_bin path In_channel.input_all in
        match Frontend.Sema.compile_with_locs ~file:path src with
        | Error _ -> Alcotest.failf "%s does not compile" file
        | Ok (prog, locs) ->
          List.iter
            (fun ptsto ->
              check_facts_resolve file (A.run ~provenance:true ~ptsto prog) ~locs)
            tiers
      end)
    (Sys.readdir "../programs");
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun ptsto ->
          check_facts_resolve name
            (A.run ~provenance:true ~ptsto prog)
            ~locs:(Frontend.Locs.dummy prog))
        tiers)
    [
      ("ptr_chain", Workload.Families.ptr_chain 6);
      ("ptr_funnel", Workload.Families.ptr_funnel 6);
      ("ptr_heap", Workload.Families.ptr_heap 6);
    ]

(* --- provenance is invisible ----------------------------------------- *)

let counters_only d =
  List.filter
    (fun (name, _) ->
      match Obs.Metric.find name with
      | Some h -> Obs.Metric.kind h = Obs.Metric.Counter
      | None -> false)
    d

let same_bits (a : A.t) (b : A.t) =
  Array.for_all2 Bitvec.equal a.A.gmod b.A.gmod
  && Array.for_all2 Bitvec.equal a.A.guse b.A.guse
  && Array.for_all2 Bool.equal a.A.rmod.Core.Rmod.rmod b.A.rmod.Core.Rmod.rmod
  && Array.for_all2 Bool.equal a.A.ruse.Core.Rmod.rmod b.A.ruse.Core.Rmod.rmod
  && a.A.rmod.Core.Rmod.steps = b.A.rmod.Core.Rmod.steps
  && Core.Alias.total_pairs a.A.alias = Core.Alias.total_pairs b.A.alias

let prop_provenance_invisible seed =
  let prog = Helpers.nested_of_seed ~n:20 seed in
  let measure provenance =
    let snap = Obs.Metric.snapshot () in
    let t = A.run ~provenance prog in
    (* The forest is built on first read; read it inside the window. *)
    ignore (A.provenance_forest t);
    (t, counters_only (Obs.Metric.delta ~since:snap))
  in
  let off, d_off = measure false in
  let on, d_on = measure true in
  if not (same_bits off on) then
    QCheck.Test.fail_reportf "provenance changed result bits (seed %d)" seed;
  List.iter2
    (fun (name, a) (name', b) ->
      if name <> name' || a <> b then
        QCheck.Test.fail_reportf "provenance changed op counts: %s %d <> %d" name a b)
    d_off d_on;
  Option.is_some on.A.provenance && Option.is_none off.A.provenance

(* --- reason golden ---

   Digests of the GMOD, GUSE, RMOD and RUSE reasons: every set β node's
   reason and every [(p, v)] reason of both sides, on the MUSTMOD golden
   corpus (both points-to tiers on pointer programs).  The MUSTMOD and
   alias reasons have their own goldens in test_mustmod and test_alias;
   any change to which first derivation the forests record changes a
   digest here. *)

let rmod_reason_str = function
  | P.Rseed -> "seed"
  | P.Redge e -> Printf.sprintf "e%d" e

let gmod_reason_str = function
  | P.Glocal -> "local"
  | P.Gbind { site; arg_pos } -> Printf.sprintf "bind s%d a%d" site arg_pos
  | P.Gnested c -> Printf.sprintf "nested p%d" c
  | P.Gcall s -> Printf.sprintf "call s%d" s

let reason_digest_text prog =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  let tiers =
    if Ptsto.has_pointers prog then [ Ptsto.Steensgaard; Ptsto.Andersen ]
    else [ Ptsto.Steensgaard ]
  in
  List.iter
    (fun tier ->
      let pv = Option.get (A.provenance_forest (A.run ~provenance:true ~ptsto:tier prog)) in
      add "tier %s\n" (Ptsto.tier_name tier);
      List.iter
        (fun (label, side) ->
          Array.iteri
            (fun node r ->
              Option.iter
                (fun r -> add "%s n%d: %s\n" label node (rmod_reason_str r))
                r)
            (P.rmod_reasons pv ~side);
          Hashtbl.fold (fun k r acc -> (k, r) :: acc) (P.gmod_reasons pv ~side) []
          |> List.sort compare
          |> List.iter (fun ((pid, v), r) ->
                 add "g%s p%d %d: %s\n" label pid v (gmod_reason_str r)))
        [ ("mod", `Mod); ("use", `Use) ])
    tiers;
  Buffer.contents b

let reason_digests =
  [
    ("pascal_style s1 d2 n16", "657fb9ccd1496986e67771a40cb3cf43");
    ("pascal_style s1 d2 n64", "c40cf9c224f0a619397a4d17e18c1f31");
    ("pascal_style s1 d2 n256", "a95fdceb306c2c351884aa566c238977");
    ("pascal_style s1 d3 n16", "9d1111986a4774ff6bb11d755b2e4c9e");
    ("pascal_style s1 d3 n64", "896428d76b96d78801fc0d490c865e31");
    ("pascal_style s1 d3 n256", "79a9ea3862a0f1f9a59f72cc9b57c2e9");
    ("pascal_style s1 d4 n16", "e9685356f2582b678f1597a51cda109a");
    ("pascal_style s1 d4 n64", "b6dd5b19b99c4c226a0f2a8d1529d70a");
    ("pascal_style s1 d4 n256", "1015f11537ef01dca3307419c6dd939c");
    ("pascal_style s1 d6 n16", "784d9e89762981a1ad4f1af4b8283202");
    ("pascal_style s1 d6 n64", "c021c76695f7a7be5d65eafccfd3e78a");
    ("pascal_style s1 d6 n256", "dc5b27488e3e909a358b09fb93acadcf");
    ("pascal_style s2 d2 n16", "87bb33cc7b7f7935a11d05451b9f5efa");
    ("pascal_style s2 d2 n64", "2fa65f5d2498fe2de5518015a190913a");
    ("pascal_style s2 d2 n256", "42cc9f95c87b214bbd9e77a325b04f3c");
    ("pascal_style s2 d3 n16", "b61691fefcf6efa41f38de52321e80c0");
    ("pascal_style s2 d3 n64", "e2c7b7cad9c4b108f57179f7b255e1fa");
    ("pascal_style s2 d3 n256", "96f0f41be6dafd4db90bff4fc48bf5f5");
    ("pascal_style s2 d4 n16", "88847f74c9c078d9ee35d36de6a1cc55");
    ("pascal_style s2 d4 n64", "5d866deda8d5e9fb963fd7d6f76ceb95");
    ("pascal_style s2 d4 n256", "09c5e58c16c19d67dced7d0ced3f9581");
    ("pascal_style s2 d6 n16", "62b7df13420c857f14e6e9d813887721");
    ("pascal_style s2 d6 n64", "7a7108f0ec73c2a277992e924967ae96");
    ("pascal_style s2 d6 n256", "1794f6680186268f58f123b86328c191");
    ("pascal_style s3 d2 n16", "41b8e79d035394a39bc012fd0e3d5448");
    ("pascal_style s3 d2 n64", "0a03f4db926b413b968e16fe37aa2abd");
    ("pascal_style s3 d2 n256", "7c050da7b7534422bc8d067074907868");
    ("pascal_style s3 d3 n16", "b8a3e54f3990736462d45e48c4d9791a");
    ("pascal_style s3 d3 n64", "de092f22a2b493166fadacce9dd15d35");
    ("pascal_style s3 d3 n256", "a32739b794148ef9a464ad9dbfa6f771");
    ("pascal_style s3 d4 n16", "da33402ff0f4a09ca0e29cc13b2ed720");
    ("pascal_style s3 d4 n64", "cc84d901b82fdccee775ffa5ecd26b35");
    ("pascal_style s3 d4 n256", "82cb9ae64cc362d7cf45aa21cff4b6e2");
    ("pascal_style s3 d6 n16", "9d7da6ff831c49c350dc3211c43a7b95");
    ("pascal_style s3 d6 n64", "1848afe6b2dc1fa6c0519423c1b63a43");
    ("pascal_style s3 d6 n256", "1a1f464e6c600f7db9238b06aceec88f");
    ("pascal_style s4 d2 n16", "ec3b32a00bf4d86a33129e9454fb5e54");
    ("pascal_style s4 d2 n64", "faad16bacb4dd6c8f63704ffd2cf1aed");
    ("pascal_style s4 d2 n256", "42e7a95700d73b750ea68108d818a893");
    ("pascal_style s4 d3 n16", "65ad8769270a831411a154a07d11cf50");
    ("pascal_style s4 d3 n64", "5d1682a37e7101e6e9ae674d242df68b");
    ("pascal_style s4 d3 n256", "d8d0c2d1f4dc59e7205d1127d6f5e2e3");
    ("pascal_style s4 d4 n16", "3586e1dcf71355429bfe175e86ad26ee");
    ("pascal_style s4 d4 n64", "3dad885858923d9c099a8c6e362d0d3b");
    ("pascal_style s4 d4 n256", "beb1caaf34a770a70a451a8c3ad91c00");
    ("pascal_style s4 d6 n16", "739d2ea35dba9f8c3b474c80a313572e");
    ("pascal_style s4 d6 n64", "e0c046ba0b94458788a7262bc3a6d189");
    ("pascal_style s4 d6 n256", "f9878c6a20c8a5b82f2289b89be81bed");
    ("pascal_style s5 d2 n16", "b9193a04034d301200fd7cdb720c6fa6");
    ("pascal_style s5 d2 n64", "9be8de7df4d8e564a9cd442fd7210e56");
    ("pascal_style s5 d2 n256", "9eb3828dedf6187ac1311c42018717df");
    ("pascal_style s5 d3 n16", "79198307e76e75ce2b28593b4bd08cd3");
    ("pascal_style s5 d3 n64", "1b7bc07b8a9f9c239197c5c543711319");
    ("pascal_style s5 d3 n256", "8ebe852feaa4a1cfa81178b5f6952fbb");
    ("pascal_style s5 d4 n16", "ad4946e3ad15fcf56f3b1be526205cba");
    ("pascal_style s5 d4 n64", "f3949e928ba29d9c7c08a93a71e2f544");
    ("pascal_style s5 d4 n256", "1baf2a6e79614ab594c3b59ec6b43882");
    ("pascal_style s5 d6 n16", "1dc3169ad610aca9b9d338d6198285af");
    ("pascal_style s5 d6 n64", "c13cdd5beaa5fd37dbd66e38d18b78a5");
    ("pascal_style s5 d6 n256", "a9f496073258ce2dbeecba49ecf58ed4");
    ("gen 0", "a14c79eb1063abacc020e46c9ce663d8");
    ("gen 1", "310ee2990815e37c629448e98065ff27");
    ("gen 2", "0a98d8407ef2341c64a5bde74412b4e0");
    ("gen 3", "aa170ac000a037486ff4a10913aa19a6");
    ("gen 4", "877796e5a0bcde22bcd37e332a22f55f");
    ("gen 5", "ba1bd376eefbd8f7cd576ba139dc8a93");
    ("gen 6", "c28016f422d3f481c743b85fbe02d916");
    ("gen 7", "a2e220a75bf906783082e5beb3242b5e");
    ("gen 8", "5886a448cdb8beeecb61af3b3e606122");
    ("gen 9", "d13fee8564b3565b236d8ce5e54e832d");
    ("gen 10", "6c3e1594da3242b43b56823301b53953");
    ("gen 11", "1a6c4c42fb989dd6a8b7d9120241c51a");
    ("gen 12", "2d344dc658f20c5e47cdee373100f61a");
    ("gen 13", "183aff1be29db7bf9f7d6a55b70f64ab");
    ("gen 14", "e78d8686c32a6616a47d79772e98daaa");
    ("gen 15", "191097af40723eef7598d6fa10beabd8");
    ("gen 16", "6be80d949e7b7191fe6690d4205320f4");
    ("gen 17", "4f9c3b299d00230ef9a67aadda1f1ee7");
    ("gen 18", "bdd8b1fc38f3c96abc068d315a26eb89");
    ("gen 19", "b5c52fa03a3ced90d0cb532134add66f");
    ("gen 20", "27cfd1e6ff2a68b848fd05f65d3fea9b");
    ("gen 21", "18a3a8706c93ff2dcfa01747fe8c6f72");
    ("gen 22", "c9a4ce57bc621eaeb0ed3718ec13f962");
    ("gen 23", "0bdb8ad2cf236ac66ba35bf39e7580ed");
    ("gen 24", "39778410411e61b4eb4797bcd71e33f7");
    ("gen 25", "e87d5c74d5d5083b209a3658a289a649");
    ("gen 26", "9e49d071111173ab6fcbde4052619076");
    ("gen 27", "bcb715de13720ee506421340b969bf50");
    ("gen 28", "9be1234313c28bbadd2b70e95c33c97b");
    ("gen 29", "384d56a2f580a1e5d0fcf799688a5e5a");
    ("gen 30", "9961c1c4324b29b5bc3d2c7d97672803");
    ("gen 31", "d8c3dd378ac65143f42b40e08b696b69");
    ("gen 32", "11ab09eabb0b9f8c4db528dfe889f9be");
    ("gen 33", "2ff895649c0b5958510fc72badeb61d6");
    ("gen 34", "d008e041fd7be0cd75e7082857a2629a");
    ("gen 35", "6fdbc862420193eb68fb67b1c60a8698");
    ("gen 36", "004b02d4757b2ea829bfd65e71ddebf9");
    ("gen 37", "2624450e3c475bfeb1b0ec5505fc44b4");
    ("gen 38", "95d6e4015b7c9377566e5ab281885263");
    ("gen 39", "c06b38f8df3c7984e2b609d0dd066e1c");
    ("gen 40", "ff28e0f509a237564eb66bbeab283111");
    ("gen 41", "1067951cbf5c3f2f762c52efc4a1b59e");
    ("gen 42", "5812e36f15f388ebb89dd4338200032f");
    ("gen 43", "1b0e79fa9467e84e966df45ad39dab25");
    ("gen 44", "84a673a24899b5f50af602bda9fdd6c4");
    ("gen 45", "bcdb61aa226c510b8a0f9b917bb92cbb");
    ("gen 46", "aae903389f1e74fae802814746a39c01");
    ("gen 47", "4e8208963d3c0491fd56d7f36b5d3929");
    ("gen 48", "97b576407189384aa4ecdd42d932791d");
    ("gen 49", "84d1eb75935262d9adb0597b50f78f0f");
    ("gen 50", "898354ba7af46d84578df7bb69f8f308");
    ("gen 51", "0daf8bf1b12428ea4bf88e1f3e69e445");
    ("gen 52", "04db31b2184ef61d7e6daf645b6dd11c");
    ("gen 53", "d28f5fe5603db688afec9dcae9b807c8");
    ("gen 54", "d4f5e579ba7a53245b495ab89eb42833");
    ("gen 55", "1f0090545994ce9c132a911a50440920");
    ("gen 56", "4a66f3e33801a853e867299212353ad7");
    ("gen 57", "48570066429c9a15258921f755736205");
    ("gen 58", "44a3c23102717444b2292a5f67b33c10");
    ("gen 59", "95f7c3a288707a3a59e97dd8ea6d6d0e");
    ("nested_textbook", "f83eb82ae6c086a83d2fef27463a1260");
    ("fortran_style s1", "eb841ad4f84b2df88b2bc90dad01e944");
    ("fortran_fixed s1", "41b38f403738f24cf5752be28bc919a4");
    ("dag_style s1", "e0d5dbb2d2989e520d84e2d4e224b8a5");
    ("pascal_style s1", "b6dd5b19b99c4c226a0f2a8d1529d70a");
    ("fortran_style s2", "78eea14778ca824192cc21cc9f8f05c6");
    ("fortran_fixed s2", "b4f77b620eeeb3d9d0f7d10943b2d60e");
    ("dag_style s2", "11616544b3632e5568f8c4100f80d8f5");
    ("pascal_style s2", "5d866deda8d5e9fb963fd7d6f76ceb95");
    ("ptr_chain 2", "befa78fc4b7a336327773078c143dc02");
    ("ptr_funnel 2", "71cfa3ccad8a65e42c87d11ab820044b");
    ("ptr_chain 16", "d4b389a103757ce2f6f1ec1800629e7d");
    ("ptr_funnel 16", "54c194f42b45f2c3da811f4041db0834");
    ("ptr_chain 64", "ec3c64da0252c79f1bb48d9457b66503");
    ("ptr_funnel 64", "6478e2e646487b50482adfeed84a675c");
    ("bank.mp", "ff5c82ab855706d0291153c3cf6af678");
    ("dataflow_demo.mp", "6ac634225de2fd519eec9a055fc41c02");
    ("lint_demo.mp", "a699e6ca1d70f472bc931aaeb328c0ae");
    ("mustmod_demo.mp", "6fa71721be4f2fa1530d83c603463c91");
    ("pipeline.mp", "7f3eedbbf5df4a283b86adaf0b78c720");
    ("pointers.mp", "2923a26c6ce0d014276bf25bb0044a6f");
    ("ptr_lint.mp", "57e2d257df03b503abd088aaa0a1d366");
    ("report.mp", "ea961de5c535815bf2f9a33535c0bcd7");
    ("stencil.mp", "c4ffc8eecde7f2b68a6b5519c13959c9");
  ]

let test_reason_golden () =
  List.iter
    (fun (name, make) ->
      let got = Digest.to_hex (Digest.string (reason_digest_text (make ()))) in
      Alcotest.(check string) name (List.assoc name reason_digests) got)
    (Helpers.must_corpus ())

let () =
  Helpers.run "explain"
    [
      ( "golden",
        [ Alcotest.test_case "GMOD/GUSE/RMOD/RUSE reason digests" `Quick
            test_reason_golden ] );
      ( "replay",
        [
          Alcotest.test_case "fixed families, every fact" `Quick
            test_families_exhaustive;
          Alcotest.test_case "every --all fact resolves through --fact" `Quick
            test_all_facts_resolve;
          Helpers.qtest ~count:40 "flat programs replay" Helpers.arb_flat_prog
            prop_replay_flat;
          Helpers.qtest ~count:40 "nested programs replay" Helpers.arb_nested_prog
            prop_replay_nested;
          Helpers.qtest ~count:25 "generator programs replay" Helpers.arb_flat_prog
            prop_replay_generated;
        ] );
      ( "invisibility",
        [
          Helpers.qtest ~count:30 "bits and op counts identical"
            Helpers.arb_nested_prog prop_provenance_invisible;
        ] );
    ]
