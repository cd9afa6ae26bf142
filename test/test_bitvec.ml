(* Unit and property tests for the bit-vector substrate. *)

module B = Bitvec

let check_list msg expected v = Alcotest.(check (list int)) msg expected (B.to_list v)

(* --- unit tests --- *)

let test_create_empty () =
  let v = B.create 0 in
  Alcotest.(check int) "length" 0 (B.length v);
  Alcotest.(check bool) "empty" true (B.is_empty v);
  check_list "no bits" [] v

let test_set_get () =
  let v = B.create 130 in
  B.set v 0;
  B.set v 63;
  B.set v 64;
  B.set v 129;
  Alcotest.(check bool) "bit 0" true (B.get v 0);
  Alcotest.(check bool) "bit 1" false (B.get v 1);
  Alcotest.(check bool) "bit 63" true (B.get v 63);
  Alcotest.(check bool) "bit 64" true (B.get v 64);
  Alcotest.(check bool) "bit 129" true (B.get v 129);
  check_list "contents" [ 0; 63; 64; 129 ] v;
  B.unset v 64;
  check_list "after unset" [ 0; 63; 129 ] v

let test_out_of_range () =
  let v = B.create 10 in
  Alcotest.check_raises "get -1" (Invalid_argument "Bitvec.get: index -1 out of [0, 10)")
    (fun () -> ignore (B.get v (-1)));
  Alcotest.check_raises "set 10" (Invalid_argument "Bitvec.set: index 10 out of [0, 10)")
    (fun () -> B.set v 10)

let test_length_mismatch () =
  let a = B.create 5 and b = B.create 6 in
  Alcotest.check_raises "union" (Invalid_argument "Bitvec.union_into: lengths differ (5 vs 6)")
    (fun () -> ignore (B.union_into ~src:a ~dst:b))

let test_union_change_flag () =
  let a = B.of_list 100 [ 1; 50; 99 ] in
  let b = B.of_list 100 [ 50 ] in
  Alcotest.(check bool) "changes" true (B.union_into ~src:a ~dst:b);
  check_list "union result" [ 1; 50; 99 ] b;
  Alcotest.(check bool) "no further change" false (B.union_into ~src:a ~dst:b)

let test_inter_diff () =
  let a = B.of_list 80 [ 1; 2; 3; 64; 65 ] in
  let b = B.of_list 80 [ 2; 3; 4; 65; 79 ] in
  check_list "inter" [ 2; 3; 65 ] (B.inter a b);
  check_list "diff" [ 1; 64 ] (B.diff a b);
  check_list "a unchanged" [ 1; 2; 3; 64; 65 ] a

let test_subset_disjoint () =
  let a = B.of_list 70 [ 3; 69 ] in
  let b = B.of_list 70 [ 1; 3; 69 ] in
  Alcotest.(check bool) "a ⊆ b" true (B.subset a b);
  Alcotest.(check bool) "b ⊄ a" false (B.subset b a);
  Alcotest.(check bool) "not disjoint" false (B.disjoint a b);
  Alcotest.(check bool) "disjoint" true (B.disjoint a (B.of_list 70 [ 0; 2 ]))

let test_cardinal_choose () =
  let v = B.of_list 200 [ 5; 66; 190 ] in
  Alcotest.(check int) "cardinal" 3 (B.cardinal v);
  Alcotest.(check (option int)) "choose" (Some 5) (B.choose v);
  Alcotest.(check (option int)) "choose empty" None (B.choose (B.create 8))

let test_fold_exists () =
  let v = B.of_list 100 [ 10; 20; 30 ] in
  Alcotest.(check int) "fold sum" 60 (B.fold ( + ) v 0);
  Alcotest.(check bool) "exists" true (B.exists (fun i -> i = 20) v);
  Alcotest.(check bool) "not exists" false (B.exists (fun i -> i = 21) v)

let test_blit_clear () =
  let a = B.of_list 33 [ 0; 32 ] in
  let b = B.create 33 in
  B.blit ~src:a ~dst:b;
  check_list "blit" [ 0; 32 ] b;
  B.clear b;
  check_list "clear" [] b;
  check_list "src untouched" [ 0; 32 ] a

(* Pin the branch-free SWAR popcount against the old one-bit-at-a-time
   loop it replaced (Kernighan's bit clear), on the edge words and a
   haystack of random full-width words. *)
let test_popcount_word st =
  let reference x =
    let c = ref 0 and x = ref x in
    while !x <> 0 do
      incr c;
      x := !x land (!x - 1)
    done;
    !c
  in
  List.iter
    (fun x ->
      Alcotest.(check int)
        (Printf.sprintf "popcount %#x" x)
        (reference x) (B.popcount_word x))
    [ 0; 1; 2; 3; -1; max_int; min_int; min_int + 1; 0x1234; lnot 0x1234 ];
  for _ = 1 to 10_000 do
    let x = Int64.to_int (Random.State.bits64 st) in
    let want = reference x in
    let got = B.popcount_word x in
    if want <> got then
      Alcotest.failf "popcount_word %#x: want %d, got %d" x want got
  done

(* Pin [search] against a linear scan on random ascending prefixes
   with repeats: first occurrence when present, [-(insertion + 1)]
   otherwise, and nothing past the prefix read. *)
let test_search st =
  let reference a n x =
    let i = ref 0 in
    while !i < n && a.(!i) < x do
      incr i
    done;
    if !i < n && a.(!i) = x then !i else -(!i) - 1
  in
  for _ = 1 to 2_000 do
    let len = Random.State.int st 12 in
    let a = Array.init len (fun _ -> Random.State.int st 10) in
    Array.sort Int.compare a;
    let n = if len = 0 then 0 else Random.State.int st (len + 1) in
    for x = -1 to 10 do
      let want = reference a n x and got = B.search a n x in
      if want <> got then
        Alcotest.failf "search [|%s|] %d %d: want %d, got %d"
          (String.concat "; " (Array.to_list (Array.map string_of_int a)))
          n x want got
    done
  done

(* (vector_ops, word_ops) counted since [before]. *)
let ops_since before =
  let since name = Obs.Metric.value_since ~since:before (Obs.Metric.counter name) in
  (since "bitvec.vector_ops", since "bitvec.word_ops")

let test_stats_counters () =
  let before = Obs.Metric.snapshot () in
  let a = B.create 1000 and b = B.create 1000 in
  ignore (B.union_into ~src:a ~dst:b);
  ignore (B.equal a b);
  let vector_ops, word_ops = ops_since before in
  Alcotest.(check int) "two vector ops (plus creates don't count)" 2 vector_ops;
  Alcotest.(check bool) "word ops counted" true (word_ops > 0)

(* --- hybrid representation --- *)

(* The hybrid small-set/dense split must be invisible: same sets, same
   change flags, same exceptions as the dense-only mode — only the
   word-op accounting differs.  These tests drive random op sequences
   across the promotion/demotion boundary (universe 1000 → threshold
   [small_threshold 1000]) against a sorted-list model, in both modes. *)

let with_mode hybrid f =
  let saved = B.hybrid_enabled () in
  B.set_hybrid hybrid;
  Fun.protect ~finally:(fun () -> B.set_hybrid saved) f

let hybrid_len = 1000

type hop =
  | Hset of int
  | Hunset of int
  | Hunion  (* v1 ∪= v0 *)
  | Hinter  (* v1 ∩= v0 *)
  | Hdiff   (* v1 ∖= v0 *)
  | Hblit   (* v1 := v0 *)
  | Hclear

let gen_hop =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun i -> Hset i) (0 -- (hybrid_len - 1)));
        (2, map (fun i -> Hunset i) (0 -- (hybrid_len - 1)));
        (2, return Hunion);
        (1, return Hinter);
        (1, return Hdiff);
        (1, return Hblit);
        (1, return Hclear);
      ])

let print_hop = function
  | Hset i -> Printf.sprintf "set %d" i
  | Hunset i -> Printf.sprintf "unset %d" i
  | Hunion -> "union"
  | Hinter -> "inter"
  | Hdiff -> "diff"
  | Hblit -> "blit"
  | Hclear -> "clear"

let arb_hops =
  QCheck.make
    QCheck.Gen.(list_size (0 -- 120) (pair bool gen_hop))
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (fun (snd_target, op) ->
             Printf.sprintf "%s@v%d" (print_hop op) (if snd_target then 1 else 0))
           ops))

module IS = Set.Make (Int)

(* Apply one op to (vector pair, model pair); return the op's change
   flag (or None for flagless ops) so modes can be compared on it. *)
let apply_hop (v0, v1) (m0, m1) (snd_target, op) =
  let v, m, other = if snd_target then (v1, m1, v0) else (v0, m0, v1) in
  ignore other;
  match op with
  | Hset i ->
    B.set v i;
    let m' = IS.add i m in
    ((if snd_target then (m0, m') else (m', m1)), None)
  | Hunset i ->
    B.unset v i;
    let m' = IS.remove i m in
    ((if snd_target then (m0, m') else (m', m1)), None)
  | Hclear ->
    B.clear v;
    ((if snd_target then (m0, IS.empty) else (IS.empty, m1)), None)
  | Hblit ->
    if snd_target then begin
      B.blit ~src:v0 ~dst:v1;
      ((m0, m0), None)
    end
    else begin
      B.blit ~src:v1 ~dst:v0;
      ((m1, m1), None)
    end
  | Hunion ->
    let changed = B.union_into ~src:v0 ~dst:v1 in
    ((m0, IS.union m0 m1), Some changed)
  | Hinter ->
    let changed = B.inter_into ~src:v0 ~dst:v1 in
    ((m0, IS.inter m0 m1), Some changed)
  | Hdiff ->
    let changed = B.diff_into ~src:v0 ~dst:v1 in
    ((m0, IS.diff m1 m0), Some changed)

let run_hops ~hybrid ops =
  with_mode hybrid @@ fun () ->
  let v0 = B.create hybrid_len and v1 = B.create hybrid_len in
  let threshold = B.small_threshold hybrid_len in
  let trace = ref [] in
  let rec go models = function
    | [] -> ()
    | op :: rest ->
      let models, flag = apply_hop (v0, v1) models op in
      let m0, m1 = models in
      (* Set semantics must match the model after every op... *)
      if B.to_list v0 <> IS.elements m0 then failwith "v0 diverged from model";
      if B.to_list v1 <> IS.elements m1 then failwith "v1 diverged from model";
      (* ...and in hybrid mode a Small repr must respect the threshold
         (promotion is mandatory past it). *)
      if hybrid then
        List.iter
          (fun v ->
            if B.repr_kind v = `Small && B.cardinal v > threshold then
              failwith "small repr over threshold")
          [ v0; v1 ];
      if not hybrid then
        List.iter
          (fun v ->
            if B.repr_kind v = `Small then failwith "small repr in dense mode")
          [ v0; v1 ];
      trace := flag :: !trace;
      go models rest
  in
  go (IS.empty, IS.empty) ops;
  (B.to_list v0, B.to_list v1, List.rev !trace)

(* Both modes, same sequence: same sets, same change flags. *)
let prop_hybrid_model ops =
  let h0, h1, hflags = run_hops ~hybrid:true ops in
  let d0, d1, dflags = run_hops ~hybrid:false ops in
  h0 = d0 && h1 = d1 && hflags = dflags

(* Read-only queries agree across representations of the same set. *)
let prop_hybrid_queries (a, b) =
  with_mode true @@ fun () ->
  let va = B.of_list 100 a and vb = B.of_list 100 b in
  (* Force va dense while keeping the same set, via a same-set blit
     into a vector pushed over the threshold and back. *)
  let dense_a = B.create 100 in
  B.blit ~src:va ~dst:dense_a;
  for i = 0 to 99 do
    B.set dense_a i
  done;
  B.blit ~src:va ~dst:dense_a;
  B.equal va dense_a
  && B.cardinal va = B.cardinal dense_a
  && B.subset va vb = B.subset dense_a vb
  && B.disjoint va vb = B.disjoint dense_a vb
  && B.to_list (B.union dense_a vb) = B.to_list (B.union va vb)
  && B.to_list (B.inter dense_a vb) = B.to_list (B.inter va vb)
  && B.to_list (B.diff dense_a vb) = B.to_list (B.diff va vb)

let test_hybrid_promotion_boundary () =
  with_mode true @@ fun () ->
  let v = B.create hybrid_len in
  let threshold = B.small_threshold hybrid_len in
  for i = 1 to threshold do
    B.set v (i * 7);
    Alcotest.(check bool)
      (Printf.sprintf "small at card %d" i)
      true
      (B.repr_kind v = `Small)
  done;
  B.set v 1;
  Alcotest.(check bool) "dense past threshold" true (B.repr_kind v = `Dense);
  Alcotest.(check int) "cardinal across promotion" (threshold + 1) (B.cardinal v);
  B.clear v;
  Alcotest.(check bool) "clear demotes" true (B.repr_kind v = `Small)

(* The accounting contract: ops on small sets are charged by live size,
   not universe size — and bump [small_ops]; dense mode charges the
   full word span as before. *)
let test_hybrid_accounting () =
  let len = 100_000 in
  let full_span = (len + Sys.int_size - 1) / Sys.int_size in
  let probe mode =
    with_mode mode @@ fun () ->
    let a = B.of_list len [ 1; 50_000; 99_999 ] in
    let b = B.of_list len [ 2; 50_000 ] in
    let before = Obs.Metric.snapshot () in
    ignore (B.union_into ~src:a ~dst:b);
    ops_since before
  in
  let hv, hw = probe true in
  let dv, dw = probe false in
  Alcotest.(check int) "one vector op (hybrid)" 1 hv;
  Alcotest.(check int) "one vector op (dense)" 1 dv;
  Alcotest.(check bool)
    (Printf.sprintf "hybrid words ~ live size (%d)" hw)
    true (hw <= 8);
  Alcotest.(check int) "dense words = full span" full_span dw;
  with_mode true @@ fun () ->
  let snap = Obs.Metric.snapshot () in
  let a = B.of_list len [ 3 ] and b = B.of_list len [ 4 ] in
  ignore (B.union_into ~src:a ~dst:b);
  Alcotest.(check bool) "small_ops counted" true
    (Obs.Metric.value_since ~since:snap (Obs.Metric.counter "bitvec.small_ops")
    > 0)

(* A dense-to-dense blit is charged by the source's occupied prefix
   alone: what the destination held before must not show in the count
   (a reused scratch vector would otherwise make word ops depend on
   evaluation order). *)
let test_blit_charges_source () =
  with_mode true @@ fun () ->
  let len = 10_000 in
  let src = B.of_list len (List.init 200 Fun.id) in
  let wide = B.of_list len (List.init 200 (fun i -> i * 50)) in
  let narrow = B.of_list len (List.init 200 (fun i -> i + 1)) in
  Alcotest.(check bool) "dense operands" true
    (List.for_all (fun v -> B.repr_kind v = `Dense) [ src; wide; narrow ]);
  let cost dst =
    let before = Obs.Metric.snapshot () in
    B.blit ~src ~dst;
    let ops = ops_since before in
    Alcotest.(check bool) "copied" true (B.equal src dst);
    ops
  in
  let src_words = (200 + Sys.int_size - 1) / Sys.int_size in
  Alcotest.(check (pair int int)) "wide destination" (1, src_words) (cost wide);
  Alcotest.(check (pair int int)) "narrow destination" (1, src_words) (cost narrow)

(* --- set-bit enumeration at every bit position ---

   The walk finds each member's bit within its word from the isolated
   low bit, so every position of a word is its own case: bit 0, the
   middle bits and bit [int_size - 1], the sign bit.  Positions
   [0 .. pos_span - 1] cover three whole words.  The universe is wide
   enough that the small threshold is twice [pos_span]: every subset of
   the span stays small when built in hybrid mode, and a dense
   intersection that keeps the whole span still demotes. *)

let pos_span = 3 * Sys.int_size
let pos_len = 2 * pos_span * Sys.int_size

type form = Small | Dense_hybrid | Dense_legacy

let form_name = function
  | Small -> "small"
  | Dense_hybrid -> "dense/hybrid"
  | Dense_legacy -> "dense/legacy"

(* A dense vector holding [members], whatever its cardinality. *)
let dense_of members = with_mode false (fun () -> B.of_list pos_len members)

(* [members] in [form], and the mode its operations run under. *)
let build form members =
  match form with
  | Small ->
    let v = with_mode true (fun () -> B.of_list pos_len members) in
    if B.repr_kind v <> `Small then Alcotest.fail "expected a small vector";
    (v, true)
  | Dense_hybrid -> (dense_of members, true)
  | Dense_legacy -> (dense_of members, false)

let get_scan v = List.filter (B.get v) (List.init (B.length v) Fun.id)

let int_list = Alcotest.(list int)

(* Every enumeration of [v] against a [get] scan of it. *)
let check_enumerations what v =
  let want = get_scan v in
  let collect iter =
    let acc = ref [] in
    iter (fun i -> acc := i :: !acc) v;
    List.rev !acc
  in
  Alcotest.check int_list (what ^ ": iter") want (collect B.iter);
  Alcotest.check int_list (what ^ ": iter_uncounted") want (collect B.iter_uncounted);
  Alcotest.check int_list (what ^ ": fold") want
    (List.rev (B.fold (fun i acc -> i :: acc) v []));
  Alcotest.check int_list (what ^ ": to_list") want (B.to_list v);
  Alcotest.(check (option int)) (what ^ ": choose")
    (match want with [] -> None | m :: _ -> Some m)
    (B.choose v);
  List.iter
    (fun m ->
      if not (B.exists (fun i -> i = m) v) then Alcotest.failf "%s: exists misses %d" what m)
    want;
  if B.exists (fun i -> not (List.mem i want)) v then
    Alcotest.failf "%s: exists finds a non-member" what

(* [members] in [form], read out directly, after a demoting (in hybrid
   mode) [inter_into] with a dense source holding the whole span, and
   after a [diff_into] that removes every other position of the span. *)
let check_position_set what form members =
  let v, hybrid = build form members in
  with_mode hybrid @@ fun () ->
  let what = Printf.sprintf "%s %s" (form_name form) what in
  Alcotest.check int_list (what ^ ": get scan") members (get_scan v);
  check_enumerations what v;
  let all = dense_of (List.init pos_span Fun.id) in
  let dst = B.copy v in
  ignore (B.inter_into ~src:all ~dst);
  if hybrid && B.repr_kind dst <> `Small then
    Alcotest.failf "%s: the inter_into did not demote" what;
  check_enumerations (what ^ " after inter_into") dst;
  Alcotest.check int_list (what ^ ": inter_into") members (get_scan dst);
  let others = List.filter (fun i -> not (List.mem i members)) (List.init pos_span Fun.id) in
  let dst = dense_of (List.init pos_span Fun.id) in
  ignore (B.diff_into ~src:(dense_of others) ~dst);
  check_enumerations (what ^ " after diff_into") dst;
  Alcotest.check int_list (what ^ ": diff_into") members (get_scan dst)

let test_every_position () =
  List.iter
    (fun form ->
      for i = 0 to pos_span - 1 do
        check_position_set (Printf.sprintf "bit %d alone" i) form [ i ]
      done;
      check_position_set "every bit" form (List.init pos_span Fun.id))
    [ Small; Dense_hybrid; Dense_legacy ]

let arb_positions =
  QCheck.make
    QCheck.Gen.(
      triple (oneofl [ Small; Dense_hybrid; Dense_legacy ]) (0 -- 100)
        (list_repeat pos_span (0 -- 99)))
    ~print:(fun (form, density, draws) ->
      Printf.sprintf "%s density %d%% draws [%s]" (form_name form) density
        (String.concat ";" (List.map string_of_int draws)))

let prop_positions (form, density, draws) =
  let members = List.concat (List.mapi (fun i d -> if d < density then [ i ] else []) draws) in
  check_position_set "random" form members;
  true

(* --- property tests against a list model --- *)

let arb_sets =
  let gen =
    QCheck.Gen.(
      pair (list_size (0 -- 40) (0 -- 99)) (list_size (0 -- 40) (0 -- 99)))
  in
  QCheck.make gen ~print:(fun (a, b) ->
      Printf.sprintf "(%s, %s)"
        (String.concat ";" (List.map string_of_int a))
        (String.concat ";" (List.map string_of_int b)))

let model_of l = List.sort_uniq compare l

let prop_union (a, b) =
  let va = B.of_list 100 a and vb = B.of_list 100 b in
  B.to_list (B.union va vb) = model_of (a @ b)

let prop_inter (a, b) =
  let va = B.of_list 100 a and vb = B.of_list 100 b in
  B.to_list (B.inter va vb) = List.filter (fun x -> List.mem x b) (model_of a)

let prop_diff (a, b) =
  let va = B.of_list 100 a and vb = B.of_list 100 b in
  B.to_list (B.diff va vb) = List.filter (fun x -> not (List.mem x b)) (model_of a)

let prop_cardinal (a, _) =
  B.cardinal (B.of_list 100 a) = List.length (model_of a)

let prop_subset_iff (a, b) =
  let va = B.of_list 100 a and vb = B.of_list 100 b in
  B.subset va vb = List.for_all (fun x -> List.mem x b) a

let prop_equal_roundtrip (a, _) =
  let v = B.of_list 100 a in
  B.equal v (B.of_list 100 (List.rev a)) && B.to_list v = model_of a

let () =
  Helpers.run "bitvec"
    [
      ( "unit",
        [
          Alcotest.test_case "create empty" `Quick test_create_empty;
          Alcotest.test_case "set/get/unset across words" `Quick test_set_get;
          Alcotest.test_case "out of range raises" `Quick test_out_of_range;
          Alcotest.test_case "length mismatch raises" `Quick test_length_mismatch;
          Alcotest.test_case "union change flag" `Quick test_union_change_flag;
          Alcotest.test_case "inter and diff" `Quick test_inter_diff;
          Alcotest.test_case "subset and disjoint" `Quick test_subset_disjoint;
          Alcotest.test_case "cardinal and choose" `Quick test_cardinal_choose;
          Alcotest.test_case "fold and exists" `Quick test_fold_exists;
          Alcotest.test_case "blit and clear" `Quick test_blit_clear;
          Helpers.seeded_case "popcount_word vs reference" `Quick
            test_popcount_word;
          Helpers.seeded_case "search vs linear scan" `Quick test_search;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
          Alcotest.test_case "hybrid promotion boundary" `Quick
            test_hybrid_promotion_boundary;
          Alcotest.test_case "hybrid cost accounting" `Quick
            test_hybrid_accounting;
          Alcotest.test_case "blit charges the source only" `Quick
            test_blit_charges_source;
          Alcotest.test_case "enumeration at every bit position" `Quick
            test_every_position;
        ] );
      ( "properties",
        [
          Helpers.qtest "union = list union" arb_sets prop_union;
          Helpers.qtest "inter = list inter" arb_sets prop_inter;
          Helpers.qtest "diff = list diff" arb_sets prop_diff;
          Helpers.qtest "cardinal = |set|" arb_sets prop_cardinal;
          Helpers.qtest "subset iff containment" arb_sets prop_subset_iff;
          Helpers.qtest "equal ignores insertion order" arb_sets prop_equal_roundtrip;
          Helpers.qtest "hybrid = dense = model over op sequences" arb_hops
            prop_hybrid_model;
          Helpers.qtest "queries agree across representations" arb_sets
            prop_hybrid_queries;
          Helpers.qtest "enumerations = get scan on random position sets" arb_positions
            prop_positions;
        ] );
    ]
