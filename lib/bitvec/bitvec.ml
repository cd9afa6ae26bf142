(* Hybrid sparse/dense bit vectors.  See bitvec.mli for the API and
   cost-accounting contract.

   Two representations behind one mutable [t]:

   - [Small]: a sorted array of set-bit indices (a [card]-long prefix
     of [elts]).  Operations cost O(live cardinalities), independent of
     the universe size.  Auto-promotes to [Dense] when the cardinality
     exceeds [small_threshold length] (~ the dense word count, so the
     small form is never asymptotically worse than dense in either
     memory or per-op cost).
   - [Dense]: the classic int-array bitset, little-endian bits within a
     word, unused high bits zero — plus an exact [top]: the number of
     words up to and including the highest nonzero one.  Dense
     operations only walk the occupied prefix, so a promoted set whose
     members cluster at low indices (see lib/core/renumber.ml, which
     renumbers a flat program's seeded globals into one compact
     escape universe) still pays live-size costs.

   Representation transitions are pure functions of the per-vector
   operation sequence, so parallel schedules that replay the sequential
   op sequence per vector (lib/par) reproduce word counts exactly.

   [set_hybrid false] restores the seed's dense-only behaviour: new
   vectors are created dense, promotion/demotion never happens, and
   every dense operation charges the full word count of the universe —
   the legacy accounting, kept so hybrid runs can be qcheck-compared
   against dense runs op-for-op. *)

let bits_per_word = Sys.int_size
let words_for length = (length + bits_per_word - 1) / bits_per_word

type repr =
  | Small of { mutable card : int; mutable elts : int array }
  | Dense of { mutable top : int; words : int array }

type t = {
  length : int;
  mutable repr : repr;
}

(* Operation counters, see mli.  Registry-backed: the counters are
   monotonic Obs handles, never reset; consumers measure intervals with
   Obs.Metric.snapshot/delta. *)
let vector_ops_metric = Obs.Metric.counter "bitvec.vector_ops"
let word_ops_metric = Obs.Metric.counter "bitvec.word_ops"
let small_ops_metric = Obs.Metric.counter "bitvec.small_ops"

let count_words n =
  Obs.Metric.incr vector_ops_metric;
  Obs.Metric.add word_ops_metric n

let count_small n =
  Obs.Metric.incr small_ops_metric;
  count_words n

(* --- mode --- *)

let hybrid_mode = ref true

let set_hybrid b = hybrid_mode := b
let hybrid_enabled () = !hybrid_mode
let small_threshold length = max 16 (words_for length)

(* Cost of a dense walk that actually touched [actual] words: the
   occupied prefix in hybrid mode, the full legacy universe in dense
   mode. *)
let dense_cost length actual =
  if !hybrid_mode then max 1 actual else max 1 (words_for length)

(* --- representation helpers (uncounted) --- *)

(* Branch-free SWAR popcount.  The masks are built programmatically
   because the usual 0x5555... literals overflow OCaml's 63-bit [int];
   repeating the pattern across [Sys.int_size] bits (high partial
   repetition truncated by [lsl]) gives the same field layout.  The
   final multiply accumulates the byte sums into the top byte; the
   top field is only [int_size mod 8] bits wide, but the total count
   (<= int_size < 128) always fits. *)
let rep pattern width =
  let rec go acc shift =
    if shift >= Sys.int_size then acc else go (acc lor (pattern lsl shift)) (shift + width)
  in
  go 0 0

let m1 = rep 0x1 2
let m2 = rep 0x3 4
let m4 = rep 0xf 8
let m8 = rep 0x01 8
let popcount_shift = (Sys.int_size - 1) / 8 * 8

let popcount_word x =
  let x = x - ((x lsr 1) land m1) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land m4 in
  (x * m8) lsr popcount_shift

(* Index of the one set bit of [low], a power of two (bit
   [bits_per_word - 1], the sign bit, is [min_int]): the ones below it,
   [low - 1], counted by the popcount kernel.  Constant time at every
   position. *)
let bit_index low = popcount_word (low - 1)

let small_copy card elts = Small { card; elts = Array.sub elts 0 card }

let repr_copy = function
  | Small { card; elts } -> small_copy card elts
  | Dense { top; words } -> Dense { top; words = Array.copy words }

(* Exact top of a word array, scanning down from [from] (exclusive). *)
let rescan_top words from =
  let w = ref (from - 1) in
  while !w >= 0 && words.(!w) = 0 do
    decr w
  done;
  !w + 1

(* Promote a small prefix to a dense array.  The zero-fill of the
   fresh array is allocation, not a bit-vector step; the counted cost
   of a promotion is the [card] scattered elements (charged by the
   caller). *)
let dense_of_small length card elts =
  let words = Array.make (words_for length) 0 in
  for i = 0 to card - 1 do
    let e = elts.(i) in
    words.(e / bits_per_word) <- words.(e / bits_per_word) lor (1 lsl (e mod bits_per_word))
  done;
  let top = if card = 0 then 0 else (elts.(card - 1) / bits_per_word) + 1 in
  Dense { top; words }

(* Collect the [card] set bits of [words.(0..top-1)] into a sorted
   element array (the demotion direction). *)
let small_of_dense top words card =
  let elts = Array.make (max card 1) 0 in
  let k = ref 0 in
  for w = 0 to top - 1 do
    let word = ref words.(w) in
    let base = w * bits_per_word in
    while !word <> 0 do
      let low = !word land - !word in
      elts.(!k) <- base + bit_index low;
      incr k;
      word := !word lxor low
    done
  done;
  Small { card; elts }

(* Binary search in a sorted prefix: the index of [x] if present,
   [-(insertion point + 1)] otherwise.  Monomorphic and allocation-free:
   every small-form point operation goes through it. *)
let search (elts : int array) card (x : int) =
  let lo = ref 0 and hi = ref card in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if elts.(mid) < x then lo := mid + 1 else hi := mid
  done;
  if !lo < card && elts.(!lo) = x then !lo else -(!lo) - 1

(* --- construction --- *)

let create length =
  if length < 0 then invalid_arg "Bitvec.create: negative length";
  let repr =
    if !hybrid_mode then Small { card = 0; elts = [||] }
    else Dense { top = 0; words = Array.make (words_for length) 0 }
  in
  { length; repr }

let length v = v.length

let check_index v i op =
  if i < 0 || i >= v.length then
    invalid_arg (Printf.sprintf "Bitvec.%s: index %d out of [0, %d)" op i v.length)

let check_same_length a b op =
  if a.length <> b.length then
    invalid_arg
      (Printf.sprintf "Bitvec.%s: lengths differ (%d vs %d)" op a.length b.length)

(* --- point operations (uncounted, as before) --- *)

let get v i =
  check_index v i "get";
  match v.repr with
  | Small { card; elts } -> search elts card i >= 0
  | Dense { words; _ } -> words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let rec set v i =
  check_index v i "set";
  match v.repr with
  | Small r ->
    let found = search r.elts r.card i in
    if found < 0 then begin
      let at = -found - 1 in
      if r.card > small_threshold v.length - 1 then begin
        (* Promotion boundary crossed via [set]: materialise dense,
           then set the bit there.  Point operations stay uncounted. *)
        v.repr <- dense_of_small v.length r.card r.elts;
        set v i
      end
      else begin
        let cap = Array.length r.elts in
        if r.card = cap then begin
          let grown = Array.make (max 4 (2 * cap)) 0 in
          Array.blit r.elts 0 grown 0 r.card;
          r.elts <- grown
        end;
        Array.blit r.elts at r.elts (at + 1) (r.card - at);
        r.elts.(at) <- i;
        r.card <- r.card + 1
      end
    end
  | Dense d ->
    let w = i / bits_per_word in
    d.words.(w) <- d.words.(w) lor (1 lsl (i mod bits_per_word));
    if w + 1 > d.top then d.top <- w + 1

let unset v i =
  check_index v i "unset";
  match v.repr with
  | Small r ->
    let at = search r.elts r.card i in
    if at >= 0 then begin
      Array.blit r.elts (at + 1) r.elts at (r.card - at - 1);
      r.card <- r.card - 1
    end
  | Dense d ->
    let w = i / bits_per_word in
    d.words.(w) <- d.words.(w) land lnot (1 lsl (i mod bits_per_word));
    if w = d.top - 1 && d.words.(w) = 0 then d.top <- rescan_top d.words w

(* --- whole-vector operations (counted) --- *)

let clear v =
  if !hybrid_mode then begin
    count_small 1;
    v.repr <- Small { card = 0; elts = [||] }
  end
  else begin
    count_words (words_for v.length);
    match v.repr with
    | Small r -> r.card <- 0
    | Dense d ->
      Array.fill d.words 0 (Array.length d.words) 0;
      d.top <- 0
  end

let copy v =
  (match v.repr with
  | Small { card; _ } -> count_small (max 1 card)
  | Dense { top; _ } -> count_words (dense_cost v.length top));
  { length = v.length; repr = repr_copy v.repr }

let blit ~src ~dst =
  check_same_length src dst "blit";
  match (src.repr, dst.repr) with
  | Dense s, Dense d ->
    (* In place: copy the occupied prefix, zero what the destination
       had above it.  Charged by the source alone, like the other two
       cases: the destination's old contents (often a shared scratch
       vector) must not leak into the count. *)
    count_words (dense_cost src.length s.top);
    Array.blit s.words 0 d.words 0 s.top;
    if d.top > s.top then Array.fill d.words s.top (d.top - s.top) 0;
    d.top <- s.top
  | Small { card; _ }, _ ->
    count_small (max 1 card);
    dst.repr <- repr_copy src.repr
  | Dense { top; _ }, _ ->
    count_words (dense_cost src.length top);
    dst.repr <- repr_copy src.repr

(* Merge two sorted prefixes into [out]; returns the merged length. *)
let merge_union a ca b cb out =
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < ca && !j < cb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then (out.(!k) <- x; incr i)
    else if y < x then (out.(!k) <- y; incr j)
    else (out.(!k) <- x; incr i; incr j);
    incr k
  done;
  while !i < ca do out.(!k) <- a.(!i); incr i; incr k done;
  while !j < cb do out.(!k) <- b.(!j); incr j; incr k done;
  !k

let union_into ~src ~dst =
  check_same_length src dst "union_into";
  match (src.repr, dst.repr) with
  | Small s, Small d ->
    let out = Array.make (max 1 (s.card + d.card)) 0 in
    let merged = merge_union s.elts s.card d.elts d.card out in
    let changed = merged <> d.card in
    if changed then
      if !hybrid_mode && merged > small_threshold dst.length then begin
        count_small (max 1 (s.card + d.card) + merged);
        dst.repr <- dense_of_small dst.length merged out
      end
      else begin
        count_small (max 1 (s.card + d.card));
        d.elts <- out;
        d.card <- merged
      end
    else count_small (max 1 (s.card + d.card));
    changed
  | Small s, Dense d ->
    count_small (max 1 s.card);
    let changed = ref false in
    for i = 0 to s.card - 1 do
      let e = s.elts.(i) in
      let w = e / bits_per_word in
      let bit = 1 lsl (e mod bits_per_word) in
      if d.words.(w) land bit = 0 then begin
        d.words.(w) <- d.words.(w) lor bit;
        changed := true;
        if w + 1 > d.top then d.top <- w + 1
      end
    done;
    !changed
  | Dense s, Small d ->
    (* Result is at least |src| big: promote the destination, then take
       the dense path.  Promotion charges the scattered elements. *)
    count_small d.card;
    dst.repr <- dense_of_small dst.length d.card d.elts;
    (match dst.repr with
    | Dense d' ->
      count_words (dense_cost src.length s.top);
      let changed = ref false in
      for w = 0 to s.top - 1 do
        let v = d'.words.(w) lor s.words.(w) in
        if v <> d'.words.(w) then begin
          d'.words.(w) <- v;
          changed := true
        end
      done;
      if s.top > d'.top then d'.top <- s.top;
      !changed
    | Small _ -> assert false)
  | Dense s, Dense d ->
    count_words (dense_cost src.length s.top);
    let changed = ref false in
    let span = if !hybrid_mode then s.top else Array.length s.words in
    for w = 0 to span - 1 do
      let v = d.words.(w) lor s.words.(w) in
      if v <> d.words.(w) then begin
        d.words.(w) <- v;
        changed := true
      end
    done;
    if s.top > d.top then d.top <- s.top;
    !changed

(* Sorted intersection of two prefixes into [out]; returns length. *)
let merge_inter a ca b cb out =
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < ca && !j < cb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then incr i
    else if y < x then incr j
    else (out.(!k) <- x; incr i; incr j; incr k)
  done;
  !k

let inter_into ~src ~dst =
  check_same_length src dst "inter_into";
  match (src.repr, dst.repr) with
  | Small s, Small d ->
    count_small (max 1 (s.card + d.card));
    let out = Array.make (max 1 d.card) 0 in
    let kept = merge_inter s.elts s.card d.elts d.card out in
    let changed = kept <> d.card in
    if changed then begin
      d.elts <- out;
      d.card <- kept
    end;
    changed
  | Dense s, Small d ->
    (* Filter the small destination by membership probes. *)
    count_small (max 1 d.card);
    let k = ref 0 in
    for i = 0 to d.card - 1 do
      let e = d.elts.(i) in
      if s.words.(e / bits_per_word) land (1 lsl (e mod bits_per_word)) <> 0 then begin
        d.elts.(!k) <- e;
        incr k
      end
    done;
    let changed = !k <> d.card in
    d.card <- !k;
    changed
  | Small s, Dense d ->
    (* Result ⊆ src, so it is small: collect src's elements present in
       dst, and charge the dense prefix scan that decides [changed]. *)
    let kept = Array.make (max 1 s.card) 0 in
    let k = ref 0 in
    for i = 0 to s.card - 1 do
      let e = s.elts.(i) in
      if d.words.(e / bits_per_word) land (1 lsl (e mod bits_per_word)) <> 0 then begin
        kept.(!k) <- e;
        incr k
      end
    done;
    let card_dst = ref 0 in
    let span = if !hybrid_mode then d.top else Array.length d.words in
    for w = 0 to span - 1 do
      card_dst := !card_dst + popcount_word d.words.(w)
    done;
    let changed = !k <> !card_dst in
    if !hybrid_mode then begin
      count_small (max 1 s.card + span);
      dst.repr <- Small { card = !k; elts = kept }
    end
    else begin
      count_words (max 1 s.card + span);
      Array.fill d.words 0 (Array.length d.words) 0;
      d.top <- 0;
      for i = 0 to !k - 1 do
        let e = kept.(i) in
        let w = e / bits_per_word in
        d.words.(w) <- d.words.(w) lor (1 lsl (e mod bits_per_word));
        if w + 1 > d.top then d.top <- w + 1
      done
    end;
    changed
  | Dense s, Dense d ->
    let span = if !hybrid_mode then d.top else Array.length d.words in
    let changed = ref false in
    let card = ref 0 in
    let last = ref 0 in
    for w = 0 to span - 1 do
      let sv = if w < s.top then s.words.(w) else 0 in
      let v = d.words.(w) land sv in
      if v <> d.words.(w) then begin
        d.words.(w) <- v;
        changed := true
      end;
      if v <> 0 then begin
        card := !card + popcount_word v;
        last := w + 1
      end
    done;
    d.top <- (if !hybrid_mode then !last else rescan_top d.words (Array.length d.words));
    if !hybrid_mode && !card <= small_threshold dst.length / 2 then begin
      (* Demotion boundary: the intersection shrank below half the
         threshold; collect the survivors into the small form. *)
      count_small (max 1 span + !last);
      dst.repr <- small_of_dense !last d.words !card
    end
    else count_words (dense_cost dst.length span);
    !changed

(* Sorted difference a ∖ b into [out]; returns length. *)
let merge_diff a ca b cb out =
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < ca && !j < cb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then (out.(!k) <- x; incr i; incr k)
    else if y < x then incr j
    else (incr i; incr j)
  done;
  while !i < ca do out.(!k) <- a.(!i); incr i; incr k done;
  !k

let diff_into ~src ~dst =
  check_same_length src dst "diff_into";
  match (src.repr, dst.repr) with
  | Small s, Small d ->
    count_small (max 1 (s.card + d.card));
    let out = Array.make (max 1 d.card) 0 in
    let kept = merge_diff d.elts d.card s.elts s.card out in
    let changed = kept <> d.card in
    if changed then begin
      d.elts <- out;
      d.card <- kept
    end;
    changed
  | Dense s, Small d ->
    count_small (max 1 d.card);
    let k = ref 0 in
    for i = 0 to d.card - 1 do
      let e = d.elts.(i) in
      if s.words.(e / bits_per_word) land (1 lsl (e mod bits_per_word)) = 0 then begin
        d.elts.(!k) <- e;
        incr k
      end
    done;
    let changed = !k <> d.card in
    d.card <- !k;
    changed
  | Small s, Dense d ->
    count_small (max 1 s.card);
    let changed = ref false in
    for i = 0 to s.card - 1 do
      let e = s.elts.(i) in
      let w = e / bits_per_word in
      let bit = 1 lsl (e mod bits_per_word) in
      if d.words.(w) land bit <> 0 then begin
        d.words.(w) <- d.words.(w) land lnot bit;
        changed := true
      end
    done;
    if d.top > 0 && d.words.(d.top - 1) = 0 then d.top <- rescan_top d.words d.top;
    !changed
  | Dense s, Dense d ->
    let span =
      if !hybrid_mode then min s.top d.top else Array.length d.words
    in
    count_words (dense_cost dst.length span);
    let changed = ref false in
    for w = 0 to span - 1 do
      let sv = if w < s.top then s.words.(w) else 0 in
      let v = d.words.(w) land lnot sv in
      if v <> d.words.(w) then begin
        d.words.(w) <- v;
        changed := true
      end
    done;
    if d.top > 0 && d.words.(d.top - 1) = 0 then d.top <- rescan_top d.words d.top;
    !changed

let union a b =
  let r = copy a in
  ignore (union_into ~src:b ~dst:r);
  r

let inter a b =
  let r = copy a in
  ignore (inter_into ~src:b ~dst:r);
  r

let diff a b =
  let r = copy a in
  ignore (diff_into ~src:b ~dst:r);
  r

(* Check a dense prefix [words.(0..top-1)] against a sorted element
   array: true iff they encode the same set. *)
let dense_equals_small top words card elts =
  let i = ref 0 in
  let ok = ref true in
  let w = ref 0 in
  while !ok && !w < top do
    let expected = ref 0 in
    let base = !w * bits_per_word in
    let limit = base + bits_per_word in
    while !i < card && elts.(!i) < limit do
      expected := !expected lor (1 lsl (elts.(!i) - base));
      incr i
    done;
    if words.(!w) <> !expected then ok := false;
    incr w
  done;
  !ok && !i = card

let equal a b =
  check_same_length a b "equal";
  match (a.repr, b.repr) with
  | Small x, Small y ->
    if x.card <> y.card then (count_small 1; false)
    else begin
      count_small (max 1 x.card);
      let rec loop i = i < 0 || (x.elts.(i) = y.elts.(i) && loop (i - 1)) in
      loop (x.card - 1)
    end
  | Small s, Dense d | Dense d, Small s ->
    count_words (dense_cost a.length d.top);
    dense_equals_small d.top d.words s.card s.elts
  | Dense x, Dense y ->
    if !hybrid_mode && x.top <> y.top then (count_words 1; false)
    else begin
      let span = if !hybrid_mode then x.top else Array.length x.words in
      count_words (dense_cost a.length span);
      let rec loop w = w < 0 || (x.words.(w) = y.words.(w) && loop (w - 1)) in
      loop (span - 1)
    end

let subset a b =
  check_same_length a b "subset";
  match (a.repr, b.repr) with
  | Small x, _ ->
    count_small (max 1 x.card);
    let rec loop i = i < 0 || (get b x.elts.(i) && loop (i - 1)) in
    loop (x.card - 1)
  | Dense x, Small y ->
    (* a ⊆ b iff every occupied word of a is covered by b's elements. *)
    count_words (dense_cost a.length x.top);
    let i = ref 0 in
    let ok = ref true in
    let w = ref 0 in
    while !ok && !w < x.top do
      let cover = ref 0 in
      let base = !w * bits_per_word in
      let limit = base + bits_per_word in
      while !i < y.card && y.elts.(!i) < limit do
        cover := !cover lor (1 lsl (y.elts.(!i) - base));
        incr i
      done;
      if x.words.(!w) land lnot !cover <> 0 then ok := false;
      incr w
    done;
    !ok
  | Dense x, Dense y ->
    if !hybrid_mode && x.top > y.top then (count_words 1; false)
    else begin
      let span = if !hybrid_mode then x.top else Array.length x.words in
      count_words (dense_cost a.length span);
      let rec loop w =
        w < 0
        || (x.words.(w) land lnot (if w < y.top then y.words.(w) else 0) = 0
            && loop (w - 1))
      in
      loop (span - 1)
    end

let disjoint a b =
  check_same_length a b "disjoint";
  match (a.repr, b.repr) with
  | Small x, _ ->
    count_small (max 1 x.card);
    let rec loop i = i < 0 || ((not (get b x.elts.(i))) && loop (i - 1)) in
    loop (x.card - 1)
  | _, Small y ->
    count_small (max 1 y.card);
    let rec loop i = i < 0 || ((not (get a y.elts.(i))) && loop (i - 1)) in
    loop (y.card - 1)
  | Dense x, Dense y ->
    let span = if !hybrid_mode then min x.top y.top else Array.length x.words in
    count_words (dense_cost a.length span);
    let rec loop w = w < 0 || (x.words.(w) land y.words.(w) = 0 && loop (w - 1)) in
    loop (span - 1)

let is_empty v =
  match v.repr with
  | Small { card; _ } ->
    count_small 1;
    card = 0
  | Dense d ->
    count_words (dense_cost v.length 1);
    d.top = 0

let cardinal v =
  match v.repr with
  | Small { card; _ } ->
    count_small 1;
    card
  | Dense d ->
    count_words (dense_cost v.length d.top);
    let acc = ref 0 in
    for w = 0 to d.top - 1 do
      acc := !acc + popcount_word d.words.(w)
    done;
    !acc

let live_estimate v =
  match v.repr with
  | Small { card; _ } -> card
  | Dense { top; _ } -> top * bits_per_word

let repr_kind v = match v.repr with Small _ -> `Small | Dense _ -> `Dense

(* The set-bit walk behind [iter] and [iter_uncounted], ascending:
   O(1) per occupied word and per member. *)
let walk f v =
  match v.repr with
  | Small { card; elts } ->
    for i = 0 to card - 1 do
      f elts.(i)
    done
  | Dense d ->
    for w = 0 to d.top - 1 do
      let base = w * bits_per_word in
      let rest = ref d.words.(w) in
      while !rest <> 0 do
        let low = !rest land - !rest in
        f (base + bit_index low);
        rest := !rest lxor low
      done
    done

(* What every enumeration charges: the walk's live size. *)
let charge_walk v =
  match v.repr with
  | Small { card; _ } -> count_small (max 1 card)
  | Dense d -> count_words (dense_cost v.length d.top)

let iter f v =
  charge_walk v;
  walk f v

let iter_uncounted = walk

let fold f v init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) v;
  !acc

exception Found

let exists p v =
  try
    iter (fun i -> if p i then raise Found) v;
    false
  with Found -> true

(* The members of word [w], whose bit 0 is index [base], ascending and
   consed onto [tail]; at most [bits_per_word] frames deep. *)
let rec word_members base w tail =
  if w = 0 then tail
  else
    let low = w land -w in
    (base + bit_index low) :: word_members base (w lxor low) tail

(* One pass from the top down, so the list comes out ascending with no
   reversal. *)
let to_list v =
  charge_walk v;
  match v.repr with
  | Small { card; elts } ->
    let rec down i acc = if i < 0 then acc else down (i - 1) (elts.(i) :: acc) in
    down (card - 1) []
  | Dense d ->
    let acc = ref [] in
    for w = d.top - 1 downto 0 do
      acc := word_members (w * bits_per_word) d.words.(w) !acc
    done;
    !acc

let of_list n is =
  let v = create n in
  List.iter (fun i -> set v i) is;
  v

let choose v =
  let result = ref None in
  (try iter (fun i -> result := Some i; raise Found) v with Found -> ());
  !result

let pp ppf v =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Format.pp_print_int)
    (to_list v)
