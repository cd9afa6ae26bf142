module Prog = Ir.Prog
module Expr = Ir.Expr

(* Substitute a callee-frame atom into the caller's frame at one call
   site.  [caller_unstable] disqualifies atoms the caller modifies. *)
let subst_atom info ~(site : Prog.site) ~caller_unstable (atom : Section.atom) :
    Section.dim =
  let prog = Ir.Info.prog info in
  match atom with
  | Section.Const _ -> Section.Exact atom
  | Section.Affine { var = u; offset } -> (
    match (Prog.var prog u).Prog.kind with
    | Prog.Global ->
      if Bitvec.get caller_unstable u then Section.Star else Section.Exact atom
    | Prog.Local _ -> Section.Star
    | Prog.Formal { proc; index; _ } ->
      if proc <> site.Prog.callee then Section.Star
      else begin
        (* Translate through the actual at the formal's position. *)
        match site.Prog.args.(index) with
        | Prog.Arg_value e -> (
          match Lrsd.atomize ~unstable:caller_unstable e with
          | Section.Star -> Section.Star
          | Section.Exact (Section.Const c) -> Section.Exact (Section.Const (c + offset))
          | Section.Exact (Section.Affine a) ->
            Section.Exact (Section.Affine { a with offset = a.offset + offset }))
        | Prog.Arg_ref (Expr.Lvar w) ->
          if
            (not (Ir.Types.is_array (Prog.var prog w).Prog.vty))
            && not (Bitvec.get caller_unstable w)
          then Section.Exact (Section.Affine { var = w; offset })
          else Section.Star
        | Prog.Arg_ref (Expr.Lindex _ | Expr.Lderef _) -> Section.Star
      end)

let subst_section info ~site ~caller_unstable (s : Section.t) : Section.t =
  match s with
  | Section.Bottom -> Section.Bottom
  | Section.Section dims ->
    Section.Section
      (Array.map
         (fun d ->
           match d with
           | Section.Star -> Section.Star
           | Section.Exact a -> subst_atom info ~site ~caller_unstable a)
         dims)

let project info ~(site : Prog.site) ~arg_pos ~caller_unstable ~callee_section =
  match site.Prog.args.(arg_pos) with
  | Prog.Arg_value _ -> invalid_arg "Bindfn.project: by-value argument"
  | Prog.Arg_ref (Expr.Lvar base) ->
    (base, subst_section info ~site ~caller_unstable callee_section)
  | Prog.Arg_ref (Expr.Lindex (base, idx)) -> (
    (* Element binding: a scalar formal restricts to one element. *)
    match callee_section with
    | Section.Bottom -> (base, Section.Bottom)
    | Section.Section [||] ->
      ( base,
        Section.Section
          (Array.of_list (List.map (Lrsd.atomize ~unstable:caller_unstable) idx)) )
    | Section.Section _ ->
      invalid_arg "Bindfn.project: element binding with non-scalar formal section")
  | Prog.Arg_ref (Expr.Lderef (base, _)) ->
    (* A dereference actual binds scalar storage; no array section to
       project.  Report the pointer base, itself a scalar (rank 0). *)
    (base, Section.whole ~rank:0)

let retarget_global ~immutable s =
  let keep d =
    match d with
    | Section.Star | Section.Exact (Section.Const _) -> true
    | Section.Exact (Section.Affine { var; _ }) -> Bitvec.get immutable var
  in
  match s with
  | Section.Bottom -> Section.Bottom
  | Section.Section dims when Array.for_all keep dims -> s
  | Section.Section dims ->
    Section.Section (Array.map (fun d -> if keep d then d else Section.Star) dims)
