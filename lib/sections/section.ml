type atom =
  | Const of int
  | Affine of {
      var : int;
      offset : int;
    }

type dim =
  | Exact of atom
  | Star

type t =
  | Bottom
  | Section of dim array

let bottom = Bottom
let whole ~rank = Section (Array.make rank Star)
let element atoms = Section (Array.of_list (List.map (fun a -> Exact a) atoms))

let equal_atom a b =
  match (a, b) with
  | Const x, Const y -> x = y
  | Affine { var = v1; offset = o1 }, Affine { var = v2; offset = o2 } ->
    v1 = v2 && o1 = o2
  | (Const _ | Affine _), _ -> false

let equal_dim a b =
  match (a, b) with
  | Star, Star -> true
  | Exact x, Exact y -> equal_atom x y
  | (Star | Exact _), _ -> false

let equal a b =
  match (a, b) with
  | Bottom, Bottom -> true
  | Section d1, Section d2 ->
    Array.length d1 = Array.length d2 && Array.for_all2 equal_dim d1 d2
  | (Bottom | Section _), _ -> false

let join a b =
  match (a, b) with
  | Bottom, x | x, Bottom -> x
  | Section d1, Section d2 ->
    if Array.length d1 <> Array.length d2 then
      invalid_arg "Section.join: rank mismatch";
    Section
      (Array.map2 (fun x y -> if equal_dim x y then x else Star) d1 d2)

(* [join a b = b], decided without building the join. *)
let leq a b =
  match (a, b) with
  | Bottom, _ -> true
  | Section _, Bottom -> false
  | Section d1, Section d2 ->
    if Array.length d1 <> Array.length d2 then
      invalid_arg "Section.join: rank mismatch";
    Array.for_all2
      (fun x y -> match y with Star -> true | Exact _ -> equal_dim x y)
      d1 d2

let rank = function
  | Bottom -> None
  | Section d -> Some (Array.length d)

(* Provably-disjoint test per dimension: two exact atoms that denote
   different values.  Distinct variables may coincide at run time, so
   only constants and same-variable offsets separate. *)
let surely_different a b =
  match (a, b) with
  | Const x, Const y -> x <> y
  | Affine { var = v1; offset = o1 }, Affine { var = v2; offset = o2 } ->
    v1 = v2 && o1 <> o2
  | Const _, Affine _ | Affine _, Const _ -> false

let intersects a b =
  match (a, b) with
  | Bottom, _ | _, Bottom -> false
  | Section d1, Section d2 ->
    Array.length d1 = Array.length d2
    && not
         (Array.exists2
            (fun x y ->
              match (x, y) with
              | Exact p, Exact q -> surely_different p q
              | (Star | Exact _), _ -> false)
            d1 d2)

let height ~rank = rank + 2

(* Registered on first use, so that commands which never run the
   section analysis do not list the counter. *)
let count_joins n = Obs.Metric.add (Obs.Metric.counter "sections.joins") n

let pp_atom var_name ppf = function
  | Const c -> Format.pp_print_int ppf c
  | Affine { var; offset = 0 } -> Format.pp_print_string ppf (var_name var)
  | Affine { var; offset } when offset > 0 ->
    Format.fprintf ppf "%s+%d" (var_name var) offset
  | Affine { var; offset } -> Format.fprintf ppf "%s%d" (var_name var) offset

let pp ?(var_name = fun v -> Printf.sprintf "v%d" v) ppf = function
  | Bottom -> Format.pp_print_string ppf "_"
  | Section [||] -> Format.pp_print_string ppf "*"
  | Section dims ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         (fun ppf -> function
           | Star -> Format.pp_print_string ppf "*"
           | Exact a -> pp_atom var_name ppf a))
      (Array.to_list dims)
