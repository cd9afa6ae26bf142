module Int_map = Map.Make (Int)

(* Non-[Bottom] entries only; [n_vars] sizes [to_bits]. *)
type t = {
  n_vars : int;
  mutable entries : Section.t Int_map.t;
}

let create prog = { n_vars = Ir.Prog.n_vars prog; entries = Int_map.empty }
let copy t = { n_vars = t.n_vars; entries = t.entries }

let get t vid =
  match Int_map.find vid t.entries with
  | s -> s
  | exception Not_found -> Section.bottom

let add t vid s =
  let old = get t vid in
  if Section.leq s old then false
  else begin
    t.entries <- Int_map.add vid (Section.join old s) t.entries;
    true
  end

let iter f t = Int_map.iter f t.entries

let join_into ~src ~dst =
  Int_map.fold (fun vid s changed -> add dst vid s || changed) src.entries false

let equal a b = a.n_vars = b.n_vars && Int_map.equal Section.equal a.entries b.entries

let to_bits t =
  let bits = Bitvec.create t.n_vars in
  Int_map.iter (fun vid _ -> Bitvec.set bits vid) t.entries;
  bits

let touched t = Int_map.bindings t.entries

let pp prog ppf t =
  let var_name v = (Ir.Prog.var prog v).Ir.Prog.vname in
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf (vid, s) ->
         Format.fprintf ppf "%s%a" (var_name vid) (Section.pp ~var_name) s))
    (touched t)
