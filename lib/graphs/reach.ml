let from g root =
  let n = Digraph.n_nodes g in
  let seen = Bitvec.create n in
  let stack = ref [ root ] in
  Bitvec.set seen root;
  let rec loop () =
    match !stack with
    | [] -> ()
    | v :: rest ->
      stack := rest;
      Digraph.iter_succ g v (fun w ->
          if not (Bitvec.get seen w) then begin
            Bitvec.set seen w;
            stack := w :: !stack
          end);
      loop ()
  in
  loop ();
  seen

let all g = Array.init (Digraph.n_nodes g) (fun v -> from g v)

let reaches g ~src ~dst = Bitvec.get (from g src) dst
