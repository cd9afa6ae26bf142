type t = {
  program : string;
  name : string;
  engine : Incremental.Engine.t;
  base_lint : Lint.Diagnostic.t list Lazy.t;
}

let create (entry : Registry.entry) ~name =
  {
    program = entry.Registry.name;
    name;
    engine = Incremental.Engine.of_analysis (Lazy.force entry.Registry.analysis);
    base_lint = entry.Registry.base_lint;
  }

let analysis t = Incremental.Engine.analysis t.engine
let edits t = Incremental.Engine.edits_applied t.engine

(* Until its first edit the engine holds the registry's base analysis,
   and the registry linted that with the same rules at the same dummy
   positions: its findings are the engine's, without a relint. *)
let lint t =
  if edits t = 0 then Lazy.force t.base_lint else Incremental.Engine.lint t.engine
