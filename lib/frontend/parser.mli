(** Recursive-descent parser for MiniProc.

    Grammar (terminators, not separators; [end] closes every block):
    {v
    program   ::= "program" IDENT ";" var-decl* proc-decl* "begin" stmt* "end" "."
    var-decl  ::= "var" IDENT ("," IDENT)* ":" type ";"
    type      ::= "int" | "bool" | "array" "[" INT ("," INT)* "]" "of" "int"
    proc-decl ::= "procedure" IDENT "(" [param (";" param)*] ")" ";"
                  var-decl* proc-decl* "begin" stmt* "end" ";"
    param     ::= ["var"] IDENT ("," IDENT)* ":" type
    stmt      ::= lvalue ":=" expr ";"
                | "if" expr "then" stmt* ["else" stmt*] "end" ";"
                | "while" expr "do" stmt* "end" ";"
                | "for" IDENT ":=" expr "to" expr "do" stmt* "end" ";"
                | "call" IDENT "(" [expr ("," expr)*] ")" ";"
                | "read" lvalue ";"  |  "write" expr ";"  |  "skip" ";"
    lvalue    ::= IDENT ["[" expr ("," expr)* "]"]
    v}
    Expression precedence, loosest first: [or] < [and] < comparisons <
    [+ -] < [* / %] < unary [- not] < atoms. *)

exception Error of Loc.t * string

val parse : ?file:string -> string -> (Ast.program, Loc.t * string) result
(** Parse a complete source string, pulling tokens from {!Lexer} one at
    a time.  Lexical errors are reported through the same [Error]
    channel; the parse stops at the first error in source order, syntax
    or lexical. *)

val parse_expr : ?file:string -> string -> (Ast.expr, Loc.t * string) result
(** Parse a standalone expression (used by tests). *)
