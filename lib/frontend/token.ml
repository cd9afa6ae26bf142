type t =
  | IDENT of string
  | INT of int
  | PROGRAM
  | PROCEDURE
  | VAR
  | BEGIN
  | END
  | IF
  | THEN
  | ELSE
  | WHILE
  | DO
  | FOR
  | TO
  | CALL
  | READ
  | WRITE
  | SKIP
  | TINT
  | TBOOL
  | ARRAY
  | OF
  | PTR
  | NEW
  | AND
  | OR
  | NOT
  | TRUE
  | FALSE
  | SEMI
  | COLON
  | COMMA
  | DOT
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | ASSIGN
  | PLUS
  | MINUS
  | STAR
  | AMP
  | SLASH
  | PERCENT
  | LT
  | LE
  | GT
  | GE
  | EQEQ
  | NE
  | EOF

(* A match on the string compiles to a few word comparisons, and each
   [Some] below is a constant: recognising a word allocates nothing. *)
let keyword_of_string = function
  | "program" -> Some PROGRAM
  | "procedure" -> Some PROCEDURE
  | "var" -> Some VAR
  | "begin" -> Some BEGIN
  | "end" -> Some END
  | "if" -> Some IF
  | "then" -> Some THEN
  | "else" -> Some ELSE
  | "while" -> Some WHILE
  | "do" -> Some DO
  | "for" -> Some FOR
  | "to" -> Some TO
  | "call" -> Some CALL
  | "read" -> Some READ
  | "write" -> Some WRITE
  | "skip" -> Some SKIP
  | "int" -> Some TINT
  | "bool" -> Some TBOOL
  | "array" -> Some ARRAY
  | "of" -> Some OF
  | "ptr" -> Some PTR
  | "new" -> Some NEW
  | "and" -> Some AND
  | "or" -> Some OR
  | "not" -> Some NOT
  | "true" -> Some TRUE
  | "false" -> Some FALSE
  | _ -> None

let to_string = function
  | IDENT s -> s
  | INT n -> string_of_int n
  | PROGRAM -> "program"
  | PROCEDURE -> "procedure"
  | VAR -> "var"
  | BEGIN -> "begin"
  | END -> "end"
  | IF -> "if"
  | THEN -> "then"
  | ELSE -> "else"
  | WHILE -> "while"
  | DO -> "do"
  | FOR -> "for"
  | TO -> "to"
  | CALL -> "call"
  | READ -> "read"
  | WRITE -> "write"
  | SKIP -> "skip"
  | TINT -> "int"
  | TBOOL -> "bool"
  | ARRAY -> "array"
  | OF -> "of"
  | PTR -> "ptr"
  | NEW -> "new"
  | AND -> "and"
  | OR -> "or"
  | NOT -> "not"
  | TRUE -> "true"
  | FALSE -> "false"
  | SEMI -> ";"
  | COLON -> ":"
  | COMMA -> ","
  | DOT -> "."
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | ASSIGN -> ":="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | AMP -> "&"
  | SLASH -> "/"
  | PERCENT -> "%"
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | EQEQ -> "=="
  | NE -> "!="
  | EOF -> "<eof>"

let pp ppf t = Format.pp_print_string ppf (to_string t)
