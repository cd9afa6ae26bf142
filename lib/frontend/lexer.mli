(** Hand-written lexer for MiniProc.

    Supports nested [(* ... *)] block comments and [// ...] line
    comments.  All tokens carry the location of their first
    character.  The lexer streams: {!next_token} scans one token from
    where the previous one ended, so a parser that pulls tokens on
    demand reports the first error in source order, syntax or
    lexical. *)

exception Error of Loc.t * string
(** Raised on an unexpected character, an unterminated comment, or an
    integer literal that does not fit in an OCaml [int]. *)

type t
(** A scan in progress over one source string. *)

val create : ?file:string -> string -> t
(** Start a scan at the first character; locations name [file]
    (default ["<string>"]). *)

val next_token : t -> Token.t
(** Scan the next token.  At the end of input it returns [EOF], and
    keeps returning it. *)

val token_loc : t -> Loc.t
(** The location of the token {!next_token} returned last, made on
    demand: a token whose position nobody keeps costs no [Loc.t]. *)

val tokenize : ?file:string -> string -> (Token.t * Loc.t) list
(** Scan a whole source string with {!next_token}, pairing each token
    with its location; the final element is always [(EOF, loc)]. *)
