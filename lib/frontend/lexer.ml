exception Error of Loc.t * string

type t = {
  src : string;
  file : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  (* Where the last token scanned starts. *)
  mutable tok_line : int;
  mutable tok_col : int;
}

let create ?(file = "<string>") src =
  {
    src;
    file;
    len = String.length src;
    pos = 0;
    line = 1;
    col = 1;
    tok_line = 1;
    tok_col = 1;
  }

let loc st = Loc.make ~file:st.file ~line:st.line ~col:st.col
let token_loc st = Loc.make ~file:st.file ~line:st.tok_line ~col:st.tok_col

(* The character at [i], or NUL past the end.  Only compared against
   printable characters, so a NUL in the source never matches; the end
   of input is tested on [pos] itself. *)
let char_at st i = if i < st.len then String.unsafe_get st.src i else '\000'

(* Step over one character on the current line (anything but '\n'). *)
let bump st =
  st.pos <- st.pos + 1;
  st.col <- st.col + 1

let advance st =
  if char_at st st.pos = '\n' then begin
    st.line <- st.line + 1;
    st.col <- 1;
    st.pos <- st.pos + 1
  end
  else bump st

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let rec skip_block_comment st start_loc depth =
  if st.pos >= st.len then raise (Error (start_loc, "unterminated comment"));
  match String.unsafe_get st.src st.pos with
  | '*' when char_at st (st.pos + 1) = ')' ->
    bump st;
    bump st;
    if depth > 1 then skip_block_comment st start_loc (depth - 1)
  | '(' when char_at st (st.pos + 1) = '*' ->
    bump st;
    bump st;
    skip_block_comment st start_loc (depth + 1)
  | _ ->
    advance st;
    skip_block_comment st start_loc depth

let skip_line_comment st =
  while st.pos < st.len && String.unsafe_get st.src st.pos <> '\n' do
    bump st
  done

let rec skip_trivia st =
  if st.pos < st.len then
    match String.unsafe_get st.src st.pos with
    | ' ' | '\t' | '\r' | '\n' ->
      advance st;
      skip_trivia st
    | '(' when char_at st (st.pos + 1) = '*' ->
      let l = loc st in
      bump st;
      bump st;
      skip_block_comment st l 1;
      skip_trivia st
    | '/' when char_at st (st.pos + 1) = '/' ->
      skip_line_comment st;
      skip_trivia st
    | _ -> ()

(* The text of the run of characters from the current position that
   satisfy [p], which never include '\n'. *)
let lex_run st p =
  let start = st.pos in
  while st.pos < st.len && p (String.unsafe_get st.src st.pos) do
    bump st
  done;
  String.sub st.src start (st.pos - start)

let lex_int st =
  let text = lex_run st is_digit in
  match int_of_string_opt text with
  | Some n -> n
  | None -> raise (Error (token_loc st, "integer literal out of range: " ^ text))

(* Consume [c] if it comes next; it is never '\n'. *)
let followed_by st c =
  char_at st st.pos = c
  && begin
       bump st;
       true
     end

let unexpected st c =
  raise (Error (token_loc st, Printf.sprintf "unexpected character '%c'" c))

let next_token st =
  skip_trivia st;
  st.tok_line <- st.line;
  st.tok_col <- st.col;
  if st.pos >= st.len then Token.EOF
  else
    let c = String.unsafe_get st.src st.pos in
    if is_ident_start c then
      let word = lex_run st is_ident_char in
      match Token.keyword_of_string word with
      | Some kw -> kw
      | None -> Token.IDENT word
    else if is_digit c then Token.INT (lex_int st)
    else begin
      (* Every punctuation character is on the current line. *)
      bump st;
      match c with
      | ';' -> Token.SEMI
      | ':' -> if followed_by st '=' then Token.ASSIGN else Token.COLON
      | ',' -> Token.COMMA
      | '.' -> Token.DOT
      | '(' -> Token.LPAREN
      | ')' -> Token.RPAREN
      | '[' -> Token.LBRACKET
      | ']' -> Token.RBRACKET
      | '+' -> Token.PLUS
      | '-' -> Token.MINUS
      | '*' -> Token.STAR
      | '&' -> Token.AMP
      | '/' -> Token.SLASH
      | '%' -> Token.PERCENT
      | '<' -> if followed_by st '=' then Token.LE else Token.LT
      | '>' -> if followed_by st '=' then Token.GE else Token.GT
      | '=' -> if followed_by st '=' then Token.EQEQ else unexpected st c
      | '!' -> if followed_by st '=' then Token.NE else unexpected st c
      | _ -> unexpected st c
    end

let tokenize ?file src =
  let st = create ?file src in
  let rec loop acc =
    let tok = next_token st in
    let acc = (tok, token_loc st) :: acc in
    match tok with
    | Token.EOF -> List.rev acc
    | _ -> loop acc
  in
  loop []
