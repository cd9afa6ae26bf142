(* Lexer tests: token streams, positions, comments, error cases. *)

module T = Frontend.Token
module L = Frontend.Lexer

let toks src = List.map fst (L.tokenize src)

let tok_testable : T.t Alcotest.testable =
  Alcotest.testable (fun ppf t -> Fmt.string ppf (T.to_string t)) ( = )

let check_toks msg expected src =
  Alcotest.(check (list tok_testable)) msg expected (toks src)

let test_empty () = check_toks "empty" [ T.EOF ] ""

let test_keywords_idents () =
  check_toks "keywords vs identifiers"
    [ T.PROGRAM; T.IDENT "programx"; T.VAR; T.IDENT "variable"; T.BEGIN; T.END; T.EOF ]
    "program programx var variable begin end"

let test_case_sensitive () =
  check_toks "keywords are lower-case" [ T.IDENT "PROGRAM"; T.IDENT "If"; T.EOF ]
    "PROGRAM If"

let test_numbers () =
  check_toks "integers" [ T.INT 0; T.INT 42; T.INT 1234567; T.EOF ] "0 42 1234567"

let test_operators () =
  check_toks "every operator"
    [
      T.PLUS; T.MINUS; T.STAR; T.SLASH; T.PERCENT; T.LT; T.LE; T.GT; T.GE; T.EQEQ;
      T.NE; T.ASSIGN; T.COLON; T.SEMI; T.COMMA; T.DOT; T.LPAREN; T.RPAREN;
      T.LBRACKET; T.RBRACKET; T.EOF;
    ]
    "+ - * / % < <= > >= == != := : ; , . ( ) [ ]"

let test_no_space_operators () =
  check_toks "adjacent operators split correctly"
    [ T.IDENT "a"; T.LE; T.IDENT "b"; T.ASSIGN; T.INT 1; T.EOF ] "a<=b:=1"

let test_line_comment () =
  check_toks "line comment" [ T.INT 1; T.INT 2; T.EOF ] "1 // everything here\n2"

let test_block_comment () =
  check_toks "block comment" [ T.INT 1; T.INT 2; T.EOF ] "1 (* a b \n c *) 2"

let test_nested_comment () =
  check_toks "nested block comment" [ T.INT 1; T.INT 2; T.EOF ]
    "1 (* outer (* inner *) still out *) 2"

let test_positions () =
  let all = L.tokenize ~file:"f.mp" "ab\n  cd" in
  match all with
  | [ (T.IDENT "ab", l1); (T.IDENT "cd", l2); (T.EOF, _) ] ->
    Alcotest.(check (pair int int)) "first" (1, 1)
      (l1.Frontend.Loc.line, l1.Frontend.Loc.col);
    Alcotest.(check (pair int int)) "second" (2, 3)
      (l2.Frontend.Loc.line, l2.Frontend.Loc.col);
    Alcotest.(check string) "file" "f.mp" l1.Frontend.Loc.file
  | _ -> Alcotest.fail "unexpected token stream"

let line_col (_, l) = (l.Frontend.Loc.line, l.Frontend.Loc.col)

let check_positions msg expected src =
  Alcotest.(check (list (pair int int))) msg expected (List.map line_col (L.tokenize src))

let test_positions_after_trivia () =
  check_positions "after a multi-line block comment" [ (1, 1); (3, 7); (3, 8) ]
    "a(* one\n two (* nested *)\n c *) b";
  check_positions "a // comment running to end of input" [ (1, 1); (1, 14) ]
    "x // trailing";
  check_positions "a // comment ending its line" [ (1, 1); (2, 1); (2, 2) ] "x // c\ny";
  check_positions "CRLF line ends and tabs" [ (1, 1); (2, 2); (3, 1); (3, 2) ]
    "a\r\n\tb\r\nc";
  check_positions "EOF of empty input" [ (1, 1) ] "";
  check_positions "EOF after a final newline" [ (1, 1); (2, 1) ] "x\n";
  check_positions "EOF after trailing blanks" [ (1, 1); (1, 4); (1, 7) ] "xy := "

let test_eof_repeats () =
  let st = L.create "x" in
  ignore (L.next_token st);
  for _ = 1 to 3 do
    match L.next_token st with
    | T.EOF ->
      Alcotest.(check (pair int int)) "EOF stays put" (1, 2) (line_col (T.EOF, L.token_loc st))
    | t -> Alcotest.failf "expected EOF, got %s" (T.to_string t)
  done

let test_keyword_affixes () =
  check_toks "a keyword prefix or suffix is an identifier"
    [
      T.IDENT "ends"; T.IDENT "xif"; T.IDENT "iff"; T.IDENT "end_"; T.IDENT "begin2";
      T.IDENT "_if"; T.IDENT "pro"; T.IDENT "doo"; T.END; T.EOF;
    ]
    "ends xif iff end_ begin2 _if pro doo end"

let keywords =
  [
    "program"; "procedure"; "var"; "begin"; "end"; "if"; "then"; "else"; "while"; "do";
    "for"; "to"; "call"; "read"; "write"; "skip"; "int"; "bool"; "array"; "of"; "ptr";
    "new"; "and"; "or"; "not"; "true"; "false";
  ]

let test_keyword_table () =
  List.iter
    (fun w ->
      match T.keyword_of_string w with
      | Some t -> Alcotest.(check string) "spelling round-trips" w (T.to_string t)
      | None -> Alcotest.failf "%S is not recognised as a keyword" w)
    keywords;
  Alcotest.(check int) "every keyword is a distinct token" (List.length keywords)
    (List.length (List.sort_uniq compare (List.filter_map T.keyword_of_string keywords)))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let expect_error src fragment =
  match L.tokenize src with
  | exception L.Error (_, msg) ->
    if not (contains msg fragment) then
      Alcotest.failf "error %S does not mention %S" msg fragment
  | _ -> Alcotest.failf "expected a lexical error for %S" src

let test_errors () =
  expect_error "@" "unexpected character";
  expect_error "(* never closed" "unterminated comment";
  expect_error "= 3" "unexpected character";
  expect_error "!x" "unexpected character";
  expect_error "99999999999999999999999" "out of range"

let () =
  Helpers.run "lexer"
    [
      ( "lexer",
        [
          Alcotest.test_case "empty input" `Quick test_empty;
          Alcotest.test_case "keywords vs identifiers" `Quick test_keywords_idents;
          Alcotest.test_case "case sensitivity" `Quick test_case_sensitive;
          Alcotest.test_case "integer literals" `Quick test_numbers;
          Alcotest.test_case "operators" `Quick test_operators;
          Alcotest.test_case "operators without spaces" `Quick test_no_space_operators;
          Alcotest.test_case "line comments" `Quick test_line_comment;
          Alcotest.test_case "block comments" `Quick test_block_comment;
          Alcotest.test_case "nested comments" `Quick test_nested_comment;
          Alcotest.test_case "positions" `Quick test_positions;
          Alcotest.test_case "positions after trivia" `Quick test_positions_after_trivia;
          Alcotest.test_case "EOF repeats" `Quick test_eof_repeats;
          Alcotest.test_case "keyword prefixes and suffixes" `Quick test_keyword_affixes;
          Alcotest.test_case "keyword table" `Quick test_keyword_table;
          Alcotest.test_case "lexical errors" `Quick test_errors;
        ] );
    ]
