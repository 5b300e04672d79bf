type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- printing ---- *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let number_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num f -> Buffer.add_string b (number_to_string f)
  | Str s ->
    Buffer.add_char b '"';
    escape b s;
    Buffer.add_char b '"'
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        write b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        escape b k;
        Buffer.add_string b "\":";
        write b v)
      kvs;
    Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 128 in
  write b j;
  Buffer.contents b

(* ---- parsing: plain recursive descent over the line ---- *)

exception Parse_error of string

type state = { src : string; mutable pos : int }

let error st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> error st (Printf.sprintf "expected %c, got %c" c c')
  | None -> error st (Printf.sprintf "expected %c, got end of input" c)

(* UTF-8 encode one scalar value (surrogate pairs are combined by the
   caller); invalid values become U+FFFD so a hostile escape cannot make
   the codec raise past this point *)
let add_utf8 b u =
  let u = if u < 0 || u > 0x10FFFF || (u >= 0xD800 && u <= 0xDFFF) then 0xFFFD else u in
  if u < 0x80 then Buffer.add_char b (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek st with
    | Some c when c >= '0' && c <= '9' -> v := (!v * 16) + (Char.code c - Char.code '0')
    | Some c when c >= 'a' && c <= 'f' -> v := (!v * 16) + (Char.code c - Char.code 'a' + 10)
    | Some c when c >= 'A' && c <= 'F' -> v := (!v * 16) + (Char.code c - Char.code 'A' + 10)
    | _ -> error st "bad \\u escape");
    advance st
  done;
  !v

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> error st "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          let hi = hex4 st in
          if hi >= 0xD800 && hi <= 0xDBFF then begin
            (* high surrogate: a \uDC00-\uDFFF low half must follow *)
            if peek st = Some '\\' then begin
              advance st;
              expect st 'u';
              let lo = hex4 st in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                add_utf8 b (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
              else begin
                add_utf8 b hi;
                add_utf8 b lo
              end
            end
            else add_utf8 b hi
          end
          else add_utf8 b hi
        | c -> error st (Printf.sprintf "bad escape \\%c" c));
        go ())
    | Some c ->
      advance st;
      Buffer.add_char b c;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
  in
  let rec go () =
    match peek st with
    | Some c when is_num_char c ->
      advance st;
      go ()
    | _ -> ()
  in
  go ();
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with Some f -> Num f | None -> error st ("bad number " ^ s)

let parse_literal st word v =
  String.iter (fun c -> expect st c) word;
  v

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "empty input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ((k, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((k, v) :: acc)
        | _ -> error st "expected , or } in object"
      in
      Obj (members [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Arr []
    end
    else begin
      let rec elems acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elems (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> error st "expected , or ] in array"
      in
      Arr (elems [])
    end
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st (Printf.sprintf "unexpected character %c" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then Error "trailing garbage after JSON value"
    else Ok v
  | exception Parse_error msg -> Error msg

(* ---- accessors ---- *)

let mem k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None
let bool = function Bool b -> Some b | _ -> None

let int j =
  match j with
  | Num f when Float.is_integer f && Float.abs f <= 2. ** 52. -> Some (int_of_float f)
  | _ -> None

let str_mem k j = Option.bind (mem k j) str
let num_mem k j = Option.bind (mem k j) num
let int_mem k j = Option.bind (mem k j) int
let bool_mem k j = Option.bind (mem k j) bool
