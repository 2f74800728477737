use super::*;

#[test]
fn renders_compact_json() {
    let v = Value::object()
        .set("name", "histogram'")
        .set("cycles", 12345u64)
        .set("norm", 1.25)
        .set("ok", true)
        .set("failure", Value::Null)
        .set(
            "reported",
            Value::Array(vec!["a.c:1 (false sharing)".into()]),
        );
    assert_eq!(
        v.render(),
        r#"{"name":"histogram'","cycles":12345,"norm":1.25,"ok":true,"failure":null,"reported":["a.c:1 (false sharing)"]}"#
    );
}

#[test]
fn escapes_strings() {
    let v = Value::Str("a\"b\\c\nd\u{1}".to_string());
    assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    assert_eq!(Value::parse(&v.render()).unwrap(), v);
}

#[test]
fn round_trips_nested_values() {
    let v = Value::object()
        .set(
            "cells",
            Value::Array(vec![
                Value::object().set("w", "dedup").set("n", -3i64),
                Value::object().set("f", 0.5).set("none", Value::Null),
            ]),
        )
        .set("empty_obj", Value::object())
        .set("empty_arr", Value::Array(vec![]));
    let text = v.render();
    assert_eq!(Value::parse(&text).unwrap(), v);
}

#[test]
fn parses_whitespace_and_rejects_trailing_garbage() {
    assert_eq!(
        Value::parse(" { \"a\" : [ 1 , 2.5 , null ] } ").unwrap(),
        Value::object().set(
            "a",
            Value::Array(vec![Value::Int(1), Value::Float(2.5), Value::Null])
        )
    );
    assert!(Value::parse("{} x").is_err());
    assert!(Value::parse("{\"a\":}").is_err());
    assert!(Value::parse("[1,]").is_err());
    assert!(Value::parse("").is_err());
}

#[test]
fn non_finite_floats_render_as_null() {
    assert_eq!(Value::Float(f64::NAN).render(), "null");
    assert_eq!(Value::Float(f64::INFINITY).render(), "null");
}

#[test]
fn object_get_finds_keys() {
    let v = Value::object().set("a", 1i64);
    assert_eq!(v.get("a"), Some(&Value::Int(1)));
    assert_eq!(v.get("b"), None);
    assert_eq!(Value::Null.get("a"), None);
}

/// `(offset, message)` of a failed parse, panicking on success.
fn error_of(text: &str) -> (usize, String) {
    match Value::parse(text) {
        Ok(value) => panic!("{text:?} parsed as {value:?}"),
        Err(e) => (e.offset, e.message),
    }
}

#[test]
fn nesting_is_bounded_at_max_depth() {
    // Exactly MAX_DEPTH levels of either kind, or of both interleaved, parse.
    let arrays = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    let objects = format!("{}0{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
    let mixed = format!(
        "{}0{}",
        "[{\"k\":".repeat(MAX_DEPTH / 2),
        "}]".repeat(MAX_DEPTH / 2)
    );
    for text in [&arrays, &objects, &mixed] {
        assert!(Value::parse(text).is_ok(), "{}", &text[..40]);
    }

    // One more level is an error at the offending bracket, whichever kind
    // opens it and however the levels below it were opened.
    let message = format!("nested deeper than {MAX_DEPTH} levels");
    let too_deep = [
        ("[".repeat(MAX_DEPTH + 1), MAX_DEPTH),
        ("[".repeat(MAX_DEPTH) + "{", MAX_DEPTH),
        ("{\"k\":".repeat(MAX_DEPTH) + "[", 5 * MAX_DEPTH),
        ("[{\"k\":".repeat(MAX_DEPTH / 2) + "[]", 6 * (MAX_DEPTH / 2)),
        (" [".repeat(MAX_DEPTH + 1), 2 * MAX_DEPTH + 1),
    ];
    for (text, offset) in too_deep {
        assert_eq!(
            error_of(&text),
            (offset, message.clone()),
            "{}",
            &text[..40]
        );
        assert_skip_agrees(&text);
    }
    for text in [&arrays, &objects, &mixed] {
        assert_skip_agrees(text);
    }
}

#[test]
fn a_bracket_flood_is_an_error_on_a_worker_sized_stack() {
    // The parent parser recursed once per `[` and overflowed any stack here:
    // an abort, not a panic. Run it where a campaign pool worker parses — a
    // thread with Rust's default 2 MiB stack.
    let parsed = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let flood = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
            let objects = "{\"a\":".repeat(100_000);
            (Value::parse(&flood), Value::parse(&objects))
        })
        .unwrap()
        .join()
        .expect("parsing a flood must not take the thread down");
    assert_eq!(parsed.0.unwrap_err().offset, MAX_DEPTH);
    assert_eq!(parsed.1.unwrap_err().offset, 5 * MAX_DEPTH);
}

#[test]
fn lax_numbers_and_escapes_are_rejected_at_the_offending_byte() {
    let cases: &[(&str, usize, &str)] = &[
        // Numbers: RFC 8259 `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
        (".5", 0, "expected a value"),
        ("+1", 0, "expected a value"),
        ("1.", 2, "expected a digit"),
        ("-.5", 1, "expected a digit"),
        ("01", 1, "leading zero in number"),
        ("-01", 2, "leading zero in number"),
        ("00.5", 1, "leading zero in number"),
        ("-", 1, "expected a digit"),
        ("1e", 2, "expected a digit"),
        ("1e+", 3, "expected a digit"),
        ("1.e5", 2, "expected a digit"),
        ("[1, .5]", 4, "expected a value"),
        ("{\"n\": 01}", 7, "leading zero in number"),
        ("{\"n\": 1.}", 8, "expected a digit"),
        // `\u` takes exactly four hex digits: no sign, no short form.
        ("\"\\u+041\"", 2, "bad \\u escape"),
        ("\"\\u-041\"", 2, "bad \\u escape"),
        ("\"\\u 041\"", 2, "bad \\u escape"),
        ("\"\\u12\"", 2, "bad \\u escape"),
        ("\"ab\\u00g1\"", 4, "bad \\u escape"),
    ];
    for &(text, offset, message) in cases {
        assert_eq!(error_of(text), (offset, message.to_string()), "{text}");
        assert_skip_agrees(text);
    }
    // The parent accepted every one of these spellings.
    assert_eq!(reference::parse(".5"), Ok(Value::Float(0.5)));
    assert_eq!(reference::parse("+1"), Ok(Value::Float(1.0)));
    assert_eq!(reference::parse("1."), Ok(Value::Float(1.0)));
    assert_eq!(reference::parse("-.5"), Ok(Value::Float(-0.5)));
    assert_eq!(reference::parse("01"), Ok(Value::Int(1)));
    assert_eq!(reference::parse("\"\\u+041\""), Ok(Value::Str("A".into())));
}

#[test]
fn valid_numbers_keep_their_values() {
    let cases: &[(&str, Value)] = &[
        ("0", Value::Int(0)),
        ("-0", Value::Int(0)),
        ("7", Value::Int(7)),
        ("-12", Value::Int(-12)),
        ("9223372036854775807", Value::Int(i64::MAX)),
        ("-9223372036854775808", Value::Int(i64::MIN)),
        ("0.5", Value::Float(0.5)),
        ("-0.0", Value::Float(-0.0)),
        ("1e3", Value::Float(1e3)),
        ("1E+3", Value::Float(1e3)),
        ("25e-1", Value::Float(2.5)),
        ("1e999", Value::Float(f64::INFINITY)),
        ("[0,1]", Value::Array(vec![Value::Int(0), Value::Int(1)])),
    ];
    for (text, value) in cases {
        assert_eq!(Value::parse(text).as_ref(), Ok(value), "{text}");
        assert_eq!(reference::parse(text).as_ref(), Ok(value), "{text}");
    }
    // An integer beyond i64 stays an error, as it was.
    assert_eq!(
        error_of("9223372036854775808"),
        (0, "invalid number".to_string())
    );
}

#[test]
fn every_float_the_writer_emits_round_trips_bit_exactly() {
    for f in [
        0.1,
        1e-7,
        1e300,
        -0.0,
        0.0,
        f64::MIN_POSITIVE,
        5e-324,
        u64::MAX as f64,
        f64::MAX,
        f64::MIN,
        -1.5,
        1234.5625,
        1.0 / 3.0,
    ] {
        let text = Value::Float(f).render();
        match Value::parse(&text) {
            Ok(Value::Float(back)) => assert_eq!(back.to_bits(), f.to_bits(), "{text}"),
            other => panic!("{text} parsed as {other:?}"),
        }
    }
}

/// The seeded generator of the string oracle (xorshift64*).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// The string oracle's pieces besides ASCII runs: every escape, bad escapes
/// (the generator never emits a signed `\u`, which the reference accepts),
/// and 2-, 3- and 4-byte characters.
const ESCAPES: &[&str] = &[
    "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\u00e9", "\\u00E9", "\\u0041",
    "\\u20ac", "\\u0000", "\\u001f", "\\uffff",
];
const BAD_ESCAPES: &[&str] = &[
    "\\x", "\\u12", "\\uD800", "\\udfff", "\\u00", "\\", "\\U0041",
];
const WIDE: &[&str] = &["é", "ß", "€", "中", "\u{ffff}", "😀", "𝄞", "\u{10ffff}"];

/// A string literal body from seeded pieces (no quotes around it).
fn literal_body(rng: &mut Rng) -> String {
    let mut body = String::new();
    for _ in 0..rng.below(24) {
        match rng.below(8) {
            0..=2 => {
                for _ in 0..rng.below(12) {
                    // Printable ASCII other than the quote and the backslash.
                    let b = (b' ' + rng.below(95) as u8) as char;
                    if b != '"' && b != '\\' {
                        body.push(b);
                    }
                }
            }
            3 | 4 => body.push_str(rng.pick(WIDE)),
            5 | 6 => body.push_str(rng.pick(ESCAPES)),
            _ => body.push_str(rng.pick(BAD_ESCAPES)),
        }
    }
    body
}

/// Both scanners on `text` from its first byte: the same `Ok` string and end
/// position, or the same `(offset, message)`.
fn assert_scanners_agree(text: &str) {
    let mut reader = Reader::new(text);
    let new = reader.string().map(Cow::into_owned);
    let mut old_pos = 0;
    let old = reference::parse_string(text.as_bytes(), &mut old_pos);
    assert_eq!(new, old, "{text:?}");
    if let Ok(string) = &new {
        assert_eq!(reader.pos, old_pos, "{text:?}");
        // Compared in place, a literal equals its own decoding and nothing
        // one character shorter or longer.
        let str_eq = |expected: &str| Reader::new(text).str_eq(expected);
        assert_eq!(str_eq(string), Ok(true), "{text:?}");
        assert_eq!(str_eq(&format!("{string}x")), Ok(false), "{text:?}");
        let mut shorter = string.clone();
        if shorter.pop().is_some() {
            assert_eq!(str_eq(&shorter), Ok(false), "{text:?}");
        }
    }
    assert_skip_agrees(text);
}

/// Skipping `text` through a [`Reader`] succeeds exactly when
/// [`Value::parse`] does, and fails with its error.
fn assert_skip_agrees(text: &str) {
    let mut reader = Reader::new(text);
    let skipped = reader.skip().and_then(|()| reader.end());
    assert_eq!(skipped, Value::parse(text).map(|_| ()), "{text:?}");
}

#[test]
fn string_scanner_matches_the_reference() {
    let cases = if cfg!(debug_assertions) { 300 } else { 5_000 };
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut outcomes = [0usize; 2];
    for _ in 0..cases {
        let body = literal_body(&mut rng);
        let full = format!("\"{body}\"");
        assert_scanners_agree(&full);
        outcomes[usize::from(Value::parse(&full).is_ok())] += 1;
        // Truncated at every character boundary: unterminated, or cut inside
        // an escape.
        for (i, _) in full.char_indices() {
            assert_scanners_agree(&full[..i]);
        }
        // A raw control byte at every character boundary of the body.
        for (i, _) in body.char_indices().chain([(body.len(), ' ')]) {
            for raw in ['\u{1}', '\u{1f}'] {
                let mut text = format!("\"{body}\"");
                text.insert(i + 1, raw);
                assert_scanners_agree(&text);
            }
        }
        // Trailing data after the literal leaves both at the same position.
        assert_scanners_agree(&format!("{full},\"next\""));
    }
    // The generator reaches both outcomes often.
    assert!(
        outcomes[0] > cases / 10 && outcomes[1] > cases / 10,
        "{outcomes:?}"
    );
}

#[test]
fn documents_from_the_writer_parse_like_the_reference() {
    // Seeded documents the writer renders — the shape every consumer reads.
    let mut rng = Rng(0x51ed_270b_27d1_5a3f);
    for _ in 0..if cfg!(debug_assertions) { 200 } else { 2_000 } {
        let value = random_value(&mut rng, 0);
        let text = value.render();
        assert_eq!(Value::parse(&text).as_ref(), Ok(&value), "{text}");
        assert_eq!(reference::parse(&text).as_ref(), Ok(&value), "{text}");
        assert_skip_agrees(&text);
        // Cut short, the skip fails where the tree builder does.
        for cut in (0..text.len())
            .filter(|&i| text.is_char_boundary(i))
            .step_by(7)
        {
            assert_skip_agrees(&text[..cut]);
        }
    }
}

fn random_value(rng: &mut Rng, depth: usize) -> Value {
    let string = |rng: &mut Rng| {
        let mut s = String::new();
        for _ in 0..rng.below(6) {
            s.push_str(rng.pick(&["a", "key", "é", "€", "😀", "\"", "\\", "\n", "\u{1}", "/"]));
        }
        s
    };
    match rng.below(if depth > 4 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::Int(rng.next() as i64 >> rng.below(64)),
        3 => Value::Float(
            Some(f64::from_bits(rng.next()))
                .filter(|f| f.is_finite())
                .unwrap_or(0.5),
        ),
        4 => Value::Str(string(rng)),
        5 => Value::Array(
            (0..rng.below(5))
                .map(|_| random_value(rng, depth + 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.below(5))
                .map(|_| (string(rng), random_value(rng, depth + 1)))
                .collect(),
        ),
    }
}

/// Large inputs that take milliseconds in linear time and minutes in
/// quadratic time: a regression here hangs tier-1 instead of passing it.
#[test]
fn large_documents_parse_in_linear_time() {
    // A 1 MiB string literal: ASCII, 2/3/4-byte characters and escapes.
    let mut big = String::with_capacity(1 << 20);
    while big.len() < 1 << 20 {
        big.push_str("abcdefé€😀 \\n\\\"\\u00e9");
    }
    let Value::Str(s) = Value::parse(&format!("\"{big}\"")).unwrap() else {
        panic!("not a string");
    };
    assert!(s.len() > 1 << 19 && s.contains("\n\"é"));

    // A 20,000-key object.
    let object = Value::Object(
        (0..20_000)
            .map(|i| (format!("key-{i}-€"), Value::Str(format!("value {i}"))))
            .collect(),
    );
    assert_eq!(Value::parse(&object.render()).as_ref(), Ok(&object));

    // A 100,000-element array of strings.
    let array = Value::Array((0..100_000).map(|i| Value::Str(format!("s{i}"))).collect());
    assert_eq!(Value::parse(&array.render()).as_ref(), Ok(&array));
}

/// Every document a real run reads or writes parses to the same [`Value`]
/// under both parsers: every entry of a cell cache populated by the
/// `experiments all` grid at its default scale 0.4, and every JSON line
/// `experiments all --format json` prints.
#[test]
fn real_documents_parse_like_the_reference() {
    use laser_bench::{AggregateFormat, CampaignConfig, CellCache, Emit, Grid, FIGURES};
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("serde-json-oracle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = CampaignConfig::evaluation();
    config.set_threads(2).unwrap();
    config.cache = Some(Arc::new(CellCache::open(&dir).unwrap()));
    let mut grid = Grid::with_config(config);
    let figures: Vec<_> = FIGURES.iter().filter(|f| f.in_all).collect();
    for figure in &figures {
        (figure.plan)(&mut grid);
    }
    let grid = grid.run();

    let same = |what: &str, text: &str| {
        let value = Value::parse(text).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(reference::parse(text), Ok(value), "{what}");
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "the entries are collected and sorted on the next line"
    )]
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    entries.sort();
    assert_eq!(
        entries.len(),
        245,
        "the experiments-all grid caches 245 cells"
    );
    for path in &entries {
        same(
            &path.display().to_string(),
            &std::fs::read_to_string(path).unwrap(),
        );
    }

    // What `experiments all --format json` prints, line by line. (The
    // figures' `Value` is the non-test build of this crate: each crosses
    // over as its rendered text.)
    for figure in &figures {
        let line = (figure.derive)(&grid, AggregateFormat::Json).unwrap();
        same(figure.name, &line);
    }
    same("campaign", &grid.campaign().to_json().render());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn typed_reads_consume_one_value_whatever_its_type() {
    let text = r#"[7, 2.5, -3, "s", true, null, [1, [2]], {"k": {"j": []}}, 1e2]"#;
    let mut reader = Reader::new(text);
    assert!(reader.enter_array().unwrap());
    let mut read = Vec::new();
    while reader.next_item().unwrap() {
        // Each read leaves the reader at the next item, matched or not.
        read.push(match read.len() {
            0 => format!("{:?}", reader.i64().unwrap()),
            1 => format!("{:?}", reader.i64().unwrap()),
            2 => format!("{:?}", reader.f64().unwrap()),
            3 => format!("{:?}", reader.bool().unwrap()),
            4 => format!("{:?}", reader.str().unwrap()),
            5 => format!("{:?}", (reader.null().unwrap(), reader.null().unwrap())),
            6 => format!("{:?}", reader.enter_object().unwrap()),
            7 => format!("{:?}", reader.enter_array().unwrap()),
            _ => format!("{:?}", reader.f64().unwrap()),
        });
    }
    reader.end().unwrap();
    assert_eq!(
        read,
        [
            "Some(7)",
            "None",
            "Some(-3.0)",
            "None",
            "None",
            "(true, false)",
            "false",
            "false",
            "Some(100.0)"
        ]
    );
}

#[test]
fn strings_are_borrowed_unless_escaped_and_compared_in_place() {
    let mut reader = Reader::new(r#"["plain é", "esc\n\u0041", "a\nb", "a\nb", "a\nb", 5]"#);
    assert!(reader.enter_array().unwrap());
    assert!(reader.next_item().unwrap());
    assert!(matches!(
        reader.str().unwrap(),
        Some(Cow::Borrowed("plain é"))
    ));
    assert!(reader.next_item().unwrap());
    assert!(matches!(reader.str().unwrap(), Some(Cow::Owned(s)) if s == "esc\nA"));
    assert!(reader.next_item().unwrap());
    assert!(reader.str_eq("a\nb").unwrap());
    assert!(reader.next_item().unwrap());
    assert!(!reader.str_eq("a\nc").unwrap());
    assert!(reader.next_item().unwrap());
    assert!(!reader.str_eq("a\nbc").unwrap());
    assert!(reader.next_item().unwrap());
    assert!(!reader.str_eq("5").unwrap(), "a number is not a string");
    assert!(!reader.next_item().unwrap());
    reader.end().unwrap();
}

#[test]
fn a_walk_fails_where_the_tree_builder_fails() {
    // Read an entry-shaped document field by field, keys in any order, and
    // compare the outcome with `Value::parse` on every prefix and on a few
    // damaged spellings.
    fn walk(text: &str) -> Result<(), ParseError> {
        let mut reader = Reader::new(text);
        if reader.enter_object()? {
            while let Some(key) = reader.next_key()? {
                match &*key {
                    "kind" => {
                        reader.str_eq("laser-cell")?;
                    }
                    "salt" => {
                        reader.i64()?;
                    }
                    "cell" => {
                        if reader.enter_object()? {
                            while reader.next_key()?.is_some() {
                                if reader.enter_array()? {
                                    while reader.next_item()? {
                                        reader.f64()?;
                                    }
                                }
                            }
                        }
                    }
                    _ => reader.skip()?,
                }
            }
        }
        reader.end()
    }
    let text = r#" {"salt": 1, "kind": "laser-cell", "cell": {"a": [1, 2.5e1, "x"], "b": {}},
        "config": "w=a\nt=b\n", "x": [null, true, {"y": [false]}]} "#;
    walk(text).unwrap();
    let damaged = [
        text.replace("2.5e1", "2.5e"),
        text.replace("true", "tru"),
        text.replace(": 1,", ": 1"),
        text.replace("\\nt", "\\qt"),
        text.replace("[false]", "[false,]"),
        text.replace("{}", "{,}"),
        format!("{text} 0"),
        format!("{}{text}", "[".repeat(MAX_DEPTH)),
    ];
    for text in damaged.iter().map(String::as_str).chain(
        (0..text.len())
            .filter(|&i| text.is_char_boundary(i))
            .map(|i| &text[..i]),
    ) {
        assert_eq!(walk(text), Value::parse(text).map(|_| ()), "{text:?}");
    }
}
