//! The pull reader: typed numbers, borrowed strings, member order, the
//! first-of-duplicates rule, tag lookahead and the nesting limit.

use std::borrow::Cow;

use tilestore_testkit::json::{self, required, Kind, MAX_DEPTH};
use tilestore_testkit::{FromJson, Json, JsonError, JsonReader};

fn nested(depth: usize) -> String {
    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
}

#[test]
fn nesting_stops_at_the_limit_with_an_error() {
    assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
    for depth in [MAX_DEPTH + 1, 20_000] {
        let text = nested(depth);
        let err = Json::parse(&text).unwrap_err();
        assert!(err.0.contains("nesting deeper"), "{err}");
        // Skipping descends under the same limit.
        let mut r = JsonReader::new(&text);
        assert!(r.skip().unwrap_err().0.contains("nesting deeper"));
    }
    // Unclosed and object nesting count the same way.
    let open = "[".repeat(20_000);
    assert!(Json::parse(&open).unwrap_err().0.contains("nesting deeper"));
    let objects = "{\"a\":".repeat(20_000);
    assert!(Json::parse(&objects)
        .unwrap_err()
        .0
        .contains("nesting deeper"));
}

#[test]
fn numbers_read_exactly_as_their_type() {
    assert_eq!(json::from_str::<u64>(&u64::MAX.to_string()), Ok(u64::MAX));
    assert_eq!(json::from_str::<i64>(&i64::MIN.to_string()), Ok(i64::MIN));
    assert_eq!(json::from_str::<f64>("0.1"), Ok(0.1));
    assert_eq!(json::from_str::<f64>("-2.5e-3"), Ok(-0.0025));
    for bad in ["-1", "1.5", "1e3", "18446744073709551616", "\"7\"", "true"] {
        assert!(json::from_str::<u64>(bad).is_err(), "{bad}");
    }
    assert!(json::from_str::<u8>("256").is_err());
    assert!(json::from_str::<i8>("-129").is_err());
    assert_eq!(Json::parse("-0").unwrap(), Json::Int(0));
    assert_eq!(Json::parse("-5").unwrap(), Json::Int(-5));
    assert_eq!(Json::parse("5").unwrap(), Json::UInt(5));
}

#[test]
fn escape_free_strings_are_borrowed() {
    let mut r = JsonReader::new(r#"["plain [0:9,0:9]", "esc\"aped"]"#);
    let mut got = Vec::new();
    r.array(|r| {
        got.push(r.str()?);
        Ok(())
    })
    .unwrap();
    assert!(matches!(&got[0], Cow::Borrowed("plain [0:9,0:9]")));
    assert!(matches!(&got[1], Cow::Owned(s) if s == "esc\"aped"));
}

/// A two-field record decoded the way every catalog type decodes.
#[derive(Debug, PartialEq)]
struct Pair {
    a: u64,
    b: Option<String>,
}

impl FromJson for Pair {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let (mut a, mut b) = (None, None);
        r.object(|r, key| match key {
            "a" => r.field(&mut a),
            "b" => r.field(&mut b),
            _ => r.skip(),
        })?;
        Ok(Pair {
            a: required(a, "a")?,
            b,
        })
    }
}

#[test]
fn members_decode_in_any_order_and_the_first_duplicate_wins() {
    let want = Pair {
        a: 1,
        b: Some("x".into()),
    };
    for text in [
        r#"{"a":1,"b":"x"}"#,
        r#"{"b":"x","a":1}"#,
        r#"{"legacy":{"deep":[1,2,{"c":null}]},"a":1,"b":"x"}"#,
        r#"{"a":1,"b":"x","a":2}"#,
    ] {
        assert_eq!(json::from_str::<Pair>(text).as_ref(), Ok(&want), "{text}");
    }
    assert_eq!(
        json::from_str::<Pair>(r#"{"a":3}"#),
        Ok(Pair { a: 3, b: None })
    );
    let err = json::from_str::<Pair>(r#"{"b":"x"}"#).unwrap_err();
    assert_eq!(err.0, "missing field \"a\"");
    // A tree decodes through the same reader, so it agrees with the text.
    let tree = Json::parse(r#"{"b":"y","a":4}"#).unwrap();
    assert_eq!(
        Pair::from_json(&tree),
        Ok(Pair {
            a: 4,
            b: Some("y".into())
        })
    );
}

#[test]
fn a_tag_is_found_ahead_without_consuming_the_object() {
    let text = r#"{"config":"[1,2]","kind":"aligned"}"#;
    let mut r = JsonReader::new(text);
    assert_eq!(r.tag("kind").unwrap().as_deref(), Some("aligned"));
    assert_eq!(r.tag("missing").unwrap(), None);
    assert_eq!(r.kind().unwrap(), Kind::Object);
    let whole: Json = r.read().unwrap();
    assert_eq!(whole.get("kind").and_then(Json::as_str), Some("aligned"));
    r.finish().unwrap();
}

#[test]
fn errors_name_the_byte_offset() {
    let err = Json::parse("[1, 2,]").unwrap_err();
    assert!(err.0.ends_with("at byte 6"), "{err}");
    let err = Json::parse("{\"a\":1} x").unwrap_err();
    assert_eq!(err.0, "trailing characters at byte 8");
}
