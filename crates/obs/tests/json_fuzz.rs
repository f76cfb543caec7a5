//! Robustness tests for the JSON reader, which parses untrusted request
//! bodies in the daemon and the router: arbitrary input must never panic,
//! well-formed documents must round-trip, and nesting past
//! [`json::MAX_DEPTH`] must fail cleanly instead of exhausting the stack.

use priste_obs::json::{self, quote, Json};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Fragments of the JSON grammar, including escapes, surrogate halves and
/// near-miss literals, so random concatenations reach deep parser states.
const TOKENS: &[&str] = &[
    "[", "]", "{", "}", "\"", ",", ":", " ", "0", "1", "7", "9", "e", "E", ".", "+", "-", "\\",
    "\\\"", "\\\\", "\\/", "\\n", "\\t", "\\b", "\\u", "\\u00e9", "\\uD83D", "\\uDE00", "\\uDC00",
    "\\uZZZZ", "true", "false", "null", "tru", "nul", "x", "é", "😀",
];

/// Builds a value from a recipe of random choices: arrays, objects,
/// numbers, strings and literals, at most `depth` levels deep. An exhausted
/// recipe yields `null`.
fn build(choices: &mut impl Iterator<Item = u32>, depth: usize) -> Json {
    let Some(c) = choices.next() else {
        return Json::Null;
    };
    let kind = if depth == 0 { c % 5 } else { c % 7 };
    let len = (c >> 8) as usize % 4;
    match kind {
        0 => Json::Null,
        1 => Json::Bool(c & 0x100 != 0),
        2 => {
            let bits = u64::from(c) << 32 | u64::from(choices.next().unwrap_or(c));
            let x = f64::from_bits(bits);
            Json::Num(if x.is_finite() { x } else { f64::from(c) - 1e6 })
        }
        3 | 4 => Json::Str(text(choices, len * 3)),
        5 => Json::Arr((0..len).map(|_| build(choices, depth - 1)).collect()),
        _ => Json::Obj(
            (0..len)
                .map(|_| (text(choices, 3), build(choices, depth - 1)))
                .collect::<BTreeMap<_, _>>(),
        ),
    }
}

/// Up to `len` scalars of any kind, control characters and astral-plane
/// scalars included.
fn text(choices: &mut impl Iterator<Item = u32>, len: usize) -> String {
    choices
        .take(len)
        .filter_map(|c| char::from_u32(c % 0x11_0000))
        .collect()
}

/// Writes a value back as JSON. Numbers use Rust's shortest round-trip
/// formatting, which is valid JSON for every finite `f64`.
fn render(value: &Json) -> String {
    match value {
        Json::Null => "null".to_owned(),
        Json::Bool(b) => b.to_string(),
        Json::Num(x) => format!("{x:?}"),
        Json::Str(s) => quote(s),
        Json::Arr(items) => {
            let items: Vec<String> = items.iter().map(render).collect();
            format!("[{}]", items.join(", "))
        }
        Json::Obj(map) => {
            let fields: Vec<String> = map
                .iter()
                .map(|(k, v)| format!("{}: {}", quote(k), render(v)))
                .collect();
            format!("{{{}}}", fields.join(", "))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary text: the parser returns Ok or Err, never panics.
    #[test]
    fn arbitrary_strings_never_panic(input in "\\PC{0,64}") {
        let _ = json::parse(&input);
    }

    /// Strings over the JSON alphabet never panic either.
    #[test]
    fn json_alphabet_strings_never_panic(
        picks in proptest::collection::vec(0usize..TOKENS.len(), 0..48),
    ) {
        let input: String = picks.iter().map(|&i| TOKENS[i]).collect();
        let _ = json::parse(&input);
    }

    /// Random documents round-trip through `render` and `parse`.
    #[test]
    fn random_values_round_trip(
        recipe in proptest::collection::vec(0u32..u32::MAX, 1..96),
        depth in 0usize..6,
    ) {
        let value = build(&mut recipe.into_iter(), depth);
        let text = render(&value);
        prop_assert_eq!(json::parse(&text), Ok(value), "{}", text);
    }

    /// Nesting around the limit: a balanced document parses exactly when
    /// it is at most `MAX_DEPTH` deep, and an unbalanced one is an error.
    #[test]
    fn nesting_near_max_depth_never_panics(
        objects in proptest::collection::vec(proptest::bool::ANY, json::MAX_DEPTH - 3..json::MAX_DEPTH + 4),
        cut in 0usize..8,
    ) {
        let open: String = objects.iter().map(|&o| if o { "{\"k\": " } else { "[" }).collect();
        let close: String = objects.iter().rev().map(|&o| if o { "}" } else { "]" }).collect();
        let balanced = format!("{open}0{close}");
        prop_assert_eq!(json::parse(&balanced).is_ok(), objects.len() <= json::MAX_DEPTH);
        let truncated = &balanced[..balanced.len() - 1 - cut];
        prop_assert!(json::parse(truncated).is_err());
    }
}
