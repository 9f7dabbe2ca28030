//! The one JSON writer behind every `results/*.json` file: values on one
//! line, or one member per line via [`Object::block`] and [`block_array`].

/// One rendered JSON value, taken as is when built directly (for text
/// this module wrote). Strings escape line breaks, so one is layout.
#[derive(Debug)]
pub struct Json(pub String);

impl Json {
    /// The text as a whole file, with a final newline.
    pub fn into_document(self) -> String {
        self.0 + "\n"
    }
}

impl From<&str> for Json {
    /// A quoted string with `"`, `\` and control characters escaped.
    fn from(s: &str) -> Json {
        let escape = |c: char| match c {
            '"' | '\\' => format!("\\{c}"),
            c if c < ' ' => format!("\\u{:04x}", c as u32),
            c => c.to_string(),
        };
        Json(format!("\"{}\"", s.chars().map(escape).collect::<String>()))
    }
}

macro_rules! integers {
    ($($t:ty),*) => {$(impl From<$t> for Json {
        fn from(n: $t) -> Json { Json(n.to_string()) }
    })*};
}
integers!(u64, usize);

/// A number in its shortest round-trip form (`3`, `0.25`); non-finite
/// values, which JSON cannot express, render as `null`.
pub fn num(v: f64) -> Json {
    Json(if v.is_finite() { v.to_string() } else { "null".into() })
}

/// A number with `decimals` digits after the point, or `null`.
pub fn fixed(v: f64, decimals: usize) -> Json {
    Json(if v.is_finite() { format!("{v:.decimals$}") } else { "null".into() })
}

/// A one-line array.
pub fn array<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Json {
    container('[', items.into_iter().map(|v| v.into().0).collect(), ']', false)
}

/// An array laid out one item per line.
pub fn block_array<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Json {
    container('[', items.into_iter().map(|v| v.into().0).collect(), ']', true)
}

/// An object under construction, members in insertion order; build one
/// with [`object!`](crate::object). It converts to a one-line [`Json`].
#[derive(Debug, Default)]
pub struct Object(Vec<String>);

impl Object {
    /// Appends member `key`.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Object {
        self.0.push(format!("{}: {}", Json::from(key).0, value.into().0));
        self
    }

    /// The object laid out one member per line.
    pub fn block(self) -> Json {
        container('{', self.0, '}', true)
    }
}

impl From<Object> for Json {
    fn from(o: Object) -> Json {
        container('{', o.0, '}', false)
    }
}

/// An [`Object`](crate::json::Object) from `"key": value` pairs, in
/// order; a value is anything `Object::field` takes.
///
/// ```
/// use anycast_obs::{json, object};
///
/// let run = object! { "population": 10_000u64, "ms": json::fixed(0.2456, 3) };
/// let doc = object! { "scenario": "flap", "runs": json::block_array([run]) }.block();
/// let expected = "{\n  \"scenario\": \"flap\",\n  \"runs\": [\n    \
///                 {\"population\": 10000, \"ms\": 0.246}\n  ]\n}\n";
/// assert_eq!(doc.into_document(), expected);
/// ```
#[macro_export]
macro_rules! object {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Object::default()$(.field($key, $value))*
    };
}

/// `open`, the members, `close`: on one line, or one member per line
/// two spaces deeper (a nested block's lines shift with it).
fn container(open: char, members: Vec<String>, close: char, block: bool) -> Json {
    if !block {
        return Json(format!("{open}{}{close}", members.join(", ")));
    }
    let lines: Vec<String> =
        members.iter().map(|m| format!("\n  {}", m.replace('\n', "\n  "))).collect();
    Json(format!("{open}{}\n{close}", lines.join(",")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let s = Json::from("a \"q\" \\ {b}\n\t\u{1}é");
        assert_eq!(s.0, r#""a \"q\" \\ {b}\u000a\u0009\u0001é""#);
        assert!(!s.0.contains('\n'));
    }

    #[test]
    fn numbers_are_shortest_or_fixed_and_never_non_finite() {
        assert_eq!(num(3.0).0, "3");
        assert_eq!(num(0.1).0, "0.1");
        assert_eq!(num(-2.5e-7).0, "-0.00000025");
        assert_eq!(num(0.25).0, "0.25");
        assert_eq!(num(f64::INFINITY).0, "null");
        assert_eq!(fixed(0.0015, 4).0, "0.0015");
        assert_eq!(fixed(4.4449, 2).0, "4.44");
        assert_eq!(fixed(1_512_605_408.4, 0).0, "1512605408");
        assert_eq!(fixed(f64::NAN, 3).0, "null");
        assert_eq!(Json::from(u64::MAX).0, "18446744073709551615");
    }

    #[test]
    fn compact_values_nest_on_one_line() {
        let o = crate::object! {
            "a": 1u64,
            "b": array([array([num(5.0), 2u64.into()]), array(Vec::<Json>::new())]),
            "c": crate::object! {},
        };
        assert_eq!(Json::from(o).0, r#"{"a": 1, "b": [[5, 2], []], "c": {}}"#);
    }

    #[test]
    fn blocks_put_one_member_per_line_and_indent_nested_blocks() {
        let doc = crate::object! {
            "counters": crate::object! { "x": 4u64, "y": 5u64 }.block(),
            "empty": crate::object! {}.block(),
            "rows": block_array([crate::object! { "id": "a" }]),
        }
        .block();
        assert_eq!(
            doc.into_document(),
            "{\n  \"counters\": {\n    \"x\": 4,\n    \"y\": 5\n  },\n  \"empty\": {\n  },\n  \
             \"rows\": [\n    {\"id\": \"a\"}\n  ]\n}\n"
        );
    }
}
