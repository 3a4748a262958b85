//! A minimal JSON document builder and renderer.
//!
//! The workspace builds offline with no JSON library, so the serve
//! layer writes JSON by hand through this tiny value tree. Rendering is
//! deterministic: object keys keep insertion order, floats use Rust's
//! shortest round-trip formatting, and non-finite floats render as
//! `null` (JSON has no NaN/Infinity) — the
//! property that lets the result cache serve byte-identical bodies and
//! the integration tests compare server output to direct library calls
//! byte for byte.

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite or non-finite float (non-finite renders as `null`).
    Num(f64),
    /// An unsigned integer (kept exact; never routed through f64).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub(crate) fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array.
    pub(crate) fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// `Some(x)` renders as `x`, `None` as `null`.
    pub(crate) fn opt(value: Option<Json>) -> Json {
        value.unwrap_or(Json::Null)
    }

    /// An optional float (`None` → `null`).
    pub(crate) fn opt_num(value: Option<f64>) -> Json {
        value.map(Json::Num).unwrap_or(Json::Null)
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Num(1.0).render(), "1");
        assert_eq!(Json::UInt(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::Int(-3).render(), "-3");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn containers_keep_order() {
        let doc = Json::obj([
            ("b", Json::UInt(1)),
            ("a", Json::arr([Json::Null, Json::Bool(false)])),
        ]);
        assert_eq!(doc.render(), "{\"b\":1,\"a\":[null,false]}");
    }

    #[test]
    fn rendering_is_deterministic() {
        let doc = Json::obj([
            ("x", Json::Num(0.1 + 0.2)),
            ("y", Json::opt_num(None)),
            ("z", Json::opt_num(Some(2.5))),
        ]);
        assert_eq!(doc.render(), doc.render());
        assert_eq!(
            doc.render(),
            "{\"x\":0.30000000000000004,\"y\":null,\"z\":2.5}"
        );
    }
}
