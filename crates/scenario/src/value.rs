//! A total, std-only parser for the scenario spec surface.
//!
//! Specs are written in a TOML subset (single-level tables, arrays of
//! tables, scalar/array values, `#` comments), parsed into a generic
//! [`Value`] tree that [`crate::spec`] lowers into a typed campaign.
//!
//! **Totality is the contract**: any byte sequence — hostile, torn, or
//! bit-flipped — produces either a `Value` or a typed
//! [`ParseError`], never a panic. Recursion is depth-capped, numbers are
//! checked finite, and every failure carries the 1-based source line.

use std::fmt;

/// Maximum nesting depth for arrays/objects before the parser refuses —
/// a stack-overflow guard for adversarial inputs like `[[[[[…`.
const MAX_DEPTH: usize = 64;

/// A parsed configuration value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    /// A UTF-8 string.
    Str(String),
    /// A 64-bit signed integer.
    Int(i64),
    /// A finite 64-bit float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An ordered list of values.
    Array(Vec<Value>),
    /// An ordered table; keys are unique within one table.
    Table(Vec<(String, Value)>),
}

impl Value {
    /// Human-facing name of the variant, for error messages.
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
            Value::Table(_) => "table",
        }
    }

    /// Look a key up in a table value.
    pub(crate) fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Table(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The table's entries, if this is a table.
    pub(crate) fn entries(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Table(entries) => Some(entries),
            _ => None,
        }
    }
}

/// A syntax error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending construct.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// Parse the TOML subset: `[table]`, `[[array-of-tables]]`,
/// `key = value` lines, `#` comments. Values: strings, integers,
/// floats, booleans, single-line arrays. No dotted keys, inline
/// tables, or dates.
pub(crate) fn parse_toml(src: &str) -> Result<Value, ParseError> {
    let mut root: Vec<(String, Value)> = Vec::new();
    // (section name, is-array-of-tables); None = top level.
    let mut cursor: Option<(String, bool)> = None;

    for (i, raw) in src.lines().enumerate() {
        let line_no = i + 1;
        let line = strip_comment(raw, line_no)?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            let Some(name) = rest.strip_suffix("]]") else {
                return err(line_no, "unterminated [[table]] header");
            };
            let name = check_key(name.trim(), line_no)?;
            match root.iter_mut().find(|(k, _)| k == &name) {
                None => root.push((name.clone(), Value::Array(vec![Value::Table(Vec::new())]))),
                Some((_, Value::Array(items))) => items.push(Value::Table(Vec::new())),
                Some(_) => return err(line_no, format!("`{name}` is not an array of tables")),
            }
            cursor = Some((name, true));
        } else if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return err(line_no, "unterminated [table] header");
            };
            let name = check_key(name.trim(), line_no)?;
            if root.iter().any(|(k, _)| k == &name) {
                return err(line_no, format!("table `{name}` defined twice"));
            }
            root.push((name.clone(), Value::Table(Vec::new())));
            cursor = Some((name, false));
        } else {
            // Keys are bare, so the first `=` ends the key.
            let Some(eq) = line.find('=') else {
                return err(line_no, "expected `key = value` or a [table] header");
            };
            let key = check_key(line[..eq].trim(), line_no)?;
            let value = parse_scalar(line[eq + 1..].trim(), line_no, 0)?;
            let table = match &cursor {
                None => &mut root,
                Some((name, is_array)) => {
                    let slot = root
                        .iter_mut()
                        .find(|(k, _)| k == name)
                        .map(|(_, v)| v)
                        .expect("cursor names an existing section");
                    let table_value = if *is_array {
                        match slot {
                            Value::Array(items) => {
                                items.last_mut().expect("array-of-tables is non-empty")
                            }
                            _ => unreachable!("array cursor points at array"),
                        }
                    } else {
                        slot
                    };
                    match table_value {
                        Value::Table(entries) => entries,
                        _ => unreachable!("cursor points at table"),
                    }
                }
            };
            if table.iter().any(|(k, _)| k == &key) {
                return err(line_no, format!("key `{key}` set twice in one table"));
            }
            table.push((key, value));
        }
    }
    Ok(Value::Table(root))
}

/// Remove a trailing `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str, line_no: usize) -> Result<&str, ParseError> {
    let mut in_str = false;
    let mut escaped = false;
    for (idx, ch) in line.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_str = false;
            }
        } else if ch == '"' {
            in_str = true;
        } else if ch == '#' {
            return Ok(&line[..idx]);
        }
    }
    if in_str {
        return err(line_no, "unterminated string");
    }
    Ok(line)
}

fn check_key(key: &str, line_no: usize) -> Result<String, ParseError> {
    if key.is_empty() {
        return err(line_no, "empty key");
    }
    if !key
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return err(line_no, format!("invalid key `{key}` (bare keys only)"));
    }
    Ok(key.to_string())
}

/// Parse one scalar or single-line array value.
fn parse_scalar(text: &str, line_no: usize, depth: usize) -> Result<Value, ParseError> {
    if depth > MAX_DEPTH {
        return err(line_no, "value nested too deeply");
    }
    if text.is_empty() {
        return err(line_no, "missing value after `=`");
    }
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if text.starts_with('"') {
        let (s, used) = parse_quoted(text, line_no)?;
        if used != text.len() {
            return err(line_no, "trailing characters after string");
        }
        return Ok(Value::Str(s));
    }
    if let Some(inner) = text.strip_prefix('[') {
        let Some(inner) = inner.strip_suffix(']') else {
            return err(line_no, "unterminated array (arrays must be single-line)");
        };
        let mut items = Vec::new();
        for piece in split_array_items(inner, line_no)? {
            items.push(parse_scalar(piece.trim(), line_no, depth + 1)?);
        }
        return Ok(Value::Array(items));
    }
    parse_number(text, line_no)
}

/// Parse a double-quoted string starting at byte 0; returns the string
/// and the number of bytes consumed (including both quotes).
fn parse_quoted(text: &str, line_no: usize) -> Result<(String, usize), ParseError> {
    debug_assert!(text.starts_with('"'));
    let mut out = String::new();
    let mut chars = text.char_indices().skip(1);
    while let Some((idx, ch)) = chars.next() {
        match ch {
            '"' => return Ok((out, idx + 1)),
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, other)) => {
                    return err(line_no, format!("unsupported escape `\\{other}`"));
                }
                None => return err(line_no, "unterminated escape"),
            },
            _ => out.push(ch),
        }
    }
    err(line_no, "unterminated string")
}

/// Split the interior of `[...]` on top-level commas, respecting
/// strings and nested brackets. Allows a trailing comma.
fn split_array_items(inner: &str, line_no: usize) -> Result<Vec<&str>, ParseError> {
    let mut items = Vec::new();
    let mut start = 0usize;
    let mut bracket_depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for (idx, ch) in inner.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_str = false;
            }
            continue;
        }
        match ch {
            '"' => in_str = true,
            '[' => bracket_depth += 1,
            ']' => {
                if bracket_depth == 0 {
                    return err(line_no, "unbalanced `]` in array");
                }
                bracket_depth -= 1;
            }
            ',' if bracket_depth == 0 => {
                items.push(&inner[start..idx]);
                start = idx + 1;
            }
            _ => {}
        }
    }
    if in_str {
        return err(line_no, "unterminated string in array");
    }
    if bracket_depth != 0 {
        return err(line_no, "unbalanced `[` in array");
    }
    let tail = &inner[start..];
    if !tail.trim().is_empty() {
        items.push(tail);
    }
    Ok(items)
}

/// Parse an integer or finite float. Underscore digit separators are
/// accepted in integers. `inf`/`nan` spellings are rejected.
fn parse_number(text: &str, line_no: usize) -> Result<Value, ParseError> {
    if !text
        .chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '+' | '-' | '.' | 'e' | 'E' | '_'))
    {
        return err(line_no, format!("unrecognised value `{text}`"));
    }
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    if cleaned.is_empty() {
        return err(line_no, format!("unrecognised value `{text}`"));
    }
    if !cleaned.contains('.') && !cleaned.contains('e') && !cleaned.contains('E') {
        if let Ok(i) = cleaned.parse::<i64>() {
            return Ok(Value::Int(i));
        }
        return err(line_no, format!("integer `{text}` out of range"));
    }
    match cleaned.parse::<f64>() {
        Ok(f) if f.is_finite() => Ok(Value::Float(f)),
        _ => err(line_no, format!("invalid float `{text}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_tables_and_scalars() {
        let v = parse_toml(
            r#"
# campaign header
top = 1
[campaign]
name = "demo"
seed = 42
scale = 1.5
flag = true
systems = [12, 14]  # trailing comment
labels = ["a", "b,c"]
trail = [1, 2,]
eq = "x=y"
[[proj]]
name = "exa"
nodes = 100_000
[[proj]]
name = "zeta"
"#,
        )
        .unwrap();
        assert_eq!(v.get("top"), Some(&Value::Int(1)));
        let c = v.get("campaign").unwrap();
        assert_eq!(c.get("name"), Some(&Value::Str("demo".into())));
        assert_eq!(c.get("seed"), Some(&Value::Int(42)));
        assert_eq!(c.get("scale"), Some(&Value::Float(1.5)));
        assert_eq!(c.get("flag"), Some(&Value::Bool(true)));
        assert_eq!(
            c.get("systems"),
            Some(&Value::Array(vec![Value::Int(12), Value::Int(14)]))
        );
        assert_eq!(
            c.get("labels"),
            Some(&Value::Array(vec![
                Value::Str("a".into()),
                Value::Str("b,c".into())
            ]))
        );
        assert_eq!(
            c.get("trail"),
            Some(&Value::Array(vec![Value::Int(1), Value::Int(2)]))
        );
        assert_eq!(c.get("eq"), Some(&Value::Str("x=y".into())));
        match v.get("proj").unwrap() {
            Value::Array(items) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[0].get("nodes"), Some(&Value::Int(100_000)));
                assert_eq!(items[1].get("name"), Some(&Value::Str("zeta".into())));
            }
            other => panic!("expected array of tables, got {}", other.type_name()),
        }
    }

    #[test]
    fn toml_rejects_malformed_lines_with_line_numbers() {
        for (src, needle) in [
            ("key", "expected `key = value`"),
            ("[unclosed", "unterminated [table]"),
            ("[[unclosed]", "unterminated [[table]]"),
            ("a = ", "missing value"),
            ("a = \"open", "unterminated string"),
            ("a = [1, 2", "unterminated array"),
            ("a = 1\na = 2", "set twice"),
            ("[t]\n[t]", "defined twice"),
            ("a = nope", "unrecognised value"),
            ("a = 99999999999999999999", "out of range"),
            ("a = 1e999999", "invalid float"),
            ("a = .", "invalid float"),
            ("bad key = 1", "invalid key"),
        ] {
            let e = parse_toml(src).unwrap_err();
            assert!(
                e.message.contains(needle),
                "src {src:?} gave {:?}, wanted {needle:?}",
                e.message
            );
            assert!(e.line >= 1);
        }
    }

    #[test]
    fn toml_deep_nesting_is_refused_not_overflowed() {
        let src = format!("a = {}{}", "[".repeat(300), "]".repeat(300));
        let e = parse_toml(&src).unwrap_err();
        assert!(
            e.message.contains("deep") || e.message.contains("unbalanced"),
            "{:?}",
            e.message
        );
    }

    #[test]
    fn unicode_and_escapes_round_trip() {
        let v = parse_toml("s = \"caf\u{e9} \\\"q\\\" \\n tab\\t\"").unwrap();
        assert_eq!(
            v.get("s"),
            Some(&Value::Str("caf\u{e9} \"q\" \n tab\t".into()))
        );
    }
}
