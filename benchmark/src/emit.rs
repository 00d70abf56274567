//! A small JSON emitter, and a string scan for reading single fields
//! back. The benchmark uses no JSON parser from the repository: the
//! program's `--json` output and the benchmark's own result files are
//! read by key, one scalar at a time.

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_owned())
    }

    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Compact, on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, usize::MAX);
        out
    }

    /// The top-level object's fields, and the elements of arrays
    /// directly under it, each on a line of their own: the shape
    /// [`scan_f64`] and friends read row by row.
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => {
                let breaks = depth <= 1 && !items.is_empty();
                out.push_str(if breaks { "[\n" } else { "[" });
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if breaks { ",\n" } else { "," });
                    }
                    item.write(out, depth.saturating_add(1));
                }
                out.push_str(if breaks { "\n]" } else { "]" });
            }
            Json::Object(fields) => {
                let breaks = depth == 0;
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if breaks { ",\n" } else { "," });
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out, depth.saturating_add(1));
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The text right after `"key":`, leading whitespace skipped.
fn after_key<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let mut from = 0;
    while let Some(pos) = text[from..].find(&needle) {
        let rest = text[from + pos + needle.len()..].trim_start();
        if let Some(value) = rest.strip_prefix(':') {
            return Some(value.trim_start());
        }
        from += pos + needle.len();
    }
    None
}

/// First number filed under `key` anywhere in `text`.
pub fn scan_f64(text: &str, key: &str) -> Option<f64> {
    let value = after_key(text, key)?;
    let end = value
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(value.len());
    value[..end].parse().ok()
}

/// First unsigned integer filed under `key` anywhere in `text`.
pub fn scan_u64(text: &str, key: &str) -> Option<u64> {
    let value = after_key(text, key)?;
    let end = value
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(value.len());
    value[..end].parse().ok()
}

/// First string filed under `key`; escapes are not expected in the
/// names and units this reads, so a backslash ends the scan.
pub fn scan_str<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let value = after_key(text, key)?.strip_prefix('"')?;
    let end = value.find(['"', '\\'])?;
    value[end..].starts_with('"').then(|| &value[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_scans_back() {
        let doc = Json::object(vec![
            ("schema", Json::Num(1.0)),
            (
                "rows",
                Json::Array(vec![
                    Json::object(vec![
                        ("metric", Json::str("ops_per_s")),
                        ("median", Json::Num(12.5)),
                        (
                            "values",
                            Json::Array(vec![Json::Num(12.0), Json::Num(13.0)]),
                        ),
                    ]),
                    Json::object(vec![("metric", Json::str("x\"y")), ("median", Json::Null)]),
                ]),
            ),
        ]);
        let text = doc.render_lines();
        let rows: Vec<&str> = text.lines().filter(|l| l.contains("\"metric\"")).collect();
        assert_eq!(rows.len(), 2, "{text}");
        assert_eq!(scan_str(rows[0], "metric"), Some("ops_per_s"));
        assert_eq!(scan_f64(rows[0], "median"), Some(12.5));
        assert_eq!(scan_f64(rows[1], "median"), None);
        assert_eq!(
            scan_str(rows[1], "metric"),
            None,
            "escaped names are refused"
        );
        assert_eq!(doc.render().lines().count(), 1);
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(3.0).render(), "3");
    }

    #[test]
    fn scans_pretty_printed_program_output() {
        let text = "{\n  \"stats\": {\n    \"diff_count\": 4096,\n    \"chunks_flagged\" : 12\n  },\n  \"diff_count_note\": 1\n}";
        assert_eq!(scan_u64(text, "diff_count"), Some(4096));
        assert_eq!(scan_u64(text, "chunks_flagged"), Some(12));
        assert_eq!(scan_u64(text, "missing"), None);
        assert_eq!(scan_f64("{\"t\": -1.5e-3}", "t"), Some(-1.5e-3));
    }
}
