//! A tiny hand-rolled JSON emitter.
//!
//! The workspace is hermetic (no external crates), and the only JSON it
//! ever *writes* is flat machine-readable result summaries such as the
//! bench harness's `BENCH_simnet.json`. This module covers exactly that:
//! objects, arrays, strings, numbers, and booleans, emitted with correct
//! escaping and deterministic field order (insertion order). There is
//! deliberately no parser — nothing in the workspace reads JSON back.

use std::fmt::Write as _;

/// A JSON value under construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values emit as `null`, matching the
    /// behavior of mainstream serializers).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Creates an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds a field to an object (builder style).
    ///
    /// # Panics
    /// If `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_owned(), value.into())),
            #[expect(
                clippy::panic,
                reason = "documented '# Panics' contract of the builder: field() on a non-object is a call-site bug, not a runtime condition"
            )]
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders with two-space indentation, for human-inspectable files.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        // Integral values render without a trailing ".0" so counters
        // look like counters.
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<u32> for Json {
    fn from(x: u32) -> Json {
        Json::Num(f64::from(x))
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<i64> for Json {
    fn from(x: i64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::from(true).render(), "true");
        assert_eq!(Json::from(42u64).render(), "42");
        assert_eq!(Json::from(2.5).render(), "2.5");
        assert_eq!(Json::from("hi").render(), "\"hi\"");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::from("a\"b\\c\nd\te").render(), "\"a\\\"b\\\\c\\nd\\te\"");
        assert_eq!(Json::from("\u{1}").render(), "\"\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::from(f64::NAN).render(), "null");
        assert_eq!(Json::from(f64::INFINITY).render(), "null");
    }

    #[test]
    fn objects_preserve_insertion_order() {
        let j = Json::obj().field("b", 1u64).field("a", 2u64);
        assert_eq!(j.render(), "{\"b\":1,\"a\":2}");
    }

    #[test]
    fn arrays_nest() {
        let j = Json::from(vec![1u64, 2, 3]);
        assert_eq!(j.render(), "[1,2,3]");
        let nested = Json::obj().field("xs", j);
        assert_eq!(nested.render(), "{\"xs\":[1,2,3]}");
    }

    #[test]
    fn pretty_output_is_indented_and_valid_shape() {
        let j = Json::obj()
            .field("name", "bench")
            .field("runs", Json::from(vec![Json::obj().field("pps", 1.5e6)]));
        let s = j.render_pretty();
        assert!(s.contains("  \"name\": \"bench\""), "{s}");
        assert!(s.ends_with("}\n"), "{s}");
    }

    #[test]
    fn empty_containers_render_compactly_in_pretty_mode() {
        assert_eq!(Json::obj().render_pretty(), "{}\n");
        assert_eq!(Json::Arr(Vec::new()).render_pretty(), "[]\n");
    }

    #[test]
    fn integral_floats_render_without_decimal() {
        assert_eq!(Json::from(3.0).render(), "3");
        assert_eq!(Json::from(-7i64).render(), "-7");
    }
}
