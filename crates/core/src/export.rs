//! CSV and JSON export of figure and sweep data.
//!
//! Every figure function returns plain data series; these helpers serialise
//! them so results can be plotted with external tooling (gnuplot, matplotlib)
//! exactly like the paper's figures. The [`json`] submodule is the
//! counterpart for the sweep runner's machine-readable results: the
//! workspace has no serialisation dependency, so JSON is hand-serialised
//! here, just like the trace crate's CSV codec.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Serialises one `(x, y)` series with a header line.
///
/// # Example
///
/// ```
/// let csv = consume_local::export::series_csv("capacity", "savings",
///     &[(1.0, 0.1), (10.0, 0.3)]);
/// assert_eq!(csv.lines().count(), 3);
/// assert!(csv.starts_with("capacity,savings"));
/// ```
pub fn series_csv(x_name: &str, y_name: &str, series: &[(f64, f64)]) -> String {
    let mut out = format!("{x_name},{y_name}\n");
    for (x, y) in series {
        let _ = writeln!(out, "{x},{y}");
    }
    out
}

/// Serialises labelled columns of equal length: `x` plus one named column per
/// series.
///
/// # Panics
///
/// Panics if the series have different lengths from `x`.
pub fn columns_csv(x_name: &str, x: &[f64], columns: &[(&str, Vec<f64>)]) -> String {
    for (name, col) in columns {
        assert_eq!(col.len(), x.len(), "column `{name}` length mismatch");
    }
    let mut out = String::from(x_name);
    for (name, _) in columns {
        let _ = write!(out, ",{name}");
    }
    out.push('\n');
    for (i, xv) in x.iter().enumerate() {
        let _ = write!(out, "{xv}");
        for (_, col) in columns {
            let _ = write!(out, ",{}", col[i]);
        }
        out.push('\n');
    }
    out
}

/// Writes a CSV string to a file, creating parent directories.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_csv(path: impl AsRef<Path>, csv: &str) -> io::Result<()> {
    write_text(path, csv)
}

/// Writes any text artefact (CSV, JSON) to a file, creating parent
/// directories.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_text(path: impl AsRef<Path>, content: &str) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, content)
}

pub mod json {
    //! A minimal JSON document model with deterministic rendering.
    //!
    //! Field order is preserved exactly as inserted and floats render via
    //! Rust's shortest-roundtrip formatting, so two identical sweeps produce
    //! byte-identical documents — the property the determinism suite pins.

    use std::fmt::Write as _;

    /// A JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum JsonValue {
        /// `null` (also the rendering of non-finite numbers).
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// An integer (kept exact; no float round-trip).
        Int(u64),
        /// A float; non-finite values render as `null`.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<JsonValue>),
        /// An object with insertion-ordered fields.
        Obj(Vec<(String, JsonValue)>),
    }

    impl From<bool> for JsonValue {
        fn from(v: bool) -> Self {
            JsonValue::Bool(v)
        }
    }
    impl From<u64> for JsonValue {
        fn from(v: u64) -> Self {
            JsonValue::Int(v)
        }
    }
    impl From<u32> for JsonValue {
        fn from(v: u32) -> Self {
            JsonValue::Int(v.into())
        }
    }
    impl From<usize> for JsonValue {
        fn from(v: usize) -> Self {
            JsonValue::Int(v as u64)
        }
    }
    impl From<f64> for JsonValue {
        fn from(v: f64) -> Self {
            JsonValue::Num(v)
        }
    }
    impl From<&str> for JsonValue {
        fn from(v: &str) -> Self {
            JsonValue::Str(v.to_string())
        }
    }
    impl From<String> for JsonValue {
        fn from(v: String) -> Self {
            JsonValue::Str(v)
        }
    }
    impl From<Vec<JsonValue>> for JsonValue {
        fn from(v: Vec<JsonValue>) -> Self {
            JsonValue::Arr(v)
        }
    }

    impl JsonValue {
        /// An empty object.
        pub fn object() -> Self {
            JsonValue::Obj(Vec::new())
        }

        /// Appends a field to an object (builder style).
        ///
        /// # Panics
        ///
        /// Panics when `self` is not an object.
        pub fn field(mut self, name: &str, value: impl Into<JsonValue>) -> Self {
            match &mut self {
                JsonValue::Obj(fields) => fields.push((name.to_string(), value.into())),
                _ => panic!("field() requires a JSON object"),
            }
            self
        }

        /// Renders the value as a compact JSON document.
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.write(&mut out);
            out
        }

        fn write(&self, out: &mut String) {
            match self {
                JsonValue::Null => out.push_str("null"),
                JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                JsonValue::Int(i) => {
                    let _ = write!(out, "{i}");
                }
                JsonValue::Num(x) if !x.is_finite() => out.push_str("null"),
                JsonValue::Num(x) => {
                    let _ = write!(out, "{x}");
                    // `{}` prints integral floats without a decimal point;
                    // keep them typed as numbers-with-fraction for parsers
                    // that distinguish int from float.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        out.push_str(".0");
                    }
                }
                JsonValue::Str(s) => write_escaped(out, s),
                JsonValue::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        item.write(out);
                    }
                    out.push(']');
                }
                JsonValue::Obj(fields) => {
                    out.push('{');
                    for (i, (name, value)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write_escaped(out, name);
                        out.push(':');
                        value.write(out);
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
        fn renders_nested_document() {
            let doc = JsonValue::object()
                .field("name", "sweep")
                .field("n", 3u64)
                .field("ok", true)
                .field("ratio", 0.5)
                .field("items", vec![JsonValue::Int(1), JsonValue::Null]);
            assert_eq!(
                doc.render(),
                r#"{"name":"sweep","n":3,"ok":true,"ratio":0.5,"items":[1,null]}"#
            );
        }

        #[test]
        fn escapes_strings_and_hides_nonfinite() {
            let doc = JsonValue::object()
                .field("s", "a\"b\\c\nd\u{1}")
                .field("nan", f64::NAN)
                .field("int_float", 2.0);
            assert_eq!(
                doc.render(),
                r#"{"s":"a\"b\\c\nd\u0001","nan":null,"int_float":2.0}"#
            );
        }

        #[test]
        #[should_panic(expected = "requires a JSON object")]
        fn field_on_non_object_panics() {
            let _ = JsonValue::Null.field("x", 1u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_round_shape() {
        let csv = series_csv("x", "y", &[(0.5, 1.5)]);
        assert_eq!(csv, "x,y\n0.5,1.5\n");
    }

    #[test]
    fn columns_shape() {
        let csv = columns_csv(
            "c",
            &[1.0, 2.0],
            &[("a", vec![0.1, 0.2]), ("b", vec![0.9, 0.8])],
        );
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "c,a,b");
        assert_eq!(lines[1], "1,0.1,0.9");
        assert_eq!(lines[2], "2,0.2,0.8");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn columns_validate_lengths() {
        let _ = columns_csv("c", &[1.0], &[("a", vec![])]);
    }

    #[test]
    fn write_creates_dirs() {
        let dir = std::env::temp_dir().join("consume-local-test-export");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/file.csv");
        write_csv(&path, "a,b\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
