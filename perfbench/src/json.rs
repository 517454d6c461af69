//! A minimal JSON value and writer (the build is offline: no serde).

use std::fmt::{self, Write};

/// A JSON value. Objects keep insertion order.
#[derive(Clone, Debug)]
pub enum Json {
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (builder style).
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.push(key, value);
        self
    }

    /// Appends `key: value` to an object.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("push on a non-object"),
        }
    }

    /// Pretty-printed with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(0)).expect("writing to a String");
        s.push('\n');
        s
    }

    fn write(&self, out: &mut String, indent: Option<usize>) -> fmt::Result {
        let (nl, pad, pad_in) = match indent {
            Some(n) => ("\n", "  ".repeat(n), "  ".repeat(n + 1)),
            None => ("", String::new(), String::new()),
        };
        let inner = indent.map(|n| n + 1);
        let sep = if indent.is_some() { ": " } else { ":" };
        match self {
            Json::Bool(b) => write!(out, "{b}"),
            Json::Int(i) => write!(out, "{i}"),
            Json::Num(x) if x.is_finite() => write!(out, "{x:?}"),
            Json::Num(_) => out.write_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) if items.is_empty() => out.write_str("[]"),
            Json::Arr(items) => {
                write!(out, "[{nl}")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(out, ",{nl}")?;
                    }
                    out.write_str(&pad_in)?;
                    v.write(out, inner)?;
                }
                write!(out, "{nl}{pad}]")
            }
            Json::Obj(fields) if fields.is_empty() => out.write_str("{}"),
            Json::Obj(fields) => {
                write!(out, "{{{nl}")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(out, ",{nl}")?;
                    }
                    out.write_str(&pad_in)?;
                    write_str(out, k)?;
                    out.write_str(sep)?;
                    v.write(out, inner)?;
                }
                write!(out, "{nl}{pad}}}")
            }
        }
    }
}

/// Compact single-line form.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s, None)?;
        f.write_str(&s)
    }
}

fn write_str(out: &mut String, s: &str) -> fmt::Result {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.push(c),
        }
    }
    out.push('"');
    Ok(())
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
    fn from(i: u64) -> Json {
        Json::Int(i64::try_from(i).expect("counter fits in i64"))
    }
}

impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::from(i as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty() {
        let j = Json::obj()
            .with("a", 1u64)
            .with("b", 0.5)
            .with("s", "q\"x")
            .with("v", vec![1u64, 2]);
        assert_eq!(j.to_string(), r#"{"a":1,"b":0.5,"s":"q\"x","v":[1,2]}"#);
        assert!(j.pretty().contains("\n  \"a\": 1,\n"));
        // Whole floats keep a decimal point, so they read back as numbers
        // with every digit.
        assert_eq!(Json::Num(3.0).to_string(), "3.0");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }
}
