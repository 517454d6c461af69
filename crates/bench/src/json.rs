//! A minimal JSON value and pretty-printer for the bench records (the
//! build is offline: no serde).

/// A JSON value. Objects keep insertion order.
///
/// Every number is an `f64`: the records' counters stay far below 2^53,
/// where `f64` is exact, and a non-finite value (a ratio over a zero
/// count) prints as `null`, so a failing run still yields a record that
/// parses.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `true` or `false`.
    Bool(bool),
    /// A number, printed in the shortest form that reads back exactly.
    Num(f64),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object whose fields keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (builder style).
    ///
    /// # Panics
    ///
    /// If `self` is not an object.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("`with` on a non-object"),
        }
        self
    }

    /// Appends every field of the object `other` to the object `self`.
    ///
    /// # Panics
    ///
    /// If either side is not an object.
    pub fn extend(mut self, other: Json) -> Json {
        match (&mut self, other) {
            (Json::Obj(fields), Json::Obj(more)) => fields.extend(more),
            _ => panic!("`extend` needs two objects"),
        }
        self
    }

    /// `x` rounded to `decimals` places, the precision a record keeps.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        Json::Num(format!("{x:.decimals$}").parse().unwrap_or(x))
    }

    /// Two-space indented text with a trailing newline. A value that
    /// holds no object prints on one line, so a sweep reads as one row
    /// per point.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn children(&self) -> Vec<(Option<&str>, &Json)> {
        match self {
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Obj(fields) => fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            _ => Vec::new(),
        }
    }

    fn holds_object(&self) -> bool {
        self.children()
            .iter()
            .any(|(_, v)| matches!(v, Json::Obj(_)) || v.holds_object())
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (open, close) = match self {
            Json::Bool(b) => return out.push_str(&b.to_string()),
            Json::Num(x) if x.is_finite() => return out.push_str(&x.to_string()),
            Json::Num(_) => return out.push_str("null"),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(_) => ('[', ']'),
            Json::Obj(_) => ('{', '}'),
        };
        let children = self.children();
        let one_line = !self.holds_object();
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        };
        out.push(open);
        for (i, (key, value)) in children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if !one_line {
                newline(out, depth + 1);
            } else if i > 0 {
                out.push(' ');
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        if !one_line {
            newline(out, depth);
        }
        out.push(close);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
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

macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}

from_number!(f64, u64, u32, usize);

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
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_print_on_one_line_and_numbers_read_back() {
        let j = Json::obj()
            .with("cores", vec![1u64, 4])
            .with("gate", Json::obj().with("ratio", 0.5).with("passed", true))
            .with("points", vec![Json::obj().with("n", 1u64), Json::obj()]);
        assert_eq!(
            j.pretty(),
            "{\n  \"cores\": [1, 4],\n  \"gate\": {\"ratio\": 0.5, \"passed\": true},\n  \
             \"points\": [\n    {\"n\": 1},\n    {}\n  ]\n}\n"
        );
        // Numbers keep their rounded value; non-finite ones are null.
        assert_eq!(Json::fixed(0.97891, 4).pretty(), "0.9789\n");
        assert_eq!(Json::fixed(310422.5001, 0).pretty(), "310423\n");
        assert_eq!(Json::from(4096u64).pretty(), "4096\n");
        assert_eq!(Json::fixed(f64::INFINITY, 1).pretty(), "null\n");
        assert_eq!(Json::Num(f64::NAN).pretty(), "null\n");
    }

    #[test]
    fn strings_are_escaped() {
        let j = Json::obj().with("a\"b", "q\"x\\y\nz\t\u{1}");
        assert_eq!(j.pretty(), "{\"a\\\"b\": \"q\\\"x\\\\y\\nz\\t\\u0001\"}\n");
    }
}
