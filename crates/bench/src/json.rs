//! A minimal JSON value and its one renderer, used for the `BENCH_baseline.json` snapshot.
//!
//! The layout is fixed so that the file diffs cleanly: an array or object whose members are
//! all scalars is written on one line, any other one member per line. A snapshot row therefore
//! stays one line of text.

use std::fmt::Write;

/// Decimal places every [`Json::Num`] is written with. A fixed precision, rather than the
/// shortest round-trip form, keeps a last-bit difference in a float from reaching the file
/// unless it crosses a rounding boundary.
const DECIMALS: usize = 4;

/// A JSON value. Object members keep their insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `true` or `false`.
    Bool(bool),
    /// A count, written exactly.
    Int(u64),
    /// A measured or derived quantity, written with four decimals; must be finite.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(&'static str, Json)>),
}

/// Builds a [`Json::Obj`] from `"key": value` pairs, converting each value with `Json::from`.
#[macro_export]
macro_rules! json_obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![$(($key, $crate::json::Json::from($value))),*])
    };
}

impl Json {
    /// Renders the value as a document ending in a newline, two spaces of indent per level.
    /// Refuses a NaN or infinite number, naming the path to it.
    pub fn render(&self) -> Result<String, String> {
        let mut out = String::new();
        self.write(&mut out, 0, "$")?;
        out.push('\n');
        Ok(out)
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, depth: usize, path: &str) -> Result<(), String> {
        match self {
            Json::Bool(b) => push(out, format_args!("{b}")),
            Json::Int(i) => push(out, format_args!("{i}")),
            Json::Num(x) if x.is_finite() => push(out, format_args!("{x:.DECIMALS$}")),
            Json::Num(x) => {
                return Err(format!(
                    "refusing to write the non-finite number {x} at {path}"
                ))
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let members = items.iter().map(|v| (None, v)).collect();
                write_members(out, depth, path, ('[', ']'), members)?
            }
            Json::Obj(fields) => {
                let members = fields.iter().map(|(k, v)| (Some(*k), v)).collect();
                write_members(out, depth, path, ('{', '}'), members)?
            }
        }
        Ok(())
    }
}

fn write_members(
    out: &mut String,
    depth: usize,
    path: &str,
    (open, close): (char, char),
    members: Vec<(Option<&str>, &Json)>,
) -> Result<(), String> {
    let flat = members.iter().all(|(_, v)| v.is_scalar());
    out.push(open);
    for (i, (key, value)) in members.into_iter().enumerate() {
        if i > 0 {
            out.push_str(if flat { ", " } else { "," });
        }
        if !flat {
            push(out, format_args!("\n{:1$}", "", 2 * (depth + 1)));
        }
        let path = match key {
            Some(k) => {
                write_str(out, k);
                out.push_str(": ");
                format!("{path}.{k}")
            }
            None => format!("{path}[{i}]"),
        };
        value.write(out, depth + 1, &path)?;
    }
    if !flat {
        push(out, format_args!("\n{:1$}", "", 2 * depth));
    }
    out.push(close);
    Ok(())
}

fn push(out: &mut String, args: std::fmt::Arguments) {
    out.write_fmt(args)
        .expect("writing to a String cannot fail");
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => push(out, format_args!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Int(v.into())
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(u64::try_from(v).expect("usize fits in u64"))
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_containers_take_one_line_and_nested_ones_one_member_per_line() {
        let doc = json_obj! {
            "version": 13u32,
            "rows": vec![
                json_obj! {"name": "chain-20", "ccps": 1330usize, "exact": true},
                json_obj! {"name": "a \"quoted\"\\name", "ccps": 0usize, "exact": false},
            ],
            "series": vec![0.0, 12.5],
            "empty": Vec::<Json>::new(),
        };
        assert_eq!(
            doc.render().unwrap(),
            concat!(
                "{\n",
                "  \"version\": 13,\n",
                "  \"rows\": [\n",
                "    {\"name\": \"chain-20\", \"ccps\": 1330, \"exact\": true},\n",
                "    {\"name\": \"a \\\"quoted\\\"\\\\name\", \"ccps\": 0, \"exact\": false}\n",
                "  ],\n",
                "  \"series\": [0.0000, 12.5000],\n",
                "  \"empty\": []\n",
                "}\n",
            )
        );
    }

    #[test]
    fn non_finite_numbers_are_refused_with_their_path() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = json_obj! {"feedback": json_obj! {"rows": vec![json_obj! {"q": bad}]}};
            let err = doc.render().unwrap_err();
            assert!(err.contains("$.feedback.rows[0].q"), "{err}");
        }
    }
}
