//! JSON writing for result files. Parsing is `oram_telemetry::json`
//! (the workspace's one reader); this adds the matching writer for its
//! [`Value`] so a result file round-trips through the same type.

use std::collections::BTreeMap;

pub use oram_telemetry::json::{parse, Value};

/// Builds an object from `(key, value)` pairs.
pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect::<BTreeMap<_, _>>())
}

pub fn num(n: impl Into<f64>) -> Value {
    Value::Number(n.into())
}

/// Counts stay exact below 2^53, far above any count this harness makes.
pub fn count(n: u64) -> Value {
    Value::Number(n as f64)
}

pub fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

/// Serializes `v` compactly on one line. Numbers print with every digit
/// `f64` needs to round-trip; non-finite numbers (which JSON cannot
/// carry) become `null`.
pub fn emit(v: &Value) -> String {
    let mut out = String::new();
    write_value(v, &mut out);
    out
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) if n.is_finite() => out.push_str(&format!("{n}")),
        Value::Number(_) => out.push_str("null"),
        Value::String(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
/// A name the benchmark contract accepts: starts with a letter or digit,
/// then letters, digits, `_`, `.` and `-`, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// A unit the benchmark contract accepts: 1 to 16 letters, digits,
/// `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_then_parse_round_trips() {
        let v = obj([
            ("name", text("serve \"flat\"\n\ttab \\ \u{1}")),
            ("value", num(1203.400000000001)),
            ("tiny", num(1e-9)),
            ("count", count(80_000)),
            ("ok", Value::Bool(true)),
            ("none", Value::Null),
            ("list", Value::Array(vec![num(1.5), obj([("k", num(-2.0))])])),
        ]);
        let line = emit(&v);
        assert!(!line.contains('\n'), "one line: {line}");
        assert_eq!(parse(&line).unwrap(), v);
        assert_eq!(emit(&count(80_000)), "80000");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(emit(&num(f64::NAN)), "null");
        assert_eq!(emit(&num(f64::INFINITY)), "null");
    }

    #[test]
    fn name_charset() {
        for ok in ["host_ops_per_s", "protocol.access_ns.rd_dup", "p99-9", "7z"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "req/Mcycle", "a%", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("req/Mcycle") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("") && !valid_unit("cycles per second") && !valid_unit("a b"));
    }
}
