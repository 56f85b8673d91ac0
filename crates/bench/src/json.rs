//! The field readers behind `bench_compare` and `trace_tool`: purpose-built
//! scanners for the flat JSON objects this workspace writes itself (the
//! workspace vendors no JSON dependency). Both accept `"key":value` with
//! or without whitespace after the colon, so the pretty-printed
//! `BENCH_engine.json` rows and the compact JSONL trace lines share one
//! reader.

use std::str::FromStr;

/// The text right after `"key":` (leading whitespace skipped).
fn value_of<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    Some(obj[start..].trim_start())
}

/// The string value of `"key": "..."` in one JSON object body.
pub fn str_field(obj: &str, key: &str) -> Option<String> {
    let rest = value_of(obj, key)?.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// The numeric value of `"key": <number>` in one JSON object body,
/// parsed as `T` (`u64` for counters, `f64` for rates).
pub fn num_field<T: FromStr>(obj: &str, key: &str) -> Option<T> {
    let rest = value_of(obj, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_pretty_and_compact_objects_alike() {
        for obj in [
            r#"{"family": "gnp", "n": 4096, "rate": 1.5e3}"#,
            r#"{"family":"gnp","n":4096,"rate":1.5e3}"#,
        ] {
            assert_eq!(str_field(obj, "family").as_deref(), Some("gnp"));
            assert_eq!(num_field::<u64>(obj, "n"), Some(4096));
            assert_eq!(num_field::<f64>(obj, "rate"), Some(1500.0));
            assert_eq!(num_field::<u64>(obj, "missing"), None);
            assert_eq!(str_field(obj, "n"), None, "a number is not a string");
        }
    }
}
