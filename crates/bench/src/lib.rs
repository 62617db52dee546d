//! Shared helpers for the reproduction harnesses (`src/bin/fig*.rs`,
//! `summary_ratios`) and the Criterion benches.
//!
//! Every harness regenerates one table or figure from the paper's §6 and
//! prints it. The one common knob is `--scale`:
//!
//! * `--scale small` (default) — shrinks the workload sizes (N, corpus sizes)
//!   by a documented factor so a full run finishes in seconds to minutes on a
//!   laptop, while preserving every protocol code path.
//! * `--scale paper` — the paper's native sizes (can take hours for the
//!   largest points; used to spot-check individual rows).
//!
//! Performance claims are not made from these binaries: the repo's benchmark
//! (`BENCHMARK.json`, `benchmark/`) defines those numbers, and imports
//! [`JsonValue`], [`arg_value`] and [`synthetic_model`] from here.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pretzel_classifiers::LinearModel;
use pretzel_core::Scale;

/// Parses `--scale small|paper` (or `--scale=…`) from the process arguments;
/// absent means small. An unknown value exits non-zero rather than running
/// the figure at a size other than the one asked for.
pub fn parse_scale() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    scale_from_args(&args).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    })
}

fn scale_from_args(args: &[String]) -> Result<Scale, String> {
    match find_arg(args, "--scale").as_deref() {
        None | Some("small") => Ok(Scale::Test),
        Some("paper") => Ok(Scale::Paper),
        Some(other) => Err(format!(
            "unknown --scale {other:?}: accepted values are `small` and `paper`"
        )),
    }
}

/// Looks up a command-line flag's value, accepting both `--name value` and
/// `--name=value`. Shared by the bench bins so flag parsing can't diverge.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    find_arg(&args, name)
}

fn find_arg(args: &[String], name: &str) -> Option<String> {
    for i in 0..args.len() {
        if args[i] == name {
            return args.get(i + 1).cloned();
        }
        if let Some(v) = args[i].strip_prefix(&format!("{name}=")) {
            return Some(v.to_string());
        }
    }
    None
}

/// A JSON value for the benchmark's reports — hand-rolled because the
/// workspace's vendored `serde` is an offline stub without `serde_json`.
/// Covers exactly what that output needs: objects, arrays, numbers, strings,
/// booleans.
#[derive(Clone, Debug)]
pub enum JsonValue {
    /// A floating-point number (non-finite values render as `null`).
    Num(f64),
    /// An unsigned integer.
    Int(u64),
    /// A string (escaped on render).
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An ordered array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience constructor for objects from `(key, value)` pairs.
    pub fn obj<const N: usize>(pairs: [(&str, JsonValue); N]) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    fn render(&self, out: &mut String) {
        match self {
            JsonValue::Num(x) if x.is_finite() => out.push_str(&format!("{x}")),
            JsonValue::Num(_) => out.push_str("null"),
            JsonValue::Int(x) => out.push_str(&format!("{x}")),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Str(s) => {
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
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    JsonValue::Str(k.clone()).render(out);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }

    /// Renders the value as a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.render(&mut out);
        out
    }

    /// Parses a JSON document — the inverse of [`JsonValue::to_json`],
    /// hand-rolled for the same reason the renderer is. `null` parses to
    /// `JsonValue::Num(f64::NAN)`, mirroring how the renderer emits
    /// non-finite numbers, so render → parse → render is a fixpoint.
    /// Integers without fraction/exponent that fit in `u64` become
    /// [`JsonValue::Int`].
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: `Num` as-is, `Int` widened. `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            JsonValue::Int(x) => Some(*x as f64),
            _ => None,
        }
    }

    /// Integer view (`Int` only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(x) => Some(*x),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at offset {}",
            char::from(want),
            *pos
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect_byte(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(JsonValue::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(JsonValue::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(JsonValue::Num(f64::NAN))
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    let mut chars = std::str::from_utf8(&bytes[*pos..])
        .map_err(|_| "invalid UTF-8 in string".to_string())?
        .char_indices();
    while let Some((offset, c)) = chars.next() {
        match c {
            '"' => {
                *pos += offset + 1;
                return Ok(out);
            }
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'b')) => out.push('\u{0008}'),
                Some((_, 'f')) => out.push('\u{000c}'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let (_, h) = chars.next().ok_or("truncated \\u escape")?;
                        code = code * 16 + h.to_digit(16).ok_or("bad \\u escape digit")?;
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number bytes");
    if text.is_empty() {
        return Err(format!("expected a value at offset {start}"));
    }
    if !text.contains(['.', 'e', 'E', '-']) {
        if let Ok(int) = text.parse::<u64>() {
            return Ok(JsonValue::Int(int));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|e| format!("bad number {text:?}: {e}"))
}

/// Times a closure, returning its result and the elapsed wall-clock time.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Times a closure averaged over `iters` runs.
pub fn time_avg(iters: usize, mut f: impl FnMut()) -> Duration {
    assert!(iters > 0);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters as u32
}

/// Builds a synthetic trained linear model with `num_features` features and
/// `num_classes` classes (random log-probability-like weights). Used by the
/// resource benchmarks, where accuracy is not the quantity under test but the
/// model *shape* (N, B) drives every cost.
pub fn synthetic_model(num_features: usize, num_classes: usize, seed: u64) -> LinearModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let weights = (0..num_classes)
        .map(|_| {
            (0..num_features)
                .map(|_| -rng.gen_range(0.1..12.0f64))
                .collect()
        })
        .collect();
    let bias = (0..num_classes)
        .map(|_| -rng.gen_range(0.1..4.0f64))
        .collect();
    LinearModel { weights, bias }
}

/// Formats a byte count the way the paper's tables do (KB / MB / GB).
pub fn human_bytes(bytes: f64) -> String {
    if bytes >= 1e9 {
        format!("{:.1} GB", bytes / 1e9)
    } else if bytes >= 1e6 {
        format!("{:.1} MB", bytes / 1e6)
    } else if bytes >= 1e3 {
        format!("{:.1} KB", bytes / 1e3)
    } else {
        format!("{bytes:.0} B")
    }
}

/// Formats a duration in the unit the relevant figure uses.
pub fn human_us(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us >= 1e6 {
        format!("{:.2} s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.2} ms", us / 1e3)
    } else {
        format!("{us:.1} µs")
    }
}

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, width) in cells.iter().zip(widths.iter()) {
        line.push_str(&format!("{:<width$}  ", cell, width = width));
    }
    println!("{}", line.trim_end());
}

/// Prints a table header followed by a separator line.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(total));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_model_shape() {
        let m = synthetic_model(100, 5, 1);
        assert_eq!(m.num_features(), 100);
        assert_eq!(m.num_classes(), 5);
        // Deterministic given the seed.
        assert_eq!(m.weights, synthetic_model(100, 5, 1).weights);
    }

    #[test]
    fn human_formatting() {
        assert_eq!(human_bytes(512.0), "512 B");
        assert_eq!(human_bytes(183.5e6), "183.5 MB");
        assert_eq!(human_bytes(1.3e9), "1.3 GB");
        assert_eq!(human_us(Duration::from_micros(650)), "650.0 µs");
        assert_eq!(human_us(Duration::from_millis(358)), "358.00 ms");
    }

    #[test]
    fn json_rendering_escapes_and_nests() {
        let v = JsonValue::obj([
            ("name", JsonValue::Str("a \"quoted\"\nline".into())),
            ("n", JsonValue::Int(42)),
            ("ratio", JsonValue::Num(2.5)),
            ("nan", JsonValue::Num(f64::NAN)),
            ("ok", JsonValue::Bool(true)),
            (
                "rows",
                JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Int(2)]),
            ),
        ]);
        assert_eq!(
            v.to_json(),
            "{\"name\":\"a \\\"quoted\\\"\\nline\",\"n\":42,\"ratio\":2.5,\
             \"nan\":null,\"ok\":true,\"rows\":[1,2]}"
        );
    }

    #[test]
    fn json_parsing_inverts_rendering() {
        let v = JsonValue::obj([
            ("name", JsonValue::Str("a \"quoted\"\nline".into())),
            ("n", JsonValue::Int(42)),
            ("ratio", JsonValue::Num(2.5)),
            ("neg", JsonValue::Num(-3.25)),
            ("nan", JsonValue::Num(f64::NAN)),
            ("ok", JsonValue::Bool(true)),
            ("empty_obj", JsonValue::Obj(vec![])),
            (
                "rows",
                JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Bool(false)]),
            ),
        ]);
        let text = v.to_json();
        let parsed = JsonValue::parse(&text).unwrap();
        // render → parse → render is a fixpoint (NaN ↔ null included).
        assert_eq!(parsed.to_json(), text);
        assert_eq!(parsed.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(parsed.get("ratio").unwrap().as_f64(), Some(2.5));
        assert_eq!(parsed.get("neg").unwrap().as_f64(), Some(-3.25));
        assert_eq!(
            parsed.get("name").unwrap().as_str(),
            Some("a \"quoted\"\nline")
        );
        assert_eq!(parsed.get("rows").unwrap().as_arr().unwrap().len(), 2);
        assert!(parsed.get("nan").unwrap().as_f64().unwrap().is_nan());

        // Whitespace tolerated; structural garbage is not.
        assert!(JsonValue::parse(" { \"a\" : [ 1 , 2 ] } ").is_ok());
        assert!(JsonValue::parse("{\"a\":1,}").is_err());
        assert!(JsonValue::parse("{\"a\":1} tail").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("").is_err());
    }

    #[test]
    fn scale_flag_parses_both_spellings_and_rejects_unknown_values() {
        let args = |rest: &[&str]| -> Vec<String> {
            std::iter::once("fig")
                .chain(rest.iter().copied())
                .map(String::from)
                .collect()
        };
        assert_eq!(scale_from_args(&args(&[])), Ok(Scale::Test));
        assert_eq!(
            scale_from_args(&args(&["--scale", "small"])),
            Ok(Scale::Test)
        );
        assert_eq!(
            scale_from_args(&args(&["--scale", "paper"])),
            Ok(Scale::Paper)
        );
        assert_eq!(scale_from_args(&args(&["--scale=paper"])), Ok(Scale::Paper));
        // The two spellings the hand parser used to run at small scale, exit 0.
        for unknown in [&["--scale", "Paper"][..], &["--scale=full"][..]] {
            let err = scale_from_args(&args(unknown)).unwrap_err();
            assert!(err.contains("`small`") && err.contains("`paper`"), "{err}");
        }
    }

    #[test]
    fn timing_helpers_run_the_closure() {
        let (value, d) = time(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(d.as_nanos() > 0);
        let avg = time_avg(3, || {
            std::hint::black_box(1 + 1);
        });
        let _ = avg;
    }
}
