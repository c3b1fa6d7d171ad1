//! Shared plumbing for the harness binaries — `reproduce` (every figure
//! and table under `results/`), `bench_latency`, `bench_campaign` and
//! `bench_group_commit` — and the in-tree micro-benchmarks: command-line
//! flags, the JSON baseline format, the telemetry artifact and the host
//! header every `BENCH_*.json` carries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Whether `--smoke` on the command line asks for the reduced scale.
pub fn smoke_requested() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// A command-line number: decimal, or hexadecimal after `0x`.
pub fn parse_number(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// [`number_flag`] over `args`; `Err` is the usage line for a flag that
/// is last on the line or whose value [`parse_number`] refuses.
fn number_flag_in(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(pos + 1) {
        None => Err(format!("usage: {flag} N ({flag} needs a value)")),
        Some(v) => parse_number(v)
            .map(Some)
            .ok_or_else(|| format!("usage: {flag} N ({v:?} is not a number)")),
    }
}

/// The value of `flag` on the command line (`None` when absent). A
/// malformed value ends the process with the usage line and exit code
/// 2: ignoring it would run the default scale for `--ops abc`.
pub fn number_flag(flag: &str) -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    number_flag_in(&args, flag).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    })
}

/// A minimal wall-clock micro-benchmark: warm up, time `iters` calls of
/// `f`, and print ns/op. Used by the `benches/` targets so the workspace
/// needs no external benchmark framework (the repo must build offline).
pub fn time_case(name: &str, iters: u32, f: impl FnMut()) {
    time_case_per_op(name, iters, 1, f);
}

/// [`time_case`] for an `f` that performs `ops_per_call` operations per
/// call (a batch): the printed figure is per operation.
pub fn time_case_per_op(name: &str, iters: u32, ops_per_call: u32, mut f: impl FnMut()) {
    for _ in 0..iters / 10 {
        f();
    }
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    let ops = f64::from(iters.max(1)) * f64::from(ops_per_call.max(1));
    let ns = start.elapsed().as_nanos() as f64 / ops;
    println!("{name:<32} {ns:>12.1} ns/op");
}

/// Like [`time_case`] but rebuilds fresh state before every timed call via
/// `setup` (for one-shot operations such as crash recovery); setup time is
/// excluded from the reported figure.
pub fn time_case_batched<S>(
    name: &str,
    iters: u32,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S),
) {
    let mut total = std::time::Duration::ZERO;
    for _ in 0..iters {
        let state = setup();
        let start = std::time::Instant::now();
        f(state);
        total += start.elapsed();
    }
    let ns = total.as_nanos() as f64 / f64::from(iters.max(1));
    println!("{name:<32} {ns:>12.1} ns/op");
}

/// Minimal JSON document builder for the machine-readable baseline files
/// (`BENCH_latency.json` and the campaign reports). The workspace builds
/// offline, so no serde — this covers exactly the shapes the harnesses
/// emit.
pub mod json {
    /// A JSON value.
    ///
    /// Besides rendering, the module also parses the documents it emits
    /// (see [`parse`]) so harnesses can diff a fresh run against a
    /// committed baseline — the `bench_latency --check` gate.
    #[derive(Clone, Debug)]
    pub enum Json {
        /// `null`.
        Null,
        /// A boolean.
        Bool(bool),
        /// An integer (emitted without a decimal point).
        Int(u64),
        /// A float (emitted with enough digits to round-trip).
        Num(f64),
        /// A string (escaped on render).
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object with insertion-ordered keys.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// Convenience: an object from `(key, value)` pairs.
        pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
            Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        }

        /// Renders the value as pretty-printed JSON with a trailing newline.
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.write(&mut out, 0);
            out.push('\n');
            out
        }

        fn write(&self, out: &mut String, depth: usize) {
            let pad = "  ".repeat(depth + 1);
            let close = "  ".repeat(depth);
            match self {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Int(n) => out.push_str(&n.to_string()),
                Json::Num(x) => {
                    if x.is_finite() {
                        // `{:?}` prints the shortest representation that
                        // round-trips, and always includes a decimal point.
                        out.push_str(&format!("{x:?}"));
                    } else {
                        out.push_str("null");
                    }
                }
                Json::Str(s) => {
                    out.push('"');
                    for c in s.chars() {
                        match c {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            '\t' => out.push_str("\\t"),
                            c if (c as u32) < 0x20 => {
                                out.push_str(&format!("\\u{:04x}", c as u32));
                            }
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                }
                Json::Arr(items) => {
                    if items.is_empty() {
                        out.push_str("[]");
                        return;
                    }
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        out.push_str(&pad);
                        item.write(out, depth + 1);
                        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                    }
                    out.push_str(&close);
                    out.push(']');
                }
                Json::Obj(pairs) => {
                    if pairs.is_empty() {
                        out.push_str("{}");
                        return;
                    }
                    out.push_str("{\n");
                    for (i, (k, v)) in pairs.iter().enumerate() {
                        out.push_str(&pad);
                        Json::Str(k.clone()).write(out, depth + 1);
                        out.push_str(": ");
                        v.write(out, depth + 1);
                        out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                    }
                    out.push_str(&close);
                    out.push('}');
                }
            }
        }

        /// Object field lookup (`None` for non-objects / missing keys).
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The array items, if this is an array.
        pub fn as_arr(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(items) => Some(items),
                _ => None,
            }
        }

        /// The string value, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric value (`Int` or `Num`), if any.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Int(n) => Some(*n as f64),
                Json::Num(x) => Some(*x),
                _ => None,
            }
        }
    }

    /// Parses a JSON document (the subset [`Json`] renders: no scientific
    /// notation is produced by the writer, but the parser accepts it).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {pos}", c as char))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                *pos += 1;
                let mut pairs = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    skip_ws(b, pos);
                    let key = parse_string(b, pos)?;
                    skip_ws(b, pos);
                    expect(b, pos, b':')?;
                    let value = parse_value(b, pos)?;
                    pairs.push((key, value));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
            Some(b't') if b[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if b[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if b[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Json::Null)
            }
            Some(_) => parse_number(b, pos),
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut s = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {pos}")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar from the source text.
                    let rest = &b[*pos..];
                    let text = std::str::from_utf8(rest)
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    let c = text.chars().next().expect("non-empty");
                    s.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        let text = std::str::from_utf8(&b[start..*pos]).expect("ascii digits");
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

/// Telemetry plumbing shared by the harness binaries: every bin enables
/// the process-global registry, runs its experiment (controllers publish
/// into the registry by default), and drops a `TELEMETRY_<name>.jsonl`
/// artifact next to its JSON/console output.
pub mod telemetry {
    use anubis::telemetry::{Registry, Telemetry, TELEMETRY_ENV};
    use std::path::{Path, PathBuf};

    /// Enables the process-global registry for this harness run and
    /// returns the handle controllers default to. `ANUBIS_TELEMETRY=0`
    /// opts out explicitly (e.g. to time an uninstrumented run); any
    /// other value — including unset — records, because emitting the
    /// telemetry artifact is part of every bin's contract.
    pub fn start() -> Telemetry {
        let opted_out = std::env::var(TELEMETRY_ENV)
            .map(|v| v == "0")
            .unwrap_or(false);
        if opted_out {
            return Telemetry::off();
        }
        Registry::global().set_enabled(true);
        Telemetry::global()
    }

    /// `TELEMETRY_<name>.jsonl` in the same directory as `out` (the bin's
    /// `BENCH_*.json` path), so artifacts travel together.
    pub fn sibling_path(out: &Path, name: &str) -> PathBuf {
        let dir = out.parent().unwrap_or_else(|| Path::new("."));
        dir.join(format!("TELEMETRY_{name}.jsonl"))
    }

    /// Takes a final snapshot and writes it plus every completed span as
    /// JSON lines at `path`. Returns `true` when the artifact was written,
    /// `false` when telemetry is off/disabled (nothing to write — the
    /// zero-cost path leaves no file rather than an empty one).
    pub fn write_jsonl(t: &Telemetry, path: &Path) -> std::io::Result<bool> {
        let Some(reg) = t.registry() else {
            return Ok(false);
        };
        let mut out = reg.snapshot().to_jsonl();
        out.push_str(&reg.spans_jsonl());
        std::fs::write(path, out)?;
        Ok(true)
    }

    /// [`write_jsonl`] with the standard naming + a note on stderr, so a
    /// bin's stdout stays its report (`reproduce fig05 > fig05.txt` is
    /// the results file); harness bins call this once, right before
    /// exiting.
    pub fn finish(t: &Telemetry, out: &Path, name: &str) {
        let path = sibling_path(out, name);
        match write_jsonl(t, &path) {
            Ok(true) => eprintln!("telemetry: wrote {}", path.display()),
            Ok(false) => {}
            Err(e) => eprintln!("telemetry: could not write {}: {e}", path.display()),
        }
    }
}

/// The host's available parallelism, recorded in the baseline JSON so a
/// reader knows how many threads could really run at once.
fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Trimmed stdout of `program args…`; `None` when it cannot be run,
/// exits nonzero, or prints nothing.
fn command_stdout(program: &str, args: &[&str]) -> Option<String> {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The toolchain version that built/ran the benchmark (`rustc --version`
/// of the toolchain on `PATH`; `"unknown"` if it cannot be queried).
pub fn rustc_version() -> String {
    command_stdout("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

/// The CPU model name from `/proc/cpuinfo` (`"unknown"` off Linux or when
/// the field is absent).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The source revision that produced a report: `git rev-parse --short
/// HEAD` of the checkout the bin runs in, with `-dirty` appended when
/// tracked files differ from it (`"unknown"` outside a checkout or
/// without `git` on `PATH`).
pub fn revision() -> String {
    let Some(head) = command_stdout("git", &["rev-parse", "--short", "HEAD"]) else {
        return "unknown".into();
    };
    match command_stdout("git", &["status", "--porcelain", "--untracked-files=no"]) {
        Some(_changed) => format!("{head}-dirty"),
        None => head,
    }
}

/// The standard `"host"` header object every `BENCH_*.json` carries:
/// toolchain, CPU model, available core count and source revision, so a
/// committed baseline states the machine and the code its numbers came
/// from.
pub fn host_info_json() -> json::Json {
    json::Json::obj(vec![
        ("rustc", json::Json::Str(rustc_version())),
        ("cpu_model", json::Json::Str(cpu_model())),
        ("cores", json::Json::Int(host_parallelism() as u64)),
        ("revision", json::Json::Str(revision())),
    ])
}

/// Parses `--out PATH` from the CLI, defaulting to `default` in the
/// current directory.
pub fn out_path_from_args(default: &str) -> std::path::PathBuf {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--out")
        .and_then(|pos| args.get(pos + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from(default))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_malformed_number_flag_is_a_usage_error_not_the_default() {
        let args = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        assert_eq!(number_flag_in(&args(&["bin"]), "--ops"), Ok(None));
        assert_eq!(
            number_flag_in(&args(&["bin", "--ops", "500"]), "--ops"),
            Ok(Some(500))
        );
        assert_eq!(
            number_flag_in(&args(&["bin", "--seed", "0x773"]), "--seed"),
            Ok(Some(1907))
        );
        for bad in [&["bin", "--ops", "abc"][..], &["bin", "--ops"][..]] {
            let usage = number_flag_in(&args(bad), "--ops").expect_err("must be refused");
            assert!(usage.starts_with("usage: --ops N"), "{usage}");
        }
    }

    #[test]
    fn json_parse_roundtrips_rendered_documents() {
        use json::Json;
        let doc = Json::obj(vec![
            ("name", Json::Str("hotpath \"x\"\n".into())),
            ("count", Json::Int(42)),
            ("ns", Json::Num(17.25)),
            ("neg", Json::Num(-0.5)),
            ("on", Json::Bool(true)),
            ("off", Json::Bool(false)),
            ("nothing", Json::Null),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj(vec![])),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj(vec![("a", Json::Int(1))]),
                    Json::obj(vec![("a", Json::Num(2.5))]),
                ]),
            ),
        ]);
        let parsed = json::parse(&doc.render()).expect("parse own output");
        assert_eq!(
            parsed.get("name").and_then(Json::as_str),
            Some("hotpath \"x\"\n")
        );
        assert_eq!(parsed.get("count").and_then(Json::as_f64), Some(42.0));
        assert_eq!(parsed.get("ns").and_then(Json::as_f64), Some(17.25));
        assert_eq!(parsed.get("neg").and_then(Json::as_f64), Some(-0.5));
        let rows = parsed.get("rows").and_then(Json::as_arr).expect("rows");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("a").and_then(Json::as_f64), Some(2.5));
        // Render → parse → render is a fixed point.
        assert_eq!(parsed.render(), doc.render());
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(json::parse("{\"a\": }").is_err());
        assert!(json::parse("[1, 2").is_err());
        assert!(json::parse("{} trailing").is_err());
        assert!(json::parse("\"unterminated").is_err());
    }

    #[test]
    fn host_info_has_all_fields() {
        let info = host_info_json();
        assert!(info.get("rustc").and_then(json::Json::as_str).is_some());
        assert!(info.get("cpu_model").and_then(json::Json::as_str).is_some());
        assert!(info.get("cores").and_then(json::Json::as_f64).unwrap() >= 1.0);
        let revision = info.get("revision").and_then(json::Json::as_str).unwrap();
        assert!(!revision.is_empty());
    }

    #[test]
    fn json_renders_stable_shapes() {
        use json::Json;
        let doc = Json::obj(vec![
            ("name", Json::Str("osiris \"sweep\"".into())),
            ("lanes", Json::Int(4)),
            ("speedup", Json::Num(1.5)),
            ("identical", Json::Bool(true)),
            ("empty", Json::Arr(vec![])),
            ("list", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        let text = doc.render();
        assert!(text.contains("\"name\": \"osiris \\\"sweep\\\"\""));
        assert!(text.contains("\"speedup\": 1.5"));
        assert!(text.contains("\"empty\": []"));
        assert!(text.ends_with("}\n"));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }
}
