//! Shared plumbing for the harness binaries — `reproduce` (every figure
//! and table under `results/`), `bench_campaign` and `bench_group_commit`
//! — and the in-tree micro-benchmarks: command-line numbers, the JSON
//! report format, the telemetry artifact and the host header every
//! `BENCH_*.json` carries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A command-line number: decimal, or hexadecimal after `0x`.
pub fn parse_number(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// A minimal wall-clock micro-benchmark: warm up, time `iters` calls of
/// `f`, and print ns/op. Used by the `benches/` targets so the workspace
/// needs no external benchmark framework (the repo must build offline).
pub fn time_case(name: &str, iters: u32, mut f: impl FnMut()) {
    for _ in 0..iters / 10 {
        f();
    }
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    let ns = start.elapsed().as_nanos() as f64 / f64::from(iters.max(1));
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

/// Minimal JSON document builder for the campaign reports. The
/// workspace builds offline, so no serde — this covers exactly the
/// shapes the harnesses emit, and only renders them.
pub mod json {
    /// A JSON value.
    #[derive(Clone, Debug)]
    pub enum Json {
        /// A boolean.
        Bool(bool),
        /// An integer (emitted without a decimal point).
        Int(u64),
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
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Int(n) => out.push_str(&n.to_string()),
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
    }
}

/// Telemetry plumbing for `reproduce`: it enables the process-global
/// registry, runs its experiments (controllers publish into the registry
/// by default), and drops a `TELEMETRY_<name>.jsonl` artifact in its
/// working directory.
pub mod telemetry {
    use anubis::telemetry::{Registry, Telemetry, TELEMETRY_ENV};
    use std::path::{Path, PathBuf};

    /// Enables the process-global registry for this harness run and
    /// returns the handle controllers default to. `ANUBIS_TELEMETRY=0`
    /// opts out explicitly (e.g. to time an uninstrumented run); any
    /// other value — including unset — records, because emitting the
    /// telemetry artifact is part of the bin's contract.
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

    /// [`write_jsonl`] to `TELEMETRY_<name>.jsonl` in the working
    /// directory, with a note on stderr, so a bin's stdout stays its
    /// report (`reproduce fig05 > fig05.txt` is the results file); called
    /// once, right before exiting.
    pub fn finish(t: &Telemetry, name: &str) {
        let path = PathBuf::from(format!("TELEMETRY_{name}.jsonl"));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_info_has_all_fields() {
        let json::Json::Obj(fields) = host_info_json() else {
            panic!("the host header is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["rustc", "cpu_model", "cores", "revision"]);
        for (key, value) in &fields {
            match value {
                json::Json::Str(s) => assert!(!s.is_empty(), "{key}"),
                json::Json::Int(cores) => assert!(*cores >= 1, "{key}"),
                other => panic!("{key}: {other:?}"),
            }
        }
    }

    #[test]
    fn json_renders_stable_shapes() {
        use json::Json;
        let doc = Json::obj(vec![
            ("name", Json::Str("osiris \"sweep\"".into())),
            ("lanes", Json::Int(4)),
            ("identical", Json::Bool(true)),
            ("empty", Json::Arr(vec![])),
            ("list", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        let text = doc.render();
        assert!(text.contains("\"name\": \"osiris \\\"sweep\\\"\""));
        assert!(text.contains("\"empty\": []"));
        assert!(text.ends_with("}\n"));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }
}
