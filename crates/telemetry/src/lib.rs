//! Dependency-free structured tracing and metrics for the Anubis
//! reproduction.
//!
//! The paper's headline claims are quantitative (recovery time, runtime
//! overhead), so the reproduction needs more than end-of-run aggregates:
//! this crate provides a [`Registry`] of counters, gauges and histograms
//! that can be snapshotted *mid-run* at epoch boundaries, plus phase
//! [`SpanGuard`]s with monotonic timestamps for the recovery engine.
//!
//! # Cost model
//!
//! Everything is reached through a cheap, cloneable [`Telemetry`] handle.
//! A disabled handle ([`Telemetry::off`], the default for controllers)
//! costs one branch on an `Option`; the process-wide [`Telemetry::global`]
//! handle additionally costs one relaxed atomic load while the global
//! registry stays disabled. Building with `--no-default-features`
//! (dropping the `enabled` feature) turns every recording call into a
//! compile-time `None` that the optimizer folds away entirely — the
//! zero-cost guarantee documented in DESIGN.md §8.
//!
//! # Determinism
//!
//! Counter, gauge and histogram values written by deterministic code are
//! themselves deterministic (threads merge through commutative updates
//! into ordered maps). Span *durations* and snapshot timestamps come from the
//! host monotonic clock and are explicitly excluded from determinism
//! contracts; span *counts per phase name* are deterministic.
//!
//! # Export formats
//!
//! * [`Snapshot::to_jsonl`] — one JSON object per line
//!   (`{"type":"snapshot",...}`), the `TELEMETRY_*.jsonl` format emitted
//!   by the bench binaries.
//! * [`Registry::spans_jsonl`] — one `{"type":"span",...}` line per
//!   completed span.
//! * [`Registry::prometheus`] — Prometheus text exposition of the current
//!   counter/gauge/histogram state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Environment variable that enables the global registry at first use.
pub const TELEMETRY_ENV: &str = "ANUBIS_TELEMETRY";

/// Number of power-of-two histogram buckets (covers `0..2^31` ns).
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-bucket power-of-two histogram.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    /// `buckets[i]` counts observations with `value < 2^i` (first
    /// matching bucket; the last bucket is a catch-all).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
}

impl Histogram {
    fn observe(&mut self, value: f64) {
        let v = value.max(0.0);
        let idx = (64 - (v as u64).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Nearest-rank percentile at bucket resolution: the upper bound of
    /// the power-of-two bucket holding the rank-`⌈p·count⌉` observation
    /// (see [`percentile_of_sorted`] for the rank convention). Bucket
    /// `i` reports `2^i − 1`; the catch-all last bucket reports the
    /// largest observation seen. Returns 0 when empty.
    ///
    /// This is deliberately coarse (factor-of-two resolution) — exact
    /// tails come from [`percentile_of_sorted`] over the raw latency
    /// stream; the histogram variant exists so snapshots exported long
    /// after the stream is gone still carry tail shape.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return if i == 0 {
                    0
                } else if i == HISTOGRAM_BUCKETS - 1 {
                    self.max.max(0.0) as u64
                } else {
                    (1u64 << i) - 1
                };
            }
        }
        self.max.max(0.0) as u64
    }
}

/// Nearest-rank percentile of an already **sorted ascending** slice.
///
/// The convention, used everywhere in this repo (the serve campaign's
/// time-to-healthy, the serving bench, the discrete-event latency
/// engine): the `p`-th
/// percentile is the value at 1-based rank `⌈p · n⌉`, clamped to
/// `[1, n]` — i.e. the smallest element such that at least `p · n`
/// observations are ≤ it. This always returns an observed value (no
/// interpolation), `p = 0` returns the minimum, `p = 1` the maximum,
/// and an empty slice returns 0.
pub fn percentile_of_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = (p.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// One completed span: a named phase with monotonic timestamps.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Phase name (e.g. `"recovery.osiris_probe"`).
    pub name: &'static str,
    /// Free-form label, typically the scheme name.
    pub label: String,
    /// Start offset from the registry's creation, in nanoseconds
    /// (monotonic, **not** deterministic).
    pub start_ns: u64,
    /// Duration in nanoseconds (monotonic, **not** deterministic).
    pub dur_ns: u64,
    /// Work items the span covered (0 when not set).
    pub items: u64,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, BTreeMap<String, u64>>,
    gauges: BTreeMap<String, BTreeMap<String, f64>>,
    histograms: BTreeMap<String, BTreeMap<String, Histogram>>,
    spans: Vec<SpanRecord>,
    snapshots: u64,
}

/// A metrics + tracing registry. Thread-safe; usually reached through a
/// [`Telemetry`] handle.
pub struct Registry {
    enabled: AtomicBool,
    anchor: Instant,
    inner: Mutex<Inner>,
}

impl core::fmt::Debug for Registry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .finish_non_exhaustive()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A fresh, **enabled** registry (creating one implies intent to
    /// record — tests and the bench harness use private registries).
    pub fn new() -> Self {
        Registry {
            enabled: AtomicBool::new(true),
            anchor: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Whether recording calls currently do anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A poisoned registry mutex means a panic mid-record; telemetry
        // must never amplify that into an abort of the recovery path.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Adds `n` to the counter `name{label}` (event counting).
    pub fn incr(&self, name: &'static str, label: &str, n: u64) {
        if !self.is_enabled() {
            return;
        }
        *self
            .lock()
            .counters
            .entry(name.to_string())
            .or_default()
            .entry(label.to_string())
            .or_insert(0) += n;
    }

    /// Publishes an externally-accumulated monotone total: the stored
    /// value only moves up (idempotent re-publication at epoch
    /// boundaries).
    pub fn counter_set(&self, name: &'static str, label: &str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.lock();
        let slot = inner
            .counters
            .entry(name.to_string())
            .or_default()
            .entry(label.to_string())
            .or_insert(0);
        *slot = (*slot).max(value);
    }

    /// Sets the gauge `name{label}`.
    pub fn gauge_set(&self, name: &'static str, label: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        self.lock()
            .gauges
            .entry(name.to_string())
            .or_default()
            .insert(label.to_string(), value);
    }

    /// Records one observation into the histogram `name{label}`.
    pub fn observe(&self, name: &'static str, label: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_default()
            .entry(label.to_string())
            .or_default()
            .observe(value);
    }

    /// Opens a span; it records itself when dropped. Disabled registries
    /// return an inert guard.
    pub fn span(&self, name: &'static str, label: &str) -> SpanGuard<'_> {
        SpanGuard {
            reg: self.is_enabled().then_some(self),
            name,
            label: label.to_string(),
            items: 0,
            start: Instant::now(),
        }
    }

    /// Number of completed spans named `name`.
    pub fn span_count(&self, name: &str) -> u64 {
        self.lock().spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Takes a point-in-time snapshot of every counter, gauge and
    /// histogram, tagging it with a monotonically increasing sequence
    /// number.
    pub fn snapshot(&self) -> Snapshot {
        let mut inner = self.lock();
        inner.snapshots += 1;
        Snapshot {
            seq: inner.snapshots,
            at_ns: self.anchor.elapsed().as_nanos() as u64,
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
            spans_completed: inner.spans.len() as u64,
        }
    }

    /// Completed spans, sorted by `(name, label)` (equal keys stay in
    /// completion order) so the export order is stable.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = self.lock().spans.clone();
        spans.sort_by(|a, b| (a.name, &a.label).cmp(&(b.name, &b.label)));
        spans
    }

    /// Renders every completed span as one `{"type":"span",...}` JSON
    /// line.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            out.push_str(&format!(
                "{{\"type\":\"span\",\"name\":\"{}\",\"label\":\"{}\",\
                 \"start_ns\":{},\"dur_ns\":{},\"items\":{}}}\n",
                escape(s.name),
                escape(&s.label),
                s.start_ns,
                s.dur_ns,
                s.items,
            ));
        }
        out
    }

    /// Renders the current state in the Prometheus text exposition
    /// format (counters, gauges, and histogram `_count`/`_sum`/`le`
    /// buckets under an `anubis_` prefix).
    pub fn prometheus(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for (name, by_label) in &inner.counters {
            out.push_str(&format!("# TYPE anubis_{name} counter\n"));
            for (label, v) in by_label {
                out.push_str(&format!("anubis_{name}{{scheme=\"{label}\"}} {v}\n"));
            }
        }
        for (name, by_label) in &inner.gauges {
            out.push_str(&format!("# TYPE anubis_{name} gauge\n"));
            for (label, v) in by_label {
                out.push_str(&format!("anubis_{name}{{scheme=\"{label}\"}} {v}\n"));
            }
        }
        for (name, by_label) in &inner.histograms {
            out.push_str(&format!("# TYPE anubis_{name} histogram\n"));
            for (label, h) in by_label {
                let mut cum = 0u64;
                for (i, b) in h.buckets.iter().enumerate() {
                    cum += b;
                    if *b > 0 || i == HISTOGRAM_BUCKETS - 1 {
                        let le = if i == HISTOGRAM_BUCKETS - 1 {
                            "+Inf".to_string()
                        } else {
                            (1u64 << i).to_string()
                        };
                        out.push_str(&format!(
                            "anubis_{name}_bucket{{scheme=\"{label}\",le=\"{le}\"}} {cum}\n"
                        ));
                    }
                }
                out.push_str(&format!(
                    "anubis_{name}_sum{{scheme=\"{label}\"}} {}\n",
                    h.sum
                ));
                out.push_str(&format!(
                    "anubis_{name}_count{{scheme=\"{label}\"}} {}\n",
                    h.count
                ));
            }
        }
        out
    }

    /// The process-wide registry. Starts **disabled** unless
    /// [`TELEMETRY_ENV`]`=1`; controllers default to publishing here, so
    /// enabling it lights up telemetry without any plumbing.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let reg = Registry::new();
            let on = std::env::var(TELEMETRY_ENV)
                .map(|v| v == "1")
                .unwrap_or(false);
            reg.set_enabled(on);
            reg
        })
    }
}

/// An open phase span; records itself into the registry on drop.
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard<'a> {
    reg: Option<&'a Registry>,
    name: &'static str,
    label: String,
    items: u64,
    start: Instant,
}

impl SpanGuard<'_> {
    /// Records how many work items the span covered.
    pub fn items(mut self, n: u64) -> Self {
        self.items = n;
        self
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(reg) = self.reg else { return };
        let record = SpanRecord {
            name: self.name,
            label: std::mem::take(&mut self.label),
            start_ns: (self.start - reg.anchor).as_nanos() as u64,
            dur_ns: self.start.elapsed().as_nanos() as u64,
            items: self.items,
        };
        reg.lock().spans.push(record);
    }
}

/// A point-in-time copy of the registry's metric state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// 1-based snapshot sequence number within the registry.
    pub seq: u64,
    /// Monotonic offset from registry creation (ns; **not**
    /// deterministic).
    pub at_ns: u64,
    /// Counter values: `name → label → value`.
    pub counters: BTreeMap<String, BTreeMap<String, u64>>,
    /// Gauge values: `name → label → value`.
    pub gauges: BTreeMap<String, BTreeMap<String, f64>>,
    /// Histogram state: `name → label → histogram`.
    pub histograms: BTreeMap<String, BTreeMap<String, Histogram>>,
    /// Number of spans completed at snapshot time.
    pub spans_completed: u64,
}

impl Snapshot {
    /// Reads one counter (0 when absent).
    pub fn counter(&self, name: &str, label: &str) -> u64 {
        self.counters
            .get(name)
            .and_then(|m| m.get(label))
            .copied()
            .unwrap_or(0)
    }

    /// Reads one gauge (`None` when absent).
    pub fn gauge(&self, name: &str, label: &str) -> Option<f64> {
        self.gauges.get(name).and_then(|m| m.get(label)).copied()
    }

    /// Renders the snapshot as one `{"type":"snapshot",...}` JSON line.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"type\":\"snapshot\",\"seq\":{},\"at_ns\":{},\"spans_completed\":{}",
            self.seq, self.at_ns, self.spans_completed
        );
        out.push_str(",\"counters\":{");
        push_nested(&mut out, &self.counters, |out, v| {
            out.push_str(&v.to_string())
        });
        out.push_str("},\"gauges\":{");
        push_nested(&mut out, &self.gauges, |out, v| push_f64(out, *v));
        out.push_str("},\"histograms\":{");
        push_nested(&mut out, &self.histograms, |out, h| {
            out.push_str(&format!("{{\"count\":{},\"sum\":", h.count));
            push_f64(out, h.sum);
            out.push_str(",\"min\":");
            push_f64(out, h.min);
            out.push_str(",\"max\":");
            push_f64(out, h.max);
            out.push_str(",\"mean\":");
            push_f64(out, h.mean());
            out.push_str(&format!(
                ",\"p50\":{},\"p95\":{},\"p99\":{}",
                h.percentile(0.50),
                h.percentile(0.95),
                h.percentile(0.99)
            ));
            out.push('}');
        });
        out.push_str("}}\n");
        out
    }
}

fn push_nested<V>(
    out: &mut String,
    map: &BTreeMap<String, BTreeMap<String, V>>,
    mut render: impl FnMut(&mut String, &V),
) {
    let mut first_name = true;
    for (name, by_label) in map {
        if !first_name {
            out.push(',');
        }
        first_name = false;
        out.push_str(&format!("\"{}\":{{", escape(name)));
        let mut first_label = true;
        for (label, v) in by_label {
            if !first_label {
                out.push(',');
            }
            first_label = false;
            out.push_str(&format!("\"{}\":", escape(label)));
            render(out, v);
        }
        out.push('}');
    }
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// A cheap, cloneable handle to a registry — the only telemetry type
/// threaded through the controllers and the simulator.
///
/// The handle is the compile-out point: without the `enabled` cargo
/// feature, [`Telemetry::registry`] is a compile-time `None` and every
/// recording call behind it folds away.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    sink: Sink,
}

#[derive(Clone, Debug, Default)]
enum Sink {
    /// No registry at all — recording is a single `Option` branch.
    #[default]
    Off,
    /// The process-wide [`Registry::global`] (disabled unless opted in).
    Global,
    /// A privately owned registry (tests, bench harness).
    Own(Arc<Registry>),
}

impl Telemetry {
    /// A handle that records nothing.
    pub fn off() -> Self {
        Telemetry { sink: Sink::Off }
    }

    /// A handle to the process-wide registry (see [`Registry::global`]).
    pub fn global() -> Self {
        Telemetry { sink: Sink::Global }
    }

    /// A handle to a private registry.
    pub fn with(reg: Arc<Registry>) -> Self {
        Telemetry {
            sink: Sink::Own(reg),
        }
    }

    /// A fresh private registry plus a handle to it.
    pub fn private() -> (Arc<Registry>, Self) {
        let reg = Arc::new(Registry::new());
        (reg.clone(), Telemetry::with(reg))
    }

    /// The registry behind the handle, if any — `None` when the handle is
    /// off, the registry is disabled, or the `enabled` feature is
    /// compiled out.
    #[inline]
    pub fn registry(&self) -> Option<&Registry> {
        if cfg!(not(feature = "enabled")) {
            return None;
        }
        let reg = match &self.sink {
            Sink::Off => return None,
            Sink::Global => Registry::global(),
            Sink::Own(reg) => reg.as_ref(),
        };
        reg.is_enabled().then_some(reg)
    }

    /// Whether recording calls currently reach a live registry.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.registry().is_some()
    }

    /// See [`Registry::incr`].
    #[inline]
    pub fn incr(&self, name: &'static str, label: &str, n: u64) {
        if let Some(reg) = self.registry() {
            reg.incr(name, label, n);
        }
    }

    /// See [`Registry::counter_set`].
    #[inline]
    pub fn counter_set(&self, name: &'static str, label: &str, value: u64) {
        if let Some(reg) = self.registry() {
            reg.counter_set(name, label, value);
        }
    }

    /// See [`Registry::gauge_set`].
    #[inline]
    pub fn gauge_set(&self, name: &'static str, label: &str, value: f64) {
        if let Some(reg) = self.registry() {
            reg.gauge_set(name, label, value);
        }
    }

    /// See [`Registry::observe`].
    #[inline]
    pub fn observe(&self, name: &'static str, label: &str, value: f64) {
        if let Some(reg) = self.registry() {
            reg.observe(name, label, value);
        }
    }

    /// Opens a span (inert when the handle is off/disabled).
    #[inline]
    pub fn span(&self, name: &'static str, label: &str) -> SpanGuard<'_> {
        match self.registry() {
            Some(reg) => reg.span(name, label),
            None => SpanGuard {
                reg: None,
                name,
                label: String::new(),
                items: 0,
                start: Instant::now(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = Registry::new();
        reg.incr("events", "osiris", 2);
        reg.incr("events", "osiris", 3);
        reg.counter_set("total", "asit", 10);
        reg.counter_set("total", "asit", 7); // monotone: must not regress
        reg.gauge_set("occupancy", "asit", 1.5);
        let s = reg.snapshot();
        assert_eq!(s.counter("events", "osiris"), 5);
        assert_eq!(s.counter("total", "asit"), 10);
        assert_eq!(s.gauge("occupancy", "asit"), Some(1.5));
        assert_eq!(s.counter("missing", "x"), 0);
        assert_eq!(s.seq, 1);
        assert_eq!(reg.snapshot().seq, 2);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::new();
        reg.set_enabled(false);
        reg.incr("events", "x", 1);
        reg.gauge_set("g", "x", 1.0);
        reg.observe("h", "x", 1.0);
        drop(reg.span("phase", "x"));
        reg.set_enabled(true);
        let s = reg.snapshot();
        assert!(s.counters.is_empty());
        assert!(s.gauges.is_empty());
        assert!(s.histograms.is_empty());
        assert_eq!(s.spans_completed, 0);
    }

    #[test]
    fn off_handle_is_inert() {
        let t = Telemetry::off();
        assert!(!t.enabled());
        t.incr("events", "x", 1);
        drop(t.span("phase", "x"));
        assert!(t.registry().is_none());
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [0.0, 1.0, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 104.0);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 100.0);
        assert_eq!(h.mean(), 26.0);
        assert_eq!(h.buckets.iter().sum::<u64>(), 4);
        // 0 → bucket 0, 1 → bucket 1, 3 → bucket 2, 100 → bucket 7.
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[7], 1);
    }

    #[test]
    fn percentile_of_sorted_uses_nearest_rank() {
        assert_eq!(percentile_of_sorted(&[], 0.5), 0);
        assert_eq!(percentile_of_sorted(&[7], 0.5), 7);
        let v: Vec<u64> = (1..=100).collect();
        // Nearest rank ⌈p·n⌉: p50 of 1..=100 is the 50th value.
        assert_eq!(percentile_of_sorted(&v, 0.50), 50);
        assert_eq!(percentile_of_sorted(&v, 0.95), 95);
        assert_eq!(percentile_of_sorted(&v, 0.99), 99);
        assert_eq!(percentile_of_sorted(&v, 0.0), 1);
        assert_eq!(percentile_of_sorted(&v, 1.0), 100);
        // ⌈0.5·4⌉ = 2nd of four — the lower median, never interpolated.
        assert_eq!(percentile_of_sorted(&[10, 20, 30, 40], 0.5), 20);
    }

    #[test]
    fn histogram_percentiles_report_bucket_upper_bounds() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile(0.99), 0);
        for _ in 0..99 {
            h.observe(100.0); // bucket 7 (64..128): upper bound 127
        }
        h.observe(5_000.0); // bucket 13 (4096..8192): upper bound 8191
        assert_eq!(h.percentile(0.50), 127);
        assert_eq!(h.percentile(0.95), 127);
        assert_eq!(h.percentile(1.0), 8191);
        // The catch-all bucket reports the true maximum.
        let mut top = Histogram::default();
        top.observe(1e12);
        assert_eq!(top.percentile(0.5), 1_000_000_000_000);
    }

    #[test]
    fn spans_record_items_and_sort_by_name_then_label() {
        let reg = Registry::new();
        drop(reg.span("recovery.probe", "osiris").items(64));
        drop(reg.span("recovery.probe", "agit-plus").items(8));
        let spans = reg.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].label.as_str(), spans[0].items), ("agit-plus", 8));
        assert_eq!((spans[1].label.as_str(), spans[1].items), ("osiris", 64));
        assert_eq!(reg.span_count("recovery.probe"), 2);
        assert_eq!(reg.span_count("missing"), 0);
    }

    #[test]
    fn concurrent_updates_merge_deterministically() {
        let reg = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reg = &reg;
                scope.spawn(move || {
                    for _ in 0..100 {
                        reg.incr("items", "osiris", 1);
                    }
                    drop(reg.span("worker", "osiris"));
                });
            }
        });
        let s = reg.snapshot();
        assert_eq!(s.counter("items", "osiris"), 400);
        assert_eq!(reg.span_count("worker"), 4);
    }

    #[test]
    fn jsonl_lines_are_balanced_and_tagged() {
        let reg = Registry::new();
        reg.incr("ecc_corrections_total", "agit-plus", 3);
        reg.gauge_set("wpq_occupancy", "agit-plus", 7.0);
        reg.observe("op_latency_ns", "agit-plus", 123.0);
        drop(reg.span("recovery", "agit-plus").items(5));
        let line = reg.snapshot().to_jsonl();
        assert!(line.starts_with("{\"type\":\"snapshot\""));
        assert!(line.ends_with("}\n"));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        assert!(line.contains("\"ecc_corrections_total\":{\"agit-plus\":3}"));
        assert!(line.contains("\"wpq_occupancy\""));
        assert!(line.contains("\"op_latency_ns\""));
        let spans = reg.spans_jsonl();
        assert!(spans.starts_with("{\"type\":\"span\",\"name\":\"recovery\""));
        assert_eq!(spans.lines().count(), 1);
    }

    #[test]
    fn prometheus_export_has_all_families() {
        let reg = Registry::new();
        reg.incr("events_total", "osiris", 2);
        reg.gauge_set("occupancy", "osiris", 0.5);
        reg.observe("latency_ns", "osiris", 3.0);
        let text = reg.prometheus();
        assert!(text.contains("# TYPE anubis_events_total counter"));
        assert!(text.contains("anubis_events_total{scheme=\"osiris\"} 2"));
        assert!(text.contains("# TYPE anubis_occupancy gauge"));
        assert!(text.contains("# TYPE anubis_latency_ns histogram"));
        assert!(text.contains("le=\"+Inf\"} 1"));
        assert!(text.contains("anubis_latency_ns_count{scheme=\"osiris\"} 1"));
    }

    #[test]
    fn private_handles_are_isolated() {
        let (reg_a, tele_a) = Telemetry::private();
        let (reg_b, tele_b) = Telemetry::private();
        tele_a.incr("events", "x", 1);
        tele_b.incr("events", "x", 10);
        assert_eq!(reg_a.snapshot().counter("events", "x"), 1);
        assert_eq!(reg_b.snapshot().counter("events", "x"), 10);
    }
}
