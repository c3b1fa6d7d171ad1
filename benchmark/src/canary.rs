//! Host-noise canary: four fixed kernels that call nothing in the
//! repository, so no change to the measured code can make them faster
//! or slower. Workloads run them between slices of their own work; when
//! a canary moves, the host moved, not the code.
//!
//! This host is a two-core shared VM whose speed shifts by tens of
//! percent for minutes at a time, and not uniformly: syscalls and
//! wake-ups, memory latency, `fsync` and plain arithmetic each drift on
//! their own. One kernel per resource:
//!
//! | kernel | what it does | resembles |
//! |---|---|---|
//! | `cpu` | integer hash and scatter over 32 KiB | crypto, hashing |
//! | `mem` | the same over 32 MiB | controller metadata in a sparse map |
//! | `wire` | framed echo over loopback TCP (3 writes + 3 reads each way) | a served request |
//! | `sync` | four 512-byte appends, each with `sync_data` | a WAL barrier |

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::rundir::RunDir;
use crate::stats;

/// Reference medians on the host the bounds were recorded on (see
/// `benchmark/README.md`): ns per pass of each kernel. A run whose
/// `cpu`-and-`mem` index (geometric mean of median ÷ reference) is
/// further than [`DISTURBED_SHARE`] from 1 is printed as `disturbed` and
/// left out of `compare`. (The `cpu` kernel alone reads 10–15 % lower in
/// the workloads that leave its 32 KiB in cache between samples; `wire`
/// and `sync` are too noisy to gate on.)
pub const REFERENCE_NS: [f64; 4] = [114_000.0, 410_000.0, 213_000.0, 680_000.0];
pub const DISTURBED_SHARE: f64 = 0.15;

pub const KERNELS: [&str; 4] = ["cpu", "mem", "wire", "sync"];
pub const CPU: usize = 0;
pub const MEM: usize = 1;
pub const WIRE: usize = 2;
pub const SYNC: usize = 3;
/// The kernel set for work bound by a bit of everything (set-up).
pub const ALL: [usize; 4] = [CPU, MEM, WIRE, SYNC];

/// Readings this many slices either side (about a second in all) are
/// pooled into a slice's index: a single pass of a kernel is too noisy
/// to stand alone, and the host's speed shifts over seconds to minutes.
const WINDOW: usize = 4;

/// The canary's readings along a run, one entry per slice of the
/// measured phase, and the host-speed index they give.
///
/// Host time on this machine is scaled before it is reported: a sample
/// taken in slice `i` is divided by `index(i, kernels)`, the geometric
/// mean over the kernels that resemble what bounds the sample of
/// (reading ÷ reference). On the reference host in its reference state
/// the index is 1 and nothing changes; when the whole VM runs 1.4× slow
/// for a few minutes — which it does — canary and workload slow down
/// together and the reported number stays put. Raw numbers are printed
/// beside the scaled ones.
#[derive(Default)]
pub struct Timeline {
    slices: Vec<[f64; 4]>,
}

impl Timeline {
    pub fn push(&mut self, reading: [f64; 4]) {
        self.slices.push(reading);
    }

    pub fn index(&self, slice: usize, kernels: &[usize]) -> f64 {
        assert!(
            slice < self.slices.len(),
            "no canary reading for slice {slice}"
        );
        let lo = slice.saturating_sub(WINDOW);
        let hi = (slice + WINDOW + 1).min(self.slices.len());
        let log_sum: f64 = kernels
            .iter()
            .map(|k| {
                let mut window: Vec<f64> = self.slices[lo..hi].iter().map(|r| r[*k]).collect();
                (stats::median(&mut window) / REFERENCE_NS[*k]).ln()
            })
            .sum();
        (log_sum / kernels.len() as f64).exp()
    }
}

/// Timed samples of one lane, in time order, with where each slice
/// begins.
#[derive(Default)]
pub struct Samples {
    pub values: Vec<f64>,
    slice_starts: Vec<usize>,
}

impl Samples {
    /// Marks the start of the next slice.
    pub fn begin_slice(&mut self) {
        self.slice_starts.push(self.values.len());
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Every sample divided by its slice's index.
    pub fn scaled(&self, timeline: &Timeline, kernels: &[usize]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.values.len());
        for (slice, start) in self.slice_starts.iter().enumerate() {
            let end = self
                .slice_starts
                .get(slice + 1)
                .copied()
                .unwrap_or(self.values.len());
            if end > *start {
                let index = timeline.index(slice, kernels);
                out.extend(self.values[*start..end].iter().map(|v| v / index));
            }
        }
        out
    }
}

const SMALL_WORDS: usize = 1 << 12; // 32 KiB
const SMALL_STEPS: usize = 1 << 14;
const BIG_WORDS: usize = 1 << 22; // 32 MiB
const BIG_STEPS: usize = 1 << 10;
const ECHOES: usize = 10;
const SYNCS: usize = 4;

pub struct Canary {
    small: Vec<u64>,
    big: Vec<u64>,
    state: u64,
    wire: TcpStream,
    echo: Option<JoinHandle<()>>,
    file: std::fs::File,
    _dir: RunDir,
    samples_ns: [Vec<f64>; 4],
}

/// What the canary saw over one run.
#[derive(Clone, Copy, Debug)]
pub struct CanaryReport {
    /// Median ns per pass of each kernel, in [`KERNELS`] order.
    pub median_ns: [f64; 4],
    /// Interquartile range of the `cpu` kernel.
    pub iqr_ns: f64,
    pub samples: usize,
    /// Geometric mean over `cpu` and `mem` of median ÷ reference.
    pub index: f64,
    pub disturbed: bool,
}

fn scatter(table: &mut [u64], steps: usize, mut x: u64) -> u64 {
    let mask = table.len() - 1;
    for _ in 0..steps {
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        let slot = (x as usize) & mask;
        x = x.wrapping_add(table[slot]);
        table[slot] = x.rotate_left(17);
    }
    x
}

/// One frame the way a naive length-prefixed protocol sends it: header,
/// payload and trailer as separate writes.
fn send_frame(s: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    s.write_all(&(payload.len() as u64).to_le_bytes())?;
    s.write_all(payload)?;
    s.write_all(&[0u8; 8])
}

fn recv_frame(s: &mut TcpStream, payload: &mut [u8]) -> std::io::Result<()> {
    let mut edge = [0u8; 8];
    s.read_exact(&mut edge)?;
    s.read_exact(payload)?;
    s.read_exact(&mut edge)
}

impl Canary {
    /// # Errors
    ///
    /// Loopback or scratch-file failures, as one line.
    pub fn new() -> Result<Canary, String> {
        let io = |e: std::io::Error| format!("canary set-up: {e}");
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
        let wire = TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
        wire.set_nodelay(true).map_err(io)?;
        let (mut peer, _) = listener.accept().map_err(io)?;
        peer.set_nodelay(true).map_err(io)?;
        // Ends when `wire` is shut down in `drop`.
        let echo = std::thread::spawn(move || {
            let mut payload = [0u8; 72];
            while recv_frame(&mut peer, &mut payload).is_ok()
                && send_frame(&mut peer, &payload).is_ok()
            {}
        });
        let dir = RunDir::create("canary").map_err(io)?;
        let file = std::fs::File::create(dir.path().join("sync")).map_err(io)?;
        let mut c = Canary {
            small: (0..SMALL_WORDS as u64).collect(),
            big: (0..BIG_WORDS as u64).collect(),
            state: 0x0123_4567_89AB_CDEF,
            wire,
            echo: Some(echo),
            file,
            _dir: dir,
            samples_ns: Default::default(),
        };
        c.sample(); // touch everything once
        c.samples_ns = Default::default();
        Ok(c)
    }

    /// One timed pass of every kernel (about 1 ms in all): ns per pass,
    /// in [`KERNELS`] order.
    ///
    /// # Panics
    ///
    /// If the canary's own loopback connection or scratch file fails:
    /// without a reading no host time of the run can be reported.
    pub fn sample(&mut self) -> [f64; 4] {
        let mut reading = [0.0; 4];
        let t = Instant::now();
        self.state = std::hint::black_box(scatter(&mut self.small, SMALL_STEPS, self.state));
        reading[CPU] = t.elapsed().as_nanos() as f64;

        let t = Instant::now();
        self.state = std::hint::black_box(scatter(&mut self.big, BIG_STEPS, self.state));
        reading[MEM] = t.elapsed().as_nanos() as f64;

        let mut payload = [0u8; 72];
        let t = Instant::now();
        for _ in 0..ECHOES {
            send_frame(&mut self.wire, &payload).expect("canary echo send");
            recv_frame(&mut self.wire, &mut payload).expect("canary echo receive");
        }
        reading[WIRE] = t.elapsed().as_nanos() as f64;

        let t = Instant::now();
        for _ in 0..SYNCS {
            self.file.write_all(&[7u8; 512]).expect("canary append");
            self.file.sync_data().expect("canary sync_data");
        }
        reading[SYNC] = t.elapsed().as_nanos() as f64;

        for (samples, ns) in self.samples_ns.iter_mut().zip(reading) {
            samples.push(ns);
        }
        reading
    }

    /// The per-kernel median of `n` consecutive samples: for the places
    /// with one reading per event (a kill cycle, a set-up) rather than a
    /// train of slices.
    pub fn read(&mut self, n: usize) -> [f64; 4] {
        let samples: Vec<[f64; 4]> = (0..n).map(|_| self.sample()).collect();
        std::array::from_fn(|k| {
            stats::median(&mut samples.iter().map(|s| s[k]).collect::<Vec<f64>>())
        })
    }

    pub fn report(&self) -> CanaryReport {
        let mut median_ns = [0.0; 4];
        for (m, v) in median_ns.iter_mut().zip(&self.samples_ns) {
            if !v.is_empty() {
                *m = stats::median(&mut v.clone());
            }
        }
        let cpu = &self.samples_ns[0];
        let iqr_ns = if cpu.len() >= 2 {
            let (q1, _, q3) = stats::quartiles(cpu);
            q3 - q1
        } else {
            0.0
        };
        let index = if cpu.is_empty() {
            1.0
        } else {
            ((median_ns[CPU] / REFERENCE_NS[CPU]) * (median_ns[MEM] / REFERENCE_NS[MEM])).sqrt()
        };
        CanaryReport {
            median_ns,
            iqr_ns,
            samples: cpu.len(),
            index,
            disturbed: (index - 1.0).abs() > DISTURBED_SHARE,
        }
    }
}

impl Drop for Canary {
    fn drop(&mut self) {
        let _ = self.wire.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.echo.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_scaled_by_their_own_slice() {
        let mut timeline = Timeline::default();
        // The host runs at reference speed, then twice as slow.
        for slow in [1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0] {
            timeline.push(REFERENCE_NS.map(|r| r * slow));
        }
        let mut lane = Samples::default();
        for slice in 0..10 {
            lane.begin_slice();
            let slow = if slice < 5 { 1.0 } else { 2.0 };
            lane.push(30.0 * slow);
            lane.push(31.0 * slow);
        }
        let scaled = lane.scaled(&timeline, &[CPU, WIRE]);
        assert_eq!(scaled.len(), 20);
        // Away from the step (where the window straddles it) the scaled
        // samples are what the reference host would have measured.
        for (i, v) in scaled.iter().enumerate() {
            if !(6..14).contains(&i) {
                assert!((v - 30.0).abs() < 1.01, "sample {i} scaled to {v}");
            }
        }
        assert!((timeline.index(0, &ALL) - 1.0).abs() < 1e-12);
        assert!((timeline.index(9, &[SYNC]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn scatter_is_deterministic() {
        let mut a: Vec<u64> = (0..256).collect();
        let mut b = a.clone();
        assert_eq!(scatter(&mut a, 1000, 7), scatter(&mut b, 1000, 7));
        assert_eq!(a, b);
        assert_ne!(scatter(&mut a, 1000, 7), scatter(&mut b, 1000, 8));
    }
}
