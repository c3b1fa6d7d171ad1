//! The traced run (`--trace 1`): per-layer numbers, taken from outside.
//!
//! Nothing inside the crates is instrumented. The benchmark owns an
//! in-process *twin* of the served path and records one span around
//! every call into a layer's public function:
//!
//! ```text
//! request
//! ├─ server.req_encode     Request::encode
//! ├─ server.frame          write_frame on one end of a loopback pair
//! ├─ server.frame          read_frame on the other end
//! ├─ server.req_decode     Request::decode
//! ├─ server.admission      InflightGate::acquire, TokenBucket::try_take,
//! │                        Breaker::check, Breaker::record_ok
//! ├─ core.{read,write,write_batch}   controller over FileBackend
//! ├─ server.resp_encode    Response::encode
//! ├─ server.frame ×2       the reply, the same way back
//! └─ server.resp_decode    Response::decode
//! ```
//!
//! A span holds `name, layer, start_ns, end_ns, parent, request_id`;
//! spans stay in memory and are written to
//! `benchmark/out/trace_<workload>.jsonl` when the run ends. A layer's
//! self time is its span minus the spans it encloses.
//!
//! Two request streams go through the twin, one family at a time:
//!
//! * a fixed *probe block* (reads, scalar writes, 32-line batches),
//!   the same for every workload, which gives the per-layer timing rows
//!   their values — a layer's cost is a property of the layer;
//! * a *sample* of the workload's own stream, replayed in alternating
//!   chunks with tracing on and off, which gives `trace.coverage` (how
//!   much of an end-to-end request the layers account for) and
//!   `trace.overhead_pct` (what recording costs).
//!
//! The layers the twin cannot reach by a request (crypto, tree hashing,
//! metadata cache, persistence domain, anchor, generator, telemetry)
//! are probed by calling their public functions directly.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, MemoryController, SgxController,
    SgxScheme,
};
use anubis_cache::MetadataCache;
use anubis_crypto::otp::IvCounter;
use anubis_crypto::{hash::Hasher64, DataCodec};
use anubis_itree::bonsai::BonsaiHasher;
use anubis_nvm::{
    AnchorPolicy, Block, BlockAddr, FileBackend, FreshnessAnchor, MemBackend, NvmBackend,
    PersistenceDomain, SplitMix64, WriteOp,
};
use anubis_server::protocol::{read_frame, write_frame, FrameEvent};
use anubis_server::{Breaker, InflightGate, Request, Response, ServeMode, TokenBucket};
use anubis_workloads::{spec2006, OpKind, TraceGenerator};

use crate::canary::Canary;
use crate::json::Json;
use crate::metrics::{Report, PER_LAYER};
use crate::rundir::{RunDir, TENANTS};
use crate::served::{self, BATCH_LINES};
use crate::simpass::{self, overhead_input, FamilySim};
use crate::stats;
use crate::stream::{block_of, holds_version_in, lane_rng, AddrLaw, SparseLedger, TENANT_LINES};
use crate::{mix_of, paper_scale, Budget};

const FAMILIES: [&str; 2] = ["agit_plus", "asit"];

/// Requests of each kind in the probe block, per family.
const PROBE_READS: usize = 600;
const PROBE_WRITES: usize = 300;
const PROBE_BATCHES: usize = 60;
/// Requests of the workload sample, per family.
const SAMPLE_REQUESTS: usize = 1_000;
const SAMPLE_CHUNK: usize = 25;
/// Calls per direct probe.
const DIRECT_CALLS: usize = 20_000;

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request_id: u64,
}

/// In-memory span recorder. Off, it runs the closure and nothing else.
pub struct Tracer {
    t0: Instant,
    on: bool,
    request_id: u64,
    open: Vec<u32>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            on: true,
            request_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span that is a child of the innermost open one.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request_id: self.request_id,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    /// Self time in ns of every span, by index.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(s.name.into())),
                ("layer", Json::Str(s.layer.into())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("request_id", Json::Num(s.request_id as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

// ---------------------------------------------------------------------
// The twin
// ---------------------------------------------------------------------

struct SpanNames {
    read: &'static str,
    write: &'static str,
    batch: &'static str,
}

const CORE_SPANS: [SpanNames; 2] = [
    SpanNames {
        read: "core.read.agit_plus",
        write: "core.write.agit_plus",
        batch: "core.write_batch.agit_plus",
    },
    SpanNames {
        read: "core.read.asit",
        write: "core.write.asit",
        batch: "core.write_batch.asit",
    },
];

/// One tenant's path, in this process: both ends of a loopback
/// connection, the admission objects, and a controller.
struct Twin<C> {
    family: usize,
    client: TcpStream,
    server: TcpStream,
    gate: InflightGate,
    bucket: TokenBucket,
    breaker: Breaker,
    ctrl: C,
    ledger: SparseLedger,
    next_request: u64,
}

fn loopback_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let client = TcpStream::connect(listener.local_addr()?)?;
    let (server, _) = listener.accept()?;
    for s in [&client, &server] {
        s.set_nodelay(true)?;
        // `read_frame` wants a read timeout as its polling tick, as the
        // server and the client set one.
        s.set_read_timeout(Some(Duration::from_millis(20)))?;
    }
    Ok((client, server))
}

fn recv(stream: &mut TcpStream) -> Result<Vec<u8>, String> {
    match read_frame(
        stream,
        1 << 20,
        Duration::from_secs(5),
        Duration::from_secs(5),
        &|| false,
    ) {
        Ok(FrameEvent::Payload(p)) => Ok(p),
        Ok(FrameEvent::Closed) => Err("twin connection closed".into()),
        Err(e) => Err(format!("twin frame: {e}")),
    }
}

/// What one twin request is, before payloads are attached.
#[derive(Clone, Debug)]
enum Ask {
    Read(u64),
    Write(u64),
    Batch(Vec<u64>),
}

impl<C: MemoryController> Twin<C> {
    fn new(family: usize, ctrl: C) -> Result<Self, String> {
        let (client, server) = loopback_pair().map_err(|e| format!("twin loopback: {e}"))?;
        // The stock admission settings, with the quota lifted as for the child.
        Ok(Twin {
            family,
            client,
            server,
            gate: InflightGate::new(32),
            bucket: TokenBucket::new(1.0e8, 1_000_000),
            breaker: Breaker::new(5, Duration::from_millis(250)),
            ctrl,
            ledger: SparseLedger::default(),
            next_request: 1,
        })
    }

    /// One request along the whole path; the reply is checked against
    /// the ledger.
    fn request(&mut self, tr: &mut Tracer, ask: &Ask, report: &mut Report) -> Result<(), String> {
        let (req, expect) = match ask {
            Ask::Read(a) => (
                Request::Read {
                    addr: *a,
                    deadline_ms: 0,
                },
                Some((*a, self.ledger.version(*a))),
            ),
            Ask::Write(a) => (
                Request::Write {
                    addr: *a,
                    deadline_ms: 0,
                    data: self.ledger.next_write(*a),
                },
                None,
            ),
            Ask::Batch(addrs) => (
                Request::WriteBatch {
                    deadline_ms: 0,
                    items: addrs
                        .iter()
                        .map(|a| (*a, self.ledger.next_write(*a)))
                        .collect(),
                },
                None,
            ),
        };
        tr.request_id = self.next_request + ((self.family as u64) << 32);
        self.next_request += 1;
        let names = &CORE_SPANS[self.family];
        let Twin {
            client,
            server,
            gate,
            bucket,
            breaker,
            ctrl,
            ..
        } = self;
        let reply = tr.span("request", "twin", |tr| -> Result<Response, String> {
            let bytes = tr.span("server.req_encode", "server", |_| req.encode());
            tr.span("server.frame", "server", |_| write_frame(client, &bytes))
                .map_err(|e| format!("twin send: {e}"))?;
            let payload = tr.span("server.frame", "server", |_| recv(server))?;
            let decoded = tr
                .span("server.req_decode", "server", |_| Request::decode(&payload))
                .map_err(|e| format!("twin decode: {e}"))?;
            let admitted = tr.span("server.admission", "server", |_| {
                let now = Instant::now();
                let permit = gate.acquire();
                let ok = permit.is_some() && bucket.try_take(now) && breaker.check(now).is_ok();
                breaker.record_ok();
                ok
            });
            if !admitted {
                return Err("twin admission refused a request".into());
            }
            let resp = match &decoded {
                Request::Read { addr, .. } => tr
                    .span(names.read, "core", |_| ctrl.read(DataAddr::new(*addr)))
                    .map(|b| Response::ReadOk {
                        data: *b.as_bytes(),
                        mode: ServeMode::Full,
                    }),
                Request::Write { addr, data, .. } => tr
                    .span(names.write, "core", |_| {
                        ctrl.write(DataAddr::new(*addr), block_of(data))
                    })
                    .map(|()| Response::WriteOk),
                Request::WriteBatch { items, .. } => {
                    let converted: Vec<(DataAddr, Block)> = items
                        .iter()
                        .map(|(a, d)| (DataAddr::new(*a), block_of(d)))
                        .collect();
                    tr.span(names.batch, "core", |_| ctrl.write_batch(&converted))
                        .map(|()| Response::BatchOk {
                            written: items.len() as u32,
                        })
                }
                other => return Err(format!("twin does not serve {other:?}")),
            }
            .map_err(|e| format!("twin controller: {e}"))?;
            let bytes = tr.span("server.resp_encode", "server", |_| resp.encode());
            tr.span("server.frame", "server", |_| write_frame(server, &bytes))
                .map_err(|e| format!("twin reply: {e}"))?;
            let payload = tr.span("server.frame", "server", |_| recv(client))?;
            tr.span("server.resp_decode", "server", |_| {
                Response::decode(&payload)
            })
            .map_err(|e| format!("twin reply decode: {e}"))
        })?;
        let ok = match (&reply, expect) {
            (Response::ReadOk { data, .. }, Some((addr, v))) => holds_version_in(addr, data, v, v),
            (Response::WriteOk, None) => matches!(ask, Ask::Write(_)),
            (Response::BatchOk { written }, None) => {
                matches!(ask, Ask::Batch(a) if a.len() == *written as usize)
            }
            _ => false,
        };
        report.check(ok, || format!("twin request {ask:?} got {reply:?}"));
        Ok(())
    }
}

/// Opens a fresh anchored image and runs recovery, as a tenant boots.
fn open_image<C>(
    image: &Path,
    config: &AnubisConfig,
    reopen: impl Fn(&AnubisConfig, FileBackend) -> (C, Option<anubis::RecoveryError>),
) -> Result<C, String>
where
    C: MemoryController,
{
    let backend = FileBackend::open_with_anchor(image, config.key.0, AnchorPolicy::Strict)
        .map_err(|e| format!("twin image {}: {e}", image.display()))?;
    let (mut ctrl, hint) = reopen(config, backend);
    if let Some(h) = hint {
        return Err(format!("twin image refused: {h}"));
    }
    ctrl.recover()
        .map_err(|e| format!("twin boot recovery: {e}"))?;
    Ok(ctrl)
}

// ---------------------------------------------------------------------
// Streams
// ---------------------------------------------------------------------

fn probe_block(seed: u64, family: usize, lines: u64, budget: &Budget) -> Vec<Ask> {
    let law = AddrLaw::new(seed, lines);
    let mut rng = lane_rng(seed, 40 + family as u64);
    let mut asks = Vec::new();
    // Interleaved, so every kind meets every cache state.
    let (r, w, b) = (
        budget.scaled(PROBE_READS),
        budget.scaled(PROBE_WRITES),
        budget.scaled(PROBE_BATCHES),
    );
    for i in 0..r.max(w).max(b) {
        if i < b {
            asks.push(Ask::Batch(
                (0..BATCH_LINES).map(|_| law.draw(&mut rng)).collect(),
            ));
        }
        if i < w {
            asks.push(Ask::Write(law.draw(&mut rng)));
        }
        if i < r {
            asks.push(Ask::Read(law.draw(&mut rng)));
        }
    }
    asks
}

/// The workload's own requests for one family's twin.
fn workload_sample(
    workload: &str,
    seed: u64,
    family: usize,
    lines: u64,
    budget: &Budget,
) -> Vec<Ask> {
    let n = budget.scaled(SAMPLE_REQUESTS);
    let law = AddrLaw::new(seed, lines);
    let mut rng = lane_rng(seed, family as u64);
    match workload {
        "replay_spec" => {
            // The first measured ops of each trace, in turn.
            let input = overhead_input(seed, budget.div);
            let per_trace = n.div_ceil(input.traces.len());
            input
                .traces
                .iter()
                .flat_map(|t| t.ops().iter().skip(input.warmup).take(per_trace))
                .map(|op| match op.kind {
                    OpKind::Read => Ask::Read(op.addr.index()),
                    OpKind::Write => Ask::Write(op.addr.index()),
                })
                .collect()
        }
        "serve_read" => (0..n).map(|_| Ask::Read(law.draw(&mut rng))).collect(),
        "serve_mixed" => (0..n)
            .map(|i| {
                let a = law.draw(&mut rng);
                if i % 2 == 0 {
                    Ask::Write(a)
                } else {
                    Ask::Read(a)
                }
            })
            .collect(),
        "serve_batch" => (0..n / 4)
            .map(|_| Ask::Batch((0..BATCH_LINES).map(|_| law.draw(&mut rng)).collect()))
            .collect(),
        // crash_recover: the writes of a cycle, then their read-back.
        _ => {
            let writes: Vec<u64> = (0..n / 2).map(|_| law.draw(&mut rng)).collect();
            writes
                .iter()
                .map(|a| Ask::Write(*a))
                .chain(writes.iter().map(|a| Ask::Read(*a)))
                .collect()
        }
    }
}

// ---------------------------------------------------------------------
// One family through the twin
// ---------------------------------------------------------------------

#[derive(Default)]
struct FamilyTrace {
    /// Per-request wall ns of the sample, traced and untraced chunks.
    traced_ns: Vec<f64>,
    untraced_ns: Vec<f64>,
    /// Span index ranges `[from, to)` of the probe block and the sample.
    probe_spans: (usize, usize),
    sample_spans: (usize, usize),
    commits_per_batch: f64,
    frames_per_write: f64,
    wal_bytes_per_user_byte: f64,
}

fn prefill_twin<C: MemoryController>(twin: &mut Twin<C>, lines: u64) -> Result<(), String> {
    let addrs: Vec<u64> = (0..lines).collect();
    for chunk in addrs.chunks(512) {
        let items: Vec<(DataAddr, Block)> = chunk
            .iter()
            .map(|a| (DataAddr::new(*a), block_of(&twin.ledger.next_write(*a))))
            .collect();
        twin.ctrl
            .write_batch(&items)
            .map_err(|e| format!("twin prefill: {e}"))?;
    }
    Ok(())
}

fn drive_family<C: MemoryController>(
    twin: &mut Twin<C>,
    tr: &mut Tracer,
    probe: &[Ask],
    sample: &[Ask],
    wal: Option<&Path>,
    report: &mut Report,
) -> Result<FamilyTrace, String> {
    let mut out = FamilyTrace::default();
    let wal_len = |p: Option<&Path>| {
        p.and_then(|p| std::fs::metadata(p).ok())
            .map_or(0, |m| m.len())
    };

    // Probe block, traced throughout.
    tr.on = true;
    out.probe_spans.0 = tr.spans.len();
    let (mut batches, mut batch_commits, mut writes, mut write_frames) = (0u64, 0u64, 0u64, 0u64);
    let wal_before = wal_len(wal);
    let mut lines_written = 0u64;
    for ask in probe {
        let (commits, epoch) = (twin.ctrl.domain().commits(), twin.ctrl.domain().epoch());
        twin.request(tr, ask, report)?;
        match ask {
            Ask::Batch(a) => {
                batches += 1;
                batch_commits += twin.ctrl.domain().commits() - commits;
                lines_written += a.len() as u64;
            }
            Ask::Write(_) => {
                writes += 1;
                write_frames += twin.ctrl.domain().epoch() - epoch;
                lines_written += 1;
            }
            Ask::Read(_) => {}
        }
    }
    out.probe_spans.1 = tr.spans.len();
    out.commits_per_batch = batch_commits as f64 / batches.max(1) as f64;
    out.frames_per_write = write_frames as f64 / writes.max(1) as f64;
    out.wal_bytes_per_user_byte =
        wal_len(wal).saturating_sub(wal_before) as f64 / (lines_written.max(1) * 64) as f64;

    // Workload sample, alternating traced and untraced chunks.
    out.sample_spans.0 = tr.spans.len();
    // At least four chunks, so both kinds exist even under `--check`.
    for (i, chunk) in sample
        .chunks(SAMPLE_CHUNK.min(sample.len() / 4).max(1))
        .enumerate()
    {
        tr.on = i % 2 == 0;
        for ask in chunk {
            let t = Instant::now();
            twin.request(tr, ask, report)?;
            let ns = t.elapsed().as_nanos() as f64;
            if tr.on {
                out.traced_ns.push(ns);
            } else {
                out.untraced_ns.push(ns);
            }
        }
    }
    tr.on = true;
    out.sample_spans.1 = tr.spans.len();
    Ok(out)
}

/// Probe block on the file-backed twin, then the sample on it or on
/// the in-memory twin when there is one.
fn run_family<F: MemoryController, M: MemoryController>(
    family: usize,
    file_ctrl: F,
    mem_ctrl: Option<M>,
    (probe, sample, image, lines): (&[Ask], &[Ask], &Path, u64),
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<FamilyTrace, String> {
    let mut twin = Twin::new(family, file_ctrl)?;
    prefill_twin(&mut twin, lines)?;
    let Some(mem_ctrl) = mem_ctrl else {
        return drive_family(&mut twin, tr, probe, sample, Some(image), report);
    };
    let mut out = drive_family(&mut twin, tr, probe, &[], Some(image), report)?;
    let mut twin = Twin::new(family, mem_ctrl)?;
    let s = drive_family(&mut twin, tr, &[], sample, None, report)?;
    (out.traced_ns, out.untraced_ns, out.sample_spans) =
        (s.traced_ns, s.untraced_ns, s.sample_spans);
    Ok(out)
}

// ---------------------------------------------------------------------
// Direct probes of the layers a request does not name
// ---------------------------------------------------------------------

/// ns per call of `f`, as the median over chunks of 1 000 calls.
fn per_call_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_chunk = Vec::new();
    let mut done = 0;
    while done < calls {
        let n = 1_000.min(calls - done);
        let t = Instant::now();
        for i in done..done + n {
            f(i);
        }
        per_chunk.push(t.elapsed().as_nanos() as f64 / n as f64);
        done += n;
    }
    stats::median(&mut per_chunk)
}

fn direct_probes(
    seed: u64,
    budget: &Budget,
    dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let calls = budget.scaled(DIRECT_CALLS);
    let key = AnubisConfig::small_test().key;
    let mut rng = SplitMix64::new(seed ^ 0x00D1_2EC7);
    let blocks: Vec<Block> = (0..256)
        .map(|_| Block::from_words(std::array::from_fn(|_| rng.next_u64())))
        .collect();

    let codec = DataCodec::new(key);
    let sealed: Vec<_> = blocks
        .iter()
        .enumerate()
        .map(|(i, b)| codec.seal(BlockAddr::new(i as u64), IvCounter::split(1, i as u64), b))
        .collect();
    let seal = per_call_ns(calls, |i| {
        let k = i % blocks.len();
        std::hint::black_box(codec.seal(
            BlockAddr::new(k as u64),
            IvCounter::split(1, k as u64),
            &blocks[k],
        ));
    });
    let mut opened_ok = true;
    let open = per_call_ns(calls, |i| {
        let k = i % blocks.len();
        opened_ok &= codec
            .open(
                BlockAddr::new(k as u64),
                IvCounter::split(1, k as u64),
                &sealed[k],
            )
            .is_ok_and(|b| b == blocks[k]);
    });
    report.check(opened_ok, || "crypto probe: open(seal(x)) != x".into());
    let hasher = Hasher64::new(key);
    let hash = per_call_ns(calls, |i| {
        std::hint::black_box(hasher.hash(blocks[i % blocks.len()].as_bytes()));
    });
    report.set(&PER_LAYER, "crypto.seal_ns", seal, calls);
    report.set(&PER_LAYER, "crypto.open_ns", open, calls);
    report.set(&PER_LAYER, "crypto.hash_block_ns", hash, calls);

    let tree = BonsaiHasher::new(key);
    let digest = per_call_ns(calls, |i| {
        std::hint::black_box(tree.digest(&blocks[i % blocks.len()]));
    });
    report.set(&PER_LAYER, "itree.node_digest_ns", digest, calls);

    // A 4 KiB 4-way cache, as a served tenant's counter cache.
    let mut cache: MetadataCache<u64> = MetadataCache::new(4 * 1024, 4);
    let slots = cache.num_slots() as u64;
    for a in 0..slots {
        cache.insert(BlockAddr::new(a), a);
    }
    let hit = per_call_ns(calls, |i| {
        std::hint::black_box(cache.lookup(BlockAddr::new(i as u64 % slots)).is_some());
    });
    let evict = per_call_ns(calls, |i| {
        std::hint::black_box(
            cache
                .insert(BlockAddr::new(slots + i as u64), i as u64)
                .evicted
                .is_some(),
        );
    });
    report.set(&PER_LAYER, "cache.lookup_hit_ns", hit, calls);
    report.set(&PER_LAYER, "cache.insert_evict_ns", evict, calls);

    let mut domain: PersistenceDomain<MemBackend> = PersistenceDomain::new(1 << 20);
    let mut committed = true;
    let commit = per_call_ns(calls, |i| {
        let base = (i as u64 * 5) % 16_000;
        let group = (0..5).map(|k| {
            WriteOp::new(
                BlockAddr::new(base + k),
                blocks[(i + k as usize) % blocks.len()],
            )
        });
        committed &= domain.commit_group(group).is_ok();
    });
    report.check(committed, || "nvm probe: a 5-op commit group failed".into());
    report.set(&PER_LAYER, "nvm.commit_group_ns", commit, calls);

    let mut anchor = FreshnessAnchor::create(dir.join("probe.anchor"), key.0, 0)
        .map_err(|e| format!("anchor probe: {e}"))?;
    let seals = budget.scaled(400);
    let mut sealed_ok = true;
    let mut seal_us: Vec<f64> = (1..=seals as u64)
        .map(|epoch| {
            let t = Instant::now();
            sealed_ok &= anchor.seal(epoch).is_ok();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report.check(sealed_ok && anchor.anchored() == seals as u64, || {
        "anchor probe: seal failed".into()
    });
    report.set(
        &PER_LAYER,
        "nvm.anchor_seal_us",
        stats::median(&mut seal_us),
        seals,
    );

    let generator = TraceGenerator::new(spec2006::milc(), 32 << 20);
    let gen_ops = budget.scaled(200_000);
    let t = Instant::now();
    std::hint::black_box(generator.generate(gen_ops, seed));
    report.set(
        &PER_LAYER,
        "workloads.gen_ns_per_op",
        t.elapsed().as_nanos() as f64 / gen_ops as f64,
        0,
    );

    let tel = anubis_telemetry::Telemetry::global();
    let incr = per_call_ns(calls * 10, |_| tel.incr("ledger_probe_total", "off", 1));
    report.set(&PER_LAYER, "telemetry.incr_off_ns", incr, calls * 10);
    Ok(())
}

/// In-process cost of the controllers on the paper's configuration
/// and streams: per-call times and the exact per-op costs.
fn core_probe<C: MemoryController>(
    mut ctrl: C,
    family: &str,
    seed: u64,
    budget: &Budget,
    report: &mut Report,
) -> Result<f64, String> {
    let input = overhead_input(seed, budget.div);
    let per_trace = budget.scaled(3_000);
    let (mut read_ns, mut write_ns) = (Vec::new(), Vec::new());
    let (mut hash_on_writes, mut nvm_reads, mut ops) = (0u64, 0u64, 0u64);
    let mut ledger = SparseLedger::default();
    let mut total_ns = 0u128;
    for trace in &input.traces {
        for op in trace.ops().iter().skip(input.warmup).take(per_trace) {
            let a = op.addr.index();
            let addr = DataAddr::new(a);
            match op.kind {
                OpKind::Write => {
                    let data = block_of(&ledger.next_write(a));
                    let t = Instant::now();
                    ctrl.write(addr, data)
                        .map_err(|e| format!("core probe write: {e}"))?;
                    let ns = t.elapsed().as_nanos();
                    total_ns += ns;
                    write_ns.push(ns as f64);
                    hash_on_writes += u64::from(ctrl.last_cost().hash_ops);
                }
                OpKind::Read => {
                    let t = Instant::now();
                    let got = ctrl
                        .read(addr)
                        .map_err(|e| format!("core probe read: {e}"))?;
                    let ns = t.elapsed().as_nanos();
                    total_ns += ns;
                    read_ns.push(ns as f64);
                    report.check(ledger.check_read(a, got.as_bytes()), || {
                        format!("core probe: read of line {a} does not match the ledger")
                    });
                }
            }
            nvm_reads += u64::from(ctrl.last_cost().nvm_reads);
            ops += 1;
        }
    }
    let writes = write_ns.len();
    report.set(
        &PER_LAYER,
        &format!("core.read_ns.{family}"),
        stats::median(&mut read_ns),
        read_ns.len(),
    );
    report.set(
        &PER_LAYER,
        &format!("core.write_ns.{family}"),
        stats::median(&mut write_ns),
        writes,
    );
    report.set(
        &PER_LAYER,
        &format!("core.hash_ops_per_write.{family}"),
        hash_on_writes as f64 / writes.max(1) as f64,
        0,
    );
    report.set(
        &PER_LAYER,
        &format!("core.nvm_reads_per_op.{family}"),
        nvm_reads as f64 / ops.max(1) as f64,
        0,
    );
    report.set(
        &PER_LAYER,
        &format!("core.nvm_writes_per_data_write.{family}"),
        ctrl.total_cost().writes_per_data_write().unwrap_or(0.0),
        0,
    );
    Ok(total_ns as f64 / ops.max(1) as f64)
}

// ---------------------------------------------------------------------
// Putting a traced run together
// ---------------------------------------------------------------------

fn p50_of(
    tr: &Tracer,
    own: &[u64],
    range: (usize, usize),
    name: &str,
) -> Option<(f64, f64, usize)> {
    let mut v: Vec<f64> = (range.0..range.1)
        .filter(|i| tr.spans[*i].name == name)
        .map(|i| own[i] as f64)
        .collect();
    if v.is_empty() {
        return None;
    }
    v.sort_unstable_by(f64::total_cmp);
    Some((
        stats::percentile(&v, 0.5),
        stats::percentile(&v, 0.99),
        v.len(),
    ))
}

/// Σ over layers of the p50 self time per request, for the requests
/// whose spans lie in `range`: the twin's account of one request.
fn layer_sum_ns(tr: &Tracer, own: &[u64], range: (usize, usize)) -> f64 {
    let mut per_request: BTreeMap<(u64, &str), f64> = BTreeMap::new();
    for (s, own) in tr.spans[range.0..range.1]
        .iter()
        .zip(&own[range.0..range.1])
    {
        if s.parent.is_some() {
            *per_request.entry((s.request_id, s.layer)).or_insert(0.0) += *own as f64;
        }
    }
    let mut by_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for ((_, layer), ns) in per_request {
        by_layer.entry(layer).or_default().push(ns);
    }
    by_layer.values_mut().map(|v| stats::median(v)).sum()
}

fn set_family_rows(
    report: &mut Report,
    family: &str,
    ft: &FamilyTrace,
    tr: &Tracer,
    own: &[u64],
    names: &SpanNames,
) {
    if let Some((p50, _, n)) = p50_of(tr, own, ft.probe_spans, names.batch) {
        report.set(
            &PER_LAYER,
            &format!("core.write_batch32_ns_per_line.{family}"),
            p50 / BATCH_LINES as f64,
            n,
        );
    }
    report.set(
        &PER_LAYER,
        &format!("core.commit_groups_per_batch32.{family}"),
        ft.commits_per_batch,
        0,
    );
}

fn set_sim_rows(report: &mut Report, family: &str, overhead: &FamilySim, recovery: &FamilySim) {
    let ops: f64 = overhead.runs.iter().map(|r| r.ops as f64).sum();
    let sum = |f: fn(&anubis_sim::RunResult) -> u64| {
        overhead.runs.iter().map(|r| f(r) as f64).sum::<f64>()
    };
    report.set(
        &PER_LAYER,
        &format!("sim.read_stall_ns_per_op.{family}"),
        sum(|r| r.read_stall_ns) / ops,
        0,
    );
    report.set(
        &PER_LAYER,
        &format!("sim.write_stall_ns_per_op.{family}"),
        sum(|r| r.write_stall_ns) / ops,
        0,
    );
    report.set(
        &PER_LAYER,
        &format!("sim.utilization.{family}"),
        overhead
            .runs
            .iter()
            .map(anubis_sim::RunResult::utilization)
            .sum::<f64>()
            / overhead.runs.len() as f64,
        0,
    );
    report.set(
        &PER_LAYER,
        &format!("core.recovery_ops.{family}"),
        recovery.recovery_ops,
        0,
    );
    report.set(
        &PER_LAYER,
        &format!("core.recover_host_us.{family}"),
        recovery.recover_host_us,
        1,
    );
}

/// What the real child adds in a traced run: `Stats` round trips, and
/// for the served workloads a short untraced measurement.
struct ChildView {
    stats_rtt_us: f64,
    /// Lane a's end-to-end p50 with nothing recording (0: not served).
    lane_p50_us: f64,
    extras: served::ServedExtras,
}

fn child_view(
    workload: &str,
    seed: u64,
    budget: &Budget,
    canary: &mut Canary,
    report: &mut Report,
) -> Result<ChildView, String> {
    let (served, lane_p50_us, extras) = if workload.starts_with("serve_") {
        let short = Budget {
            seconds: (budget.seconds / 4.0).max(0.2),
            div: budget.div,
            setup_reps: 1,
        };
        let (mut r, extras, served) = served::run(mix_of(workload), seed, &short, canary)?;
        let lane_p50_us = r
            .values
            .iter()
            .find(|v| v.def.name == "lane_a_p50_us")
            .map_or(0.0, |v| v.value);
        // End-to-end rows do not belong in a traced result.
        (r.values, r.notes, r.raw) = Default::default();
        report.merge(r);
        (served, lane_p50_us, extras)
    } else {
        let served = served::bring_up("trace", 0)?;
        let extras = served::ServedExtras {
            rss_mb: served.child.rss_mb().unwrap_or(0.0),
            ..Default::default()
        };
        (served, 0.0, extras)
    };
    let (mut client, _) = served
        .child
        .connect_full(&TENANTS[0])
        .map_err(|e| e.to_string())?;
    let mut us = Vec::new();
    for _ in 0..budget.scaled(2_000) {
        let t = Instant::now();
        client.stats().map_err(|e| format!("stats probe: {e}"))?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(ChildView {
        stats_rtt_us: stats::median(&mut us),
        lane_p50_us,
        extras,
    })
}

pub fn run_traced(
    workload: &str,
    seed: u64,
    budget: &Budget,
    canary: &mut Canary,
) -> Result<Report, String> {
    let mut report = Report::default();
    let dir = RunDir::create("twin").map_err(|e| format!("scratch dir: {e}"))?;
    let mut tr = Tracer::new();
    let in_memory = workload == "replay_spec";
    let lines = budget.scaled(TENANT_LINES as usize) as u64;

    // The twin, one family at a time: the probe block over a prefilled
    // file-backed image (the served tenant's twin), then the workload's
    // sample — over the same image, or for `replay_spec`, which never
    // touches a file, over `MemBackend` on the paper configuration.
    let tenant_cfg = AnubisConfig::small_test();
    let paper_cfg = AnubisConfig::paper();
    let mut traces = Vec::new();
    let mut reopen_ms = Vec::new();
    for (family, tenant) in TENANTS.iter().enumerate() {
        canary.sample();
        let image = dir.path().join(format!("{}.wal", tenant.name));
        let probe = probe_block(seed, family, lines, budget);
        let sample = workload_sample(workload, seed, family, lines, budget);
        let ft = if family == 0 {
            run_family(
                family,
                open_image(&image, &tenant_cfg, |c, b| {
                    BonsaiController::reopen(BonsaiScheme::AgitPlus, c, b)
                })?,
                in_memory.then(|| BonsaiController::new(BonsaiScheme::AgitPlus, &paper_cfg)),
                (&probe, &sample, &image, lines),
                &mut tr,
                &mut report,
            )?
        } else {
            run_family(
                family,
                open_image(&image, &tenant_cfg, |c, b| {
                    SgxController::reopen(SgxScheme::Asit, c, b)
                })?,
                in_memory.then(|| SgxController::new(SgxScheme::Asit, &paper_cfg)),
                (&probe, &sample, &image, lines),
                &mut tr,
                &mut report,
            )?
        };
        traces.push(ft);
        // The image the twin left behind, reopened as a restart would.
        for _ in 0..3 {
            let t = Instant::now();
            let backend =
                FileBackend::open_with_anchor(&image, tenant_cfg.key.0, AnchorPolicy::Strict)
                    .map_err(|e| format!("reopen probe: {e}"))?;
            reopen_ms.push(t.elapsed().as_secs_f64() * 1e3);
            report.check(!backend.freshness().is_violation(), || {
                format!("reopen probe: {:?}", backend.freshness())
            });
        }
    }

    // Rows from the probe block's spans.
    let own = tr.self_times();
    let probe_range = (traces[0].probe_spans.0, traces[1].probe_spans.1);
    for (metric, span) in [
        ("server.req_encode_ns", "server.req_encode"),
        ("server.req_decode_ns", "server.req_decode"),
        ("server.resp_encode_ns", "server.resp_encode"),
        ("server.resp_decode_ns", "server.resp_decode"),
        ("server.admission_ns", "server.admission"),
    ] {
        let (p50, _, n) =
            p50_of(&tr, &own, probe_range, span).ok_or_else(|| format!("no {span} spans"))?;
        report.set(&PER_LAYER, metric, p50, n);
    }
    // Four frame calls make one round trip.
    let (frame_p50, _, frames) =
        p50_of(&tr, &own, probe_range, "server.frame").ok_or("no server.frame spans")?;
    report.set(
        &PER_LAYER,
        "server.frame_rtt_us",
        4.0 * frame_p50 / 1e3,
        frames,
    );
    for (family, ft) in traces.iter().enumerate() {
        set_family_rows(
            &mut report,
            FAMILIES[family],
            ft,
            &tr,
            &own,
            &CORE_SPANS[family],
        );
    }
    // A scalar write over the file-backed image is one WAL barrier.
    let (barrier_p50, barrier_p99, barriers) =
        p50_of(&tr, &own, traces[0].probe_spans, CORE_SPANS[0].write).ok_or("no probe writes")?;
    report.set(
        &PER_LAYER,
        "nvm.file_barrier_p50_us",
        barrier_p50 / 1e3,
        barriers,
    );
    report.set(
        &PER_LAYER,
        "nvm.file_barrier_p99_us",
        barrier_p99 / 1e3,
        barriers,
    );
    report.set(
        &PER_LAYER,
        "nvm.frames_per_acked_write",
        traces[0].frames_per_write,
        0,
    );
    report.set(
        &PER_LAYER,
        "nvm.wal_bytes_per_user_byte",
        traces[0].wal_bytes_per_user_byte,
        0,
    );
    let reopens = reopen_ms.len();
    report.set(
        &PER_LAYER,
        "nvm.reopen_ms",
        stats::median(&mut reopen_ms),
        reopens,
    );

    // The layers no request names.
    direct_probes(seed, budget, dir.path(), &mut report)?;
    let loop_a = core_probe(
        BonsaiController::new(BonsaiScheme::AgitPlus, &paper_cfg),
        "agit_plus",
        seed,
        budget,
        &mut report,
    )?;
    core_probe(
        SgxController::new(SgxScheme::Asit, &paper_cfg),
        "asit",
        seed,
        budget,
        &mut report,
    )?;

    // The simulated experiments at this workload's scale.
    canary.sample();
    let (overhead_div, recovery_div) = paper_scale(workload, budget);
    let paper = simpass::paper_pass(seed, overhead_div, recovery_div)?;
    set_sim_rows(
        &mut report,
        "agit_plus",
        &paper.overhead.agit_plus,
        &paper.recovery.agit_plus,
    );
    set_sim_rows(
        &mut report,
        "asit",
        &paper.overhead.asit,
        &paper.recovery.asit,
    );
    report.set(
        &PER_LAYER,
        "cache.counter_hit_ratio",
        paper.overhead.agit_plus.hit_ratios.0,
        0,
    );
    report.set(
        &PER_LAYER,
        "cache.tree_hit_ratio",
        paper.overhead.agit_plus.hit_ratios.1,
        0,
    );
    report.set(
        &PER_LAYER,
        "cache.metadata_hit_ratio",
        paper.overhead.asit.hit_ratios.0,
        0,
    );
    report.set(
        &PER_LAYER,
        "sim.engine_ns_per_op",
        (paper.overhead.agit_plus.engine_host_ns_per_op - loop_a).max(0.0),
        0,
    );

    // The real child: `Stats` round trips and, where the workload is
    // served, its end-to-end p50 with nothing recording.
    let child = child_view(workload, seed, budget, canary, &mut report)?;
    report.set(
        &PER_LAYER,
        "server.stats_rtt_us",
        child.stats_rtt_us,
        budget.scaled(2_000),
    );
    report.set(
        &PER_LAYER,
        "server.lane_a_p99_us",
        child.extras.p99_us[0],
        0,
    );
    report.set(
        &PER_LAYER,
        "server.lane_b_p99_us",
        child.extras.p99_us[1],
        0,
    );
    report.set(&PER_LAYER, "server.ops_per_s", child.extras.ops_per_s, 0);
    report.set(&PER_LAYER, "server.rejects", child.extras.rejects, 0);
    report.set(&PER_LAYER, "server.rss_mb", child.extras.rss_mb, 0);

    // Coverage and overhead from the workload sample (lane a's family).
    let sample_range = traces[0].sample_spans;
    let layers_us = layer_sum_ns(&tr, &own, sample_range) / 1e3;
    let mut traced: Vec<f64> = traces
        .iter()
        .flat_map(|t| t.traced_ns.iter().copied())
        .collect();
    let mut untraced: Vec<f64> = traces
        .iter()
        .flat_map(|t| t.untraced_ns.iter().copied())
        .collect();
    let (traced_p50, untraced_p50) = (stats::median(&mut traced), stats::median(&mut untraced));
    let mut untraced_a = traces[0].untraced_ns.clone();
    let end_to_end_us = if child.lane_p50_us > 0.0 {
        child.lane_p50_us
    } else {
        stats::median(&mut untraced_a) / 1e3
    };
    report.set(
        &PER_LAYER,
        "trace.coverage",
        layers_us / end_to_end_us,
        traces[0].traced_ns.len(),
    );
    report.set(
        &PER_LAYER,
        "trace.overhead_pct",
        100.0 * (traced_p50 / untraced_p50 - 1.0),
        traced.len(),
    );
    report.set(
        &PER_LAYER,
        "server.tenant_residual_us",
        if child.lane_p50_us > 0.0 {
            child.lane_p50_us - layers_us
        } else {
            0.0
        },
        0,
    );

    let c = canary.report();
    report.set(&PER_LAYER, "host.canary_ns", c.median_ns[0], c.samples);
    report.set(&PER_LAYER, "host.canary_iqr_ns", c.iqr_ns, c.samples);

    let path = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(format!("benchmark/out/trace_{workload}.jsonl"));
    tr.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report.notes.push(format!(
        "{} spans in {}; twin account of one lane-a request {layers_us:.2} us against {end_to_end_us:.2} us end to end",
        tr.spans.len(),
        path.display()
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut tr = Tracer::new();
        tr.request_id = 9;
        tr.span("request", "twin", |tr| {
            tr.span("a", "x", |_| std::thread::sleep(Duration::from_millis(2)));
            tr.span("b", "y", |tr| {
                tr.span("c", "y", |_| std::thread::sleep(Duration::from_millis(1)));
            });
        });
        assert_eq!(tr.spans.len(), 4);
        let parents: Vec<Option<u32>> = tr.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert!(tr
            .spans
            .iter()
            .all(|s| s.request_id == 9 && s.end_ns >= s.start_ns));
        // Children nest inside their parent.
        for s in &tr.spans {
            if let Some(p) = s.parent {
                let p = &tr.spans[p as usize];
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
            }
        }
        let own = tr.self_times();
        let dur = |i: usize| tr.spans[i].end_ns - tr.spans[i].start_ns;
        assert_eq!(own[0], dur(0) - dur(1) - dur(2));
        assert_eq!(own[2], dur(2) - dur(3));
        assert_eq!(own[3], dur(3));
        assert!(
            own[0] < 1_000_000,
            "the root did nothing itself: {}",
            own[0]
        );
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut tr = Tracer::new();
        tr.on = false;
        assert_eq!(tr.span("x", "y", |_| 7), 7);
        assert!(tr.spans.is_empty());
    }
}
