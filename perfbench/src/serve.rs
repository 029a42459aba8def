//! The `serve_warm` and `serve_cold` workloads: the mapping flow served by
//! an in-process `fpfa-serve` daemon with a pinned configuration.
//!
//! Load comes from this process: one generator thread over at most two
//! pipelined v2 connections, encoding and decoding with the public
//! `fpfa_server::protocol` functions.  Set-up and the daemon's own counters
//! go through `fpfa_server::Client` (`map`, `stats`, `metrics`, `dump`,
//! `reset`).  Every served digest is checked against an in-process cold
//! mapping of the same source after the measured phase.

use crate::compile::{STAGES, STAGE_METRICS};
use crate::gen::{self, ColdStep};
use crate::report::{Metrics, Outcome};
use crate::stats::{self, micros};
use fpfa_core::pipeline::Mapper;
use fpfa_core::service::MappingService;
use fpfa_obs::{MetricValue, Snapshot, HISTOGRAM_BUCKETS};
use fpfa_server::protocol::{
    decode_response_frame, encode_request_frame, read_frame, write_frame, FrameBuffer, Hello,
};
use fpfa_server::sys::{Event, Interest, Poller};
use fpfa_server::{
    program_digest, Client, KernelSource, MapKnobs, MapSummary, MetricsFormat, Request, Response,
    Server, ServerConfig, ServerHandle, StatsSummary, WireError,
};
use fpfa_workloads::Kernel;
use std::collections::{BTreeMap, HashMap};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Pinned daemon configuration: results must not depend on the host's
/// `available_parallelism`.
const SHARDS: usize = 2;
/// Worker threads of the daemon.
const WORKERS: usize = 2;
/// Job-queue capacity of the daemon.
const QUEUE_DEPTH: usize = 64;
/// Mapping-cache capacity per level (L1).
const CACHE_CAPACITY: usize = 256;
/// Deadline budget of every request.
const DEADLINE: Duration = Duration::from_secs(5);
/// How long a stopping daemon keeps serving open connections.
const DRAIN_GRACE: Duration = Duration::from_millis(100);
/// In traced runs the daemon traces every request whose id is a multiple of
/// this.
const TRACE_SAMPLE: u32 = 4;
/// Requests in flight over all connections in the `serve_warm` closed loop.
const WARM_WINDOW: usize = 32;
/// Share of a `serve_warm` run spent in the closed loop (the rest is the
/// open loop).
const WARM_CLOSED_SHARE: f64 = 0.4;
/// Throughput of the closed loop is taken per slice of this length.
const WARM_SLICE: Duration = Duration::from_millis(250);
/// The fixed `serve_warm` open-loop rate, requests per second over all
/// connections: well below the closed loop's saturated rate.
const WARM_OPEN_RATE: f64 = 10_000.0;
/// Open-loop latency percentiles are taken per slice of this many seconds.
const OPEN_SLICE_S: f64 = 0.25;
/// Requests in flight over all connections in `serve_cold`: under the
/// queue depth, so admission control never sheds load.
const COLD_WINDOW: usize = 16;
/// Rounds per `serve_cold` run, at least.
const MIN_COLD_ROUNDS: usize = 2;
/// The open-loop generator sleeps until this long before a request is due
/// and spins for the rest.
const SPIN: Duration = Duration::from_micros(50);
/// A measured phase that has not finished after this long has hung.
const HANG: Duration = Duration::from_secs(120);
/// Read timeout of blocking client sockets.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// Connections the load generator opens: at most two, at most one per core.
fn connections() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(1, 2)
}

fn config(trace_sample: u32) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        queue_depth: QUEUE_DEPTH,
        default_deadline: DEADLINE,
        shards: SHARDS,
        drain_grace: DRAIN_GRACE,
        trace_sample,
        slow_threshold: Duration::ZERO,
        flight_capacity: fpfa_obs::DEFAULT_FLIGHT_CAPACITY,
    }
}

/// The pinned configuration as a JSON object, for the result stamp.
pub fn config_json() -> String {
    format!(
        "{{\"shards\": {SHARDS}, \"workers\": {WORKERS}, \"queue_depth\": {QUEUE_DEPTH}, \
         \"deadline_ms\": {}, \"cache_capacity\": {CACHE_CAPACITY}, \"connections\": {}, \
         \"trace_sample_traced\": {TRACE_SAMPLE}, \"warm_open_rate\": {WARM_OPEN_RATE}, \
         \"warm_window\": {WARM_WINDOW}, \"cold_window\": {COLD_WINDOW}}}",
        DEADLINE.as_millis(),
        connections()
    )
}

fn fail(context: &str, error: impl std::fmt::Display) -> String {
    format!("{context}: {error}")
}

// ---------------------------------------------------------------------------
// The daemon and its counters
// ---------------------------------------------------------------------------

/// An in-process daemon; stopped (threads joined, cache directory removed)
/// when dropped.
struct Daemon {
    handle: Option<ServerHandle>,
    addr: String,
    /// When the daemon was bound: its span timestamps count from here.
    born: Instant,
    cache_dir: Option<PathBuf>,
}

impl Daemon {
    fn start(trace_sample: u32, cache_dir: Option<PathBuf>) -> Result<Daemon, String> {
        let service = match &cache_dir {
            Some(dir) => MappingService::with_cache_dir(Mapper::new(), CACHE_CAPACITY, dir)
                .map_err(|e| fail("cache directory", e))?,
            None => MappingService::with_capacity(Mapper::new(), CACHE_CAPACITY),
        };
        let born = Instant::now();
        let server = Server::bind("127.0.0.1:0", config(trace_sample), service)
            .map_err(|e| fail("bind", e))?;
        let addr = server
            .local_addr()
            .map_err(|e| fail("local address", e))?
            .to_string();
        let handle = server.spawn().map_err(|e| fail("spawn", e))?;
        Ok(Daemon {
            handle: Some(handle),
            addr,
            born,
            cache_dir,
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
            handle.join();
        }
        if let Some(dir) = &self.cache_dir {
            let _ = std::fs::remove_dir_all(dir);
            if let Some(parent) = dir.parent() {
                let _ = std::fs::remove_dir(parent);
            }
        }
    }
}

/// A fresh, empty directory for the disk tier, inside the working
/// directory.
fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = std::env::current_dir()
        .map_err(|e| fail("working directory", e))?
        .join(".bench_tmp")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| fail("scratch directory", e))?;
    Ok(dir)
}

/// The daemon's `stats` and `metrics` verbs at one instant.
struct Snap {
    stats: StatsSummary,
    metrics: Snapshot,
}

fn snapshot(control: &mut Client) -> Result<Snap, String> {
    let stats = control.stats().map_err(|e| fail("stats verb", e))?;
    let body = control
        .metrics(MetricsFormat::Json)
        .map_err(|e| fail("metrics verb", e))?;
    let metrics = Snapshot::from_json(&body).map_err(|e| fail("metrics body", e))?;
    Ok(Snap { stats, metrics })
}

fn histogram(snapshot: &Snapshot, name: &str) -> [u64; HISTOGRAM_BUCKETS] {
    snapshot
        .metrics
        .iter()
        .find(|m| m.key.name == name && m.key.labels.is_empty())
        .and_then(|m| match &m.value {
            MetricValue::Histogram { buckets, .. } => Some(*buckets),
            _ => None,
        })
        .unwrap_or([0; HISTOGRAM_BUCKETS])
}

/// The `q` quantile of a daemon histogram (bucket `i` holds values in
/// `[2^(i-1), 2^i)`, bucket 0 the zeros), interpolated linearly inside the
/// bucket it falls in, so the estimate follows the counts instead of
/// snapping to a bucket bound.
fn histogram_quantile(buckets: &[u64; HISTOGRAM_BUCKETS], q: f64) -> f64 {
    let rank = q * buckets.iter().sum::<u64>() as f64;
    let mut below = 0.0;
    for (i, &count) in buckets.iter().enumerate() {
        let count = count as f64;
        if count > 0.0 && below + count >= rank {
            if i == 0 {
                return 0.0;
            }
            let low = (1u64 << (i - 1)) as f64;
            return low + low * ((rank - below) / count);
        }
        below += count;
    }
    0.0
}

/// The daemon's counters summed over measured phases (after − before).
#[derive(Default)]
struct Ledger {
    l0_hits: u64,
    fast_hits: u64,
    mapping_hits: u64,
    mapping_misses: u64,
    post_hits: u64,
    persist_loads: u64,
    persist_stores: u64,
    rejected_overload: u64,
    rejected_deadline: u64,
    protocol_errors: u64,
    bytes_out: u64,
    queue_wait: [u64; HISTOGRAM_BUCKETS],
    map_latency: [u64; HISTOGRAM_BUCKETS],
}

impl Ledger {
    fn add(&mut self, before: &Snap, after: &Snap) {
        let (b, a) = (&before.stats, &after.stats);
        self.l0_hits += a.l0_hits.saturating_sub(b.l0_hits);
        self.fast_hits += a.fast_hits.saturating_sub(b.fast_hits);
        self.mapping_hits += a.cache_mapping_hits.saturating_sub(b.cache_mapping_hits);
        self.mapping_misses += a
            .cache_mapping_misses
            .saturating_sub(b.cache_mapping_misses);
        self.post_hits += a.cache_post_hits.saturating_sub(b.cache_post_hits);
        self.persist_loads += a.persist_loads.saturating_sub(b.persist_loads);
        self.persist_stores += a.persist_stores.saturating_sub(b.persist_stores);
        self.rejected_overload += a.rejected_overload.saturating_sub(b.rejected_overload);
        self.rejected_deadline += a.rejected_deadline.saturating_sub(b.rejected_deadline);
        self.protocol_errors += a.protocol_errors.saturating_sub(b.protocol_errors);
        let bytes = |s: &StatsSummary| s.shards.iter().map(|x| x.bytes_out).sum::<u64>();
        self.bytes_out += bytes(a).saturating_sub(bytes(b));
        for (name, into) in [
            ("serve.queue.wait", &mut self.queue_wait),
            ("serve.map.latency", &mut self.map_latency),
        ] {
            let (hb, ha) = (
                histogram(&before.metrics, name),
                histogram(&after.metrics, name),
            );
            for (slot, (x, y)) in into.iter_mut().zip(hb.iter().zip(&ha)) {
                *slot += y.saturating_sub(*x);
            }
        }
    }

    fn report(&self, metrics: &mut Metrics, requests: u64) {
        let q = histogram_quantile;
        metrics.set("serve.l0_hits", self.l0_hits as f64);
        metrics.set("serve.fast_hits", self.fast_hits as f64);
        metrics.set("cache.mapping.hits", self.mapping_hits as f64);
        metrics.set("cache.mapping.misses", self.mapping_misses as f64);
        metrics.set("cache.post.hits", self.post_hits as f64);
        metrics.set("persist.loads", self.persist_loads as f64);
        metrics.set("persist.stores", self.persist_stores as f64);
        metrics.set("serve.queue.wait_p50_us", q(&self.queue_wait, 0.5));
        metrics.set("serve.queue.wait_p99_us", q(&self.queue_wait, 0.99));
        metrics.set("serve.map.latency_p99_us", q(&self.map_latency, 0.99));
        metrics.set("serve.rejected.overload", self.rejected_overload as f64);
        metrics.set("serve.rejected.deadline", self.rejected_deadline as f64);
        metrics.set("serve.protocol_errors", self.protocol_errors as f64);
        metrics.set(
            "shard.bytes_out_per_req",
            stats::ratio(self.bytes_out as f64, requests as f64),
        );
    }
}

/// Mean duration per span name of the daemon's sampled traces that started
/// at or after `since_us` (daemon clock), from the `dump` verb.
fn span_means(dump: &str, since_us: u64) -> Result<BTreeMap<String, f64>, String> {
    let root = fpfa_obs::json::parse(dump).map_err(|e| fail("dump body", e))?;
    let traces = root
        .as_object()
        .and_then(|o| o.get("traces"))
        .and_then(|t| t.as_array())
        .ok_or("dump without a traces array")?;
    let mut sums: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for event in traces.iter().filter_map(|t| t.as_object()) {
        let field = |key: &str| event.get(key).and_then(|v| v.as_u64());
        let (Some(name), Some(start), Some(dur)) = (
            event.get("name").and_then(|v| v.as_str()),
            field("start_us"),
            field("dur_us"),
        ) else {
            continue;
        };
        if start >= since_us {
            let entry = sums.entry(name.to_string()).or_default();
            entry.0 += dur as f64;
            entry.1 += 1.0;
        }
    }
    Ok(sums
        .into_iter()
        .map(|(name, (sum, n))| (name, sum / n))
        .collect())
}

fn report_spans(metrics: &mut Metrics, spans: &BTreeMap<String, f64>) {
    let get = |name: &str| spans.get(name).copied().unwrap_or(0.0);
    metrics.set("span.queue.wait_us", get("queue.wait"));
    metrics.set("span.map.service_us", get("map.service"));
    metrics.set("span.respond_us", get("respond"));
    for (stage, metric) in STAGES.iter().zip(STAGE_METRICS) {
        metrics.set(metric, get(stage));
    }
}

// ---------------------------------------------------------------------------
// Answers and their oracle
// ---------------------------------------------------------------------------

/// What the daemon answered for one kernel.
#[derive(Clone, Default)]
struct Seen {
    responses: u64,
    digest: Option<u64>,
    cycles: u64,
    sims: u64,
    sim: Option<(u64, i64)>,
    /// Answers that disagree with an earlier answer for the same kernel.
    disagreements: u64,
}

/// Every answer of a measured phase, per kernel, plus the failures.
#[derive(Clone, Default)]
struct Answers {
    seen: Vec<Seen>,
    refused: u64,
    errors: u64,
    missing: u64,
}

impl Answers {
    fn new(kernels: usize) -> Self {
        Answers {
            seen: vec![Seen::default(); kernels],
            ..Answers::default()
        }
    }

    fn record(&mut self, kernel: usize, response: Response) {
        match response {
            Response::Mapped(summary) => self.record_mapped(kernel, &summary),
            Response::Error(WireError::Overloaded { .. } | WireError::DeadlineExceeded { .. }) => {
                self.refused += 1;
            }
            _ => self.errors += 1,
        }
    }

    fn record_mapped(&mut self, kernel: usize, summary: &MapSummary) {
        let seen = &mut self.seen[kernel];
        seen.responses += 1;
        match seen.digest {
            None => {
                seen.digest = Some(summary.digest);
                seen.cycles = summary.cycles;
            }
            Some(digest) if digest != summary.digest => seen.disagreements += 1,
            Some(_) => {}
        }
        if let Some(sim) = summary.sim {
            seen.sims += 1;
            match seen.sim {
                None => seen.sim = Some((sim.cycles, sim.checksum)),
                Some(first) if first != (sim.cycles, sim.checksum) => seen.disagreements += 1,
                Some(_) => {}
            }
        }
    }

    fn merge(&mut self, other: &Answers) {
        for (mine, theirs) in self.seen.iter_mut().zip(&other.seen) {
            mine.responses += theirs.responses;
            mine.sims += theirs.sims;
            mine.disagreements += theirs.disagreements;
            if mine.digest.is_none() {
                mine.digest = theirs.digest;
                mine.cycles = theirs.cycles;
            } else if theirs.digest.is_some() && theirs.digest != mine.digest {
                mine.disagreements += theirs.responses;
            }
            if mine.sim.is_none() {
                mine.sim = theirs.sim;
            } else if theirs.sim.is_some() && theirs.sim != mine.sim {
                mine.disagreements += theirs.sims;
            }
        }
        self.refused += other.refused;
        self.errors += other.errors;
        self.missing += other.missing;
    }

    fn cycles_geomean(&self) -> f64 {
        stats::geomean(
            self.seen
                .iter()
                .filter(|s| s.responses > 0)
                .map(|s| s.cycles as f64),
        )
    }
}

/// The oracle's verdict on a phase's answers.
#[derive(Default)]
struct Verdict {
    failed: u64,
    sim_mismatches: u64,
    digest_mismatches: u64,
}

/// What simulating `mapping` the way the daemon does must report:
/// `(cycles, checksum, simulator equals the CDFG interpreter)`.
fn expected_sim(mapping: &fpfa_core::MappingResult) -> Option<(u64, i64, bool)> {
    let mut inputs = fpfa_sim::SimInputs::new();
    for (phase, symbol) in mapping.layout.arrays().iter().enumerate() {
        inputs.statespace.store_array(
            symbol.base,
            &fpfa_workloads::test_signal(symbol.len, phase as i64),
        );
    }
    for name in &mapping.program.scalar_input_names {
        inputs.scalars.insert(name.clone(), 1);
    }
    let report = match &mapping.multi {
        Some(multi) => {
            fpfa_sim::check_multi_against_cdfg(&mapping.simplified, &multi.program, &inputs)
        }
        None => fpfa_sim::check_against_cdfg(&mapping.simplified, &mapping.program, &inputs),
    }
    .ok()?;
    let checksum = report
        .outcome
        .scalars
        .values()
        .fold(0i64, |acc, v| acc.wrapping_add(*v));
    Some((
        report.outcome.counts.cycles,
        checksum,
        report.is_equivalent(),
    ))
}

/// Checks every answer against an in-process cold mapping of its source
/// (untimed).
fn check_answers(kernels: &[Kernel], answers: &Answers) -> Verdict {
    let mut verdict = Verdict {
        failed: answers.refused + answers.errors + answers.missing,
        ..Verdict::default()
    };
    for (kernel, seen) in kernels.iter().zip(&answers.seen) {
        if seen.responses == 0 {
            continue;
        }
        verdict.failed += seen.disagreements;
        let Ok(mapping) = Mapper::new().map_source(&kernel.source) else {
            verdict.failed += seen.responses;
            continue;
        };
        if seen.digest != Some(program_digest(&mapping)) {
            verdict.digest_mismatches += 1;
            verdict.failed += seen.responses;
        }
        if let Some((cycles, checksum)) = seen.sim {
            let agrees = expected_sim(&mapping)
                .is_some_and(|(c, sum, equivalent)| equivalent && c == cycles && sum == checksum);
            if !agrees {
                verdict.sim_mismatches += 1;
                verdict.failed += seen.sims;
            }
        }
    }
    verdict
}

// ---------------------------------------------------------------------------
// Client side: codec spans and connections
// ---------------------------------------------------------------------------

/// The protocol codec, with optional spans around every encode and decode.
#[derive(Clone, Default)]
struct Codec {
    traced: bool,
    encode_us: f64,
    encodes: f64,
    decode_us: f64,
    decodes: f64,
}

impl Codec {
    fn traced(traced: bool) -> Self {
        Codec {
            traced,
            ..Codec::default()
        }
    }

    /// Appends one length-prefixed v2 request frame to `out`.
    fn encode(&mut self, out: &mut Vec<u8>, id: u64, request: &Request) -> Result<(), String> {
        let started = self.traced.then(Instant::now);
        let payload = encode_request_frame(id, request);
        write_frame(out, &payload).map_err(|e| fail("encode", e))?;
        if let Some(started) = started {
            self.encode_us += micros(started.elapsed());
            self.encodes += 1.0;
        }
        Ok(())
    }

    fn decode(&mut self, frame: &[u8]) -> Result<(u64, Response), String> {
        let started = self.traced.then(Instant::now);
        let decoded = decode_response_frame(frame).map_err(|e| fail("decode", e))?;
        if let Some(started) = started {
            self.decode_us += micros(started.elapsed());
            self.decodes += 1.0;
        }
        Ok(decoded)
    }

    fn merge(&mut self, other: &Codec) {
        self.encode_us += other.encode_us;
        self.encodes += other.encodes;
        self.decode_us += other.decode_us;
        self.decodes += other.decodes;
    }

    fn report(&self, metrics: &mut Metrics) {
        metrics.set(
            "client.encode_us",
            stats::ratio(self.encode_us, self.encodes),
        );
        metrics.set(
            "client.decode_us",
            stats::ratio(self.decode_us, self.decodes),
        );
    }
}

/// A blocking v2 connection past its handshake.
fn handshake(addr: &str) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| fail("connect", e))?;
    stream.set_nodelay(true).map_err(|e| fail("nodelay", e))?;
    write_frame(&mut stream, &Hello::current().encode()).map_err(|e| fail("hello", e))?;
    let ack = read_frame(&mut stream)
        .map_err(|e| fail("hello ack", e))?
        .ok_or("the daemon closed during the handshake")?;
    match Response::decode(&ack) {
        Ok(Response::Hello(_)) => Ok(stream),
        other => Err(format!("unexpected handshake reply: {other:?}")),
    }
}

/// A `map` request for `kernel`.
fn map_request(kernel: &Kernel, simulate: bool) -> Request {
    Request::Map {
        kernel: KernelSource::new(kernel.name.clone(), kernel.source.clone()),
        knobs: MapKnobs {
            simulate,
            ..MapKnobs::default()
        },
    }
}

/// Maps every kernel through `clients` in turn, one request at a time: the
/// first client's request runs the flow, the later ones repeat it from the
/// mapping cache, so every client's I/O shard holds every kernel in its L0
/// tier.  One request at a time keeps the set-up time independent of how
/// much parallelism the host grants the daemon's workers.
fn seed_through(clients: &mut [Client], kernels: &[Kernel]) -> Result<(), String> {
    for kernel in kernels {
        for client in clients.iter_mut() {
            client
                .map(&kernel.name, &kernel.source, MapKnobs::default())
                .map_err(|e| fail(&format!("set-up map of `{}`", kernel.name), e))?;
        }
    }
    Ok(())
}

/// A nonblocking pipelined connection of the closed loop.
struct Conn {
    stream: TcpStream,
    rbuf: FrameBuffer,
    wbuf: Vec<u8>,
    wpos: usize,
    want_write: bool,
    next_id: u64,
    /// Request id → (kernel, send instant).
    pending: HashMap<u64, (u32, Instant)>,
}

fn open_conns(addr: &str, count: usize, poller: &mut Poller) -> Result<Vec<Conn>, String> {
    (0..count)
        .map(|token| {
            let stream = handshake(addr)?;
            stream
                .set_nonblocking(true)
                .map_err(|e| fail("nonblocking", e))?;
            poller
                .register(stream.as_raw_fd(), token, Interest::READ)
                .map_err(|e| fail("register", e))?;
            Ok(Conn {
                stream,
                rbuf: FrameBuffer::new(),
                wbuf: Vec::new(),
                wpos: 0,
                want_write: false,
                next_id: 0,
                pending: HashMap::new(),
            })
        })
        .collect()
}

fn flush(conn: &mut Conn, token: usize, poller: &mut Poller) -> Result<(), String> {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Err("the daemon closed a connection".to_string()),
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(fail("write", e)),
        }
    }
    let drained = conn.wpos == conn.wbuf.len();
    if drained {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    if drained == conn.want_write {
        conn.want_write = !drained;
        let interest = if drained {
            Interest::READ
        } else {
            Interest::READ_WRITE
        };
        poller
            .reregister(conn.stream.as_raw_fd(), token, interest)
            .map_err(|e| fail("reregister", e))?;
    }
    Ok(())
}

/// A request of the closed loop: connection and index into the request
/// table.
type Send = (usize, usize);

/// What a closed loop measured.
#[derive(Default)]
struct ClosedRun {
    answered: u64,
    /// Answers received in each [`WARM_SLICE`] since the loop started.
    per_slice: Vec<u64>,
    /// Latency of every answer, send to receipt (finite schedules only: a
    /// loop that runs until a stop time keeps counts, so its memory does not
    /// grow with the daemon's speed).
    latencies_us: Vec<f64>,
    wall: Duration,
}

/// Drives a closed loop: the next group of requests from `next_group` is
/// sent once all of it fits in `window` requests in flight.  Stops issuing
/// when `next_group` is exhausted or at `stop`, then drains.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    conns: &mut [Conn],
    poller: &mut Poller,
    table: &[(u32, Request)],
    mut next_group: impl FnMut(&mut Vec<Send>) -> bool,
    window: usize,
    stop: Option<Instant>,
    codec: &mut Codec,
    answers: &mut Answers,
) -> Result<ClosedRun, String> {
    let started = Instant::now();
    let mut run = ClosedRun::default();
    let mut group: Vec<Send> = Vec::new();
    let (mut holding, mut exhausted, mut in_flight) = (false, false, 0usize);
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    loop {
        while !exhausted {
            if stop.is_some_and(|stop| Instant::now() >= stop) {
                exhausted = true;
                break;
            }
            if !holding {
                group.clear();
                if !next_group(&mut group) {
                    exhausted = true;
                    break;
                }
                holding = true;
            }
            if in_flight > 0 && in_flight + group.len() > window {
                break;
            }
            for &(c, entry) in &group {
                let conn = &mut conns[c];
                let id = conn.next_id;
                conn.next_id += 1;
                let (kernel, request) = &table[entry];
                codec.encode(&mut conn.wbuf, id, request)?;
                conn.pending.insert(id, (*kernel, Instant::now()));
                in_flight += 1;
            }
            holding = false;
        }
        for (token, conn) in conns.iter_mut().enumerate() {
            if conn.wpos < conn.wbuf.len() {
                flush(conn, token, poller)?;
            }
        }
        if in_flight == 0 && exhausted {
            break;
        }
        if started.elapsed() > HANG {
            return Err(format!("{in_flight} request(s) unanswered after {HANG:?}"));
        }
        poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .map_err(|e| fail("poll", e))?;
        for event in &events {
            let token = event.token;
            if event.writable {
                flush(&mut conns[token], token, poller)?;
            }
            if !event.readable {
                continue;
            }
            let conn = &mut conns[token];
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => return Err("the daemon closed a connection".to_string()),
                    Ok(n) => conn.rbuf.extend(&scratch[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(fail("read", e)),
                }
            }
            let now = Instant::now();
            while let Some(frame) = conn.rbuf.next_frame().map_err(|e| fail("frame", e))? {
                let (id, response) = codec.decode(frame)?;
                let Some((kernel, sent)) = conn.pending.remove(&id) else {
                    answers.errors += 1;
                    continue;
                };
                in_flight -= 1;
                run.answered += 1;
                let slice = ((now - started).as_secs_f64() / WARM_SLICE.as_secs_f64()) as usize;
                if run.per_slice.len() <= slice {
                    run.per_slice.resize(slice + 1, 0);
                }
                run.per_slice[slice] += 1;
                if stop.is_none() {
                    run.latencies_us.push(micros(now - sent));
                }
                answers.record(kernel as usize, response);
            }
        }
    }
    run.wall = started.elapsed();
    Ok(run)
}

// ---------------------------------------------------------------------------
// The open loop
// ---------------------------------------------------------------------------

/// What the open loop measured.
struct OpenRun {
    /// `(request id, latency from its due time)` of every answer.
    latencies_us: Vec<(u64, f64)>,
    /// How late the generator sent each request.
    lag_us: Vec<f64>,
    answers: Answers,
    codec: Codec,
}

/// Sleeps, then spins, until `due`.
fn pace(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Sends `schedule` (request-table entries) at `rate` per second over
/// `connections` fresh connections, request `i` on connection
/// `i % connections`, due at `start + i / rate`.  One generator thread
/// sends; one reader thread, woken by readiness on every connection, times
/// each answer from its due time.
fn open_loop(
    addr: &str,
    connections: usize,
    table: &[(u32, Request)],
    schedule: &[usize],
    rate: f64,
    traced: bool,
) -> Result<OpenRun, String> {
    let mut writers = Vec::with_capacity(connections);
    let mut readers = Vec::with_capacity(connections);
    let mut poller = Poller::new().map_err(|e| fail("poller", e))?;
    for token in 0..connections {
        let stream = handshake(addr)?;
        let reader = stream.try_clone().map_err(|e| fail("clone", e))?;
        poller
            .register(reader.as_raw_fd(), token, Interest::READ)
            .map_err(|e| fail("register", e))?;
        writers.push(stream);
        readers.push(reader);
    }
    let due_after = |id: u64| Duration::from_secs_f64(id as f64 / rate);
    let start = Instant::now() + Duration::from_millis(20);
    let mut codec = Codec::traced(traced);
    let mut lag_us = Vec::with_capacity(schedule.len());
    let mut frame = Vec::new();

    let (received, sent) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut run = OpenRun {
                latencies_us: Vec::with_capacity(schedule.len()),
                lag_us: Vec::new(),
                answers: Answers::new(table.len()),
                codec: Codec::traced(traced),
            };
            let mut buffers: Vec<FrameBuffer> =
                readers.iter().map(|_| FrameBuffer::new()).collect();
            let (mut events, mut scratch) = (Vec::new(), vec![0u8; 64 * 1024]);
            let (mut answered, mut idle_since) = (0usize, Instant::now());
            'receive: while answered < schedule.len() {
                if poller
                    .wait(&mut events, Some(Duration::from_millis(100)))
                    .is_err()
                    || idle_since.elapsed() > IO_TIMEOUT
                {
                    break;
                }
                for event in &events {
                    idle_since = Instant::now();
                    // Level-triggered readiness: one read never blocks.
                    match readers[event.token].read(&mut scratch) {
                        Ok(n) if n > 0 => buffers[event.token].extend(&scratch[..n]),
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        _ => break 'receive,
                    }
                    let received = Instant::now();
                    while let Ok(Some(payload)) = buffers[event.token].next_frame() {
                        answered += 1;
                        let decoded = run.codec.decode(payload);
                        let Some((id, response, entry)) = decoded.ok().and_then(|(id, r)| {
                            schedule.get(id as usize).map(|&entry| (id, r, entry))
                        }) else {
                            run.answers.errors += 1;
                            continue;
                        };
                        let due = start + due_after(id);
                        let latency = micros(received.saturating_duration_since(due));
                        run.latencies_us.push((id, latency));
                        run.answers.record(table[entry].0 as usize, response);
                    }
                }
            }
            run.answers.missing += (schedule.len() - answered) as u64;
            run
        });
        let mut sent: Result<(), String> = Ok(());
        for (id, &entry) in schedule.iter().enumerate() {
            let due = start + due_after(id as u64);
            pace(due);
            lag_us.push(micros(Instant::now().saturating_duration_since(due)));
            frame.clear();
            let written = codec
                .encode(&mut frame, id as u64, &table[entry].1)
                .and_then(|()| {
                    writers[id % connections]
                        .write_all(&frame)
                        .map_err(|e| fail("write", e))
                });
            if let Err(e) = written {
                sent = Err(e);
                break;
            }
        }
        if sent.is_err() {
            for writer in &writers {
                let _ = writer.shutdown(std::net::Shutdown::Both);
            }
        }
        let received = reader.join().expect("the open-loop reader panicked");
        (received, sent)
    });
    sent?;
    let mut run = received;
    run.lag_us = lag_us;
    run.codec.merge(&codec);
    Ok(run)
}

// ---------------------------------------------------------------------------
// serve_warm
// ---------------------------------------------------------------------------

/// One `serve_warm` phase pair on one daemon.
struct WarmRun {
    setup_s: f64,
    peak_rss_mb: f64,
    closed_rates: Vec<f64>,
    open_p50s: Vec<f64>,
    open_p99s: Vec<f64>,
    open_samples: usize,
    lag_us: Vec<f64>,
    requests: u64,
    answers: Answers,
    ledger: Ledger,
    codec: Codec,
    spans: BTreeMap<String, f64>,
    pool: Vec<Kernel>,
}

/// Set-up: generate the pool, bind and spawn the daemon, map every pool
/// kernel once and seed every I/O shard's L0 tier with it.
fn warm_setup(seed: u64, trace_sample: u32) -> Result<(Vec<Kernel>, Daemon), String> {
    let pool = gen::warm_pool(seed);
    let daemon = Daemon::start(trace_sample, None)?;
    let mut clients = (0..SHARDS)
        .map(|_| Client::connect(&daemon.addr).map_err(|e| fail("set-up connect", e)))
        .collect::<Result<Vec<_>, _>>()?;
    seed_through(&mut clients, &pool)?;
    Ok((pool, daemon))
}

fn warm_once(seed: u64, seconds: f64, traced: bool) -> Result<WarmRun, String> {
    let trace_sample = if traced { TRACE_SAMPLE } else { 0 };
    let ((pool, daemon), setup_s) = stats::timed(|| warm_setup(seed, trace_sample))?;
    let connections = connections();
    let table: Vec<(u32, Request)> = pool
        .iter()
        .enumerate()
        .map(|(k, kernel)| (k as u32, map_request(kernel, false)))
        .collect();
    let closed_for = Duration::from_secs_f64(seconds * WARM_CLOSED_SHARE);
    let open_requests = ((seconds - closed_for.as_secs_f64()) * WARM_OPEN_RATE) as usize;
    let requests = gen::warm_requests(seed, pool.len(), open_requests.max(1 << 16));

    let mut control = Client::connect(&daemon.addr).map_err(|e| fail("control connect", e))?;
    let mut poller = Poller::new().map_err(|e| fail("poller", e))?;
    let mut conns = open_conns(&daemon.addr, connections, &mut poller)?;
    let mut codec = Codec::traced(traced);
    let mut answers = Answers::new(pool.len());
    let before = snapshot(&mut control)?;
    let phase_start = Instant::now();

    let mut cursor = 0usize;
    let closed = closed_loop(
        &mut conns,
        &mut poller,
        &table,
        |group| {
            group.push((
                cursor % connections,
                requests[cursor % requests.len()] as usize,
            ));
            cursor += 1;
            true
        },
        WARM_WINDOW,
        Some(phase_start + closed_for),
        &mut codec,
        &mut answers,
    )?;
    drop(conns);
    // Only the slices that ended before issuing stopped are saturated.
    let slices = (closed_for.as_secs_f64() / WARM_SLICE.as_secs_f64()).floor() as usize;
    let closed_rates: Vec<f64> = closed.per_slice[..slices.clamp(1, closed.per_slice.len())]
        .iter()
        .map(|count| *count as f64 / WARM_SLICE.as_secs_f64())
        .collect();

    let schedule: Vec<usize> = requests[..open_requests]
        .iter()
        .map(|k| *k as usize)
        .collect();
    let open = open_loop(
        &daemon.addr,
        connections,
        &table,
        &schedule,
        WARM_OPEN_RATE,
        traced,
    )?;
    let after = snapshot(&mut control)?;
    let spans = if traced {
        let dump = control.dump().map_err(|e| fail("dump verb", e))?;
        span_means(&dump, micros(phase_start - daemon.born) as u64)?
    } else {
        BTreeMap::new()
    };
    drop(control);
    drop(daemon);
    let peak_rss_mb = stats::peak_rss_mb();

    let mut ledger = Ledger::default();
    ledger.add(&before, &after);
    answers.merge(&open.answers);
    codec.merge(&open.codec);
    let per_slice_ids = (WARM_OPEN_RATE * OPEN_SLICE_S) as u64;
    let mut slices: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (id, latency) in &open.latencies_us {
        slices.entry(id / per_slice_ids).or_default().push(*latency);
    }
    Ok(WarmRun {
        setup_s,
        peak_rss_mb,
        closed_rates,
        open_p50s: slices.values().map(|s| stats::quantile(s, 0.5)).collect(),
        open_p99s: slices.values().map(|s| stats::quantile(s, 0.99)).collect(),
        open_samples: open.latencies_us.len(),
        lag_us: open.lag_us,
        requests: closed.answered + open.latencies_us.len() as u64,
        answers,
        ledger,
        codec,
        spans,
        pool,
    })
}

/// Times one `serve_warm` set-up (the daemon is stopped afterwards, untimed).
///
/// # Errors
/// When the daemon cannot be set up.
pub fn setup_only_warm(seed: u64) -> Result<f64, String> {
    stats::timed(|| warm_setup(seed, 0)).map(|(_, seconds)| seconds)
}

/// Runs `serve_warm`.
///
/// # Errors
/// When the daemon cannot be set up or a connection breaks.
pub fn run_warm(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        invariants_hold: true,
        ..Outcome::default()
    };
    let mut metrics = Metrics::default();
    let mut runs = Vec::new();
    if trace {
        let untraced = warm_once(seed, seconds / 2.0, false)?;
        let traced = warm_once(seed, seconds / 2.0, true)?;
        let rate = |run: &WarmRun| stats::median(&run.closed_rates);
        metrics.set(
            "bench.trace_overhead_pct",
            (rate(&untraced) / rate(&traced) - 1.0) * 100.0,
        );
        traced.ledger.report(&mut metrics, traced.requests);
        traced.codec.report(&mut metrics);
        report_spans(&mut metrics, &traced.spans);
        metrics.set(
            "bench.gen_lag_p99_us",
            stats::quantile(&traced.lag_us, 0.99),
        );
        // Zero cold flow runs during the measured phase: every answer must
        // come from the warm tiers.
        outcome.invariants_hold = traced.ledger.mapping_misses == 0;
        runs.push(untraced);
        runs.push(traced);
    } else {
        let run = warm_once(seed, seconds, false)?;
        outcome.setup_s = Some(run.setup_s);
        metrics.set("throughput_per_s", stats::median(&run.closed_rates));
        metrics.set("p50_us", stats::median(&run.open_p50s));
        metrics.set("tail_us", stats::median(&run.open_p99s));
        metrics.set("cycles_geomean", run.answers.cycles_geomean());
        metrics.set("peak_rss_mb", run.peak_rss_mb);
        outcome.notes.push(format!(
            "closed loop: {} slices of {:?}, window {WARM_WINDOW}; open loop: {} samples at \
             {WARM_OPEN_RATE} req/s in {} slices of {OPEN_SLICE_S} s (p50/p99 per slice, median \
             over slices), generator lag p50 {:.1} us p99 {:.1} us",
            run.closed_rates.len(),
            WARM_SLICE,
            run.open_samples,
            run.open_p50s.len(),
            stats::quantile(&run.lag_us, 0.5),
            stats::quantile(&run.lag_us, 0.99),
        ));
        outcome.notes.push(format!(
            "tiers over the measured phase: {} L0 of {} fast hits, {} mapping misses",
            run.ledger.l0_hits, run.ledger.fast_hits, run.ledger.mapping_misses
        ));
        runs.push(run);
    }
    let mut sim_mismatches = 0;
    for run in &runs {
        let verdict = check_answers(&run.pool, &run.answers);
        outcome.attempted += run.requests + run.answers.missing;
        outcome.failed += verdict.failed;
        sim_mismatches += verdict.sim_mismatches;
        outcome.notes.push(format!(
            "oracle: {} served digest(s) differ from the in-process cold digest",
            verdict.digest_mismatches
        ));
    }
    metrics.set("sim.mismatches", sim_mismatches as f64);
    metrics.set(
        "bench.failed_share",
        stats::ratio(outcome.failed as f64, outcome.attempted as f64),
    );
    outcome.metrics = metrics;
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// serve_cold
// ---------------------------------------------------------------------------

/// One set of `serve_cold` rounds on one daemon.
struct ColdRun {
    setup_s: f64,
    peak_rss_mb: f64,
    round_rates: Vec<f64>,
    round_p50s: Vec<f64>,
    round_p99s: Vec<f64>,
    requests: u64,
    answers: Answers,
    ledger: Ledger,
    codec: Codec,
    spans: BTreeMap<String, f64>,
    fresh: Vec<Kernel>,
}

/// Set-up: generate the fresh kernels, bind and spawn the daemon over an
/// empty disk tier, and warm its workers with one pass over the registry.
fn cold_setup(seed: u64, trace_sample: u32) -> Result<(Vec<Kernel>, Daemon), String> {
    let fresh = gen::cold_fresh(seed);
    let daemon = Daemon::start(trace_sample, Some(scratch_dir("serve_cold")?))?;
    let mut client = Client::connect(&daemon.addr).map_err(|e| fail("set-up connect", e))?;
    seed_through(
        std::slice::from_mut(&mut client),
        &fpfa_workloads::registry(),
    )?;
    Ok((fresh, daemon))
}

fn cold_once(seed: u64, seconds: f64, traced: bool) -> Result<ColdRun, String> {
    let trace_sample = if traced { TRACE_SAMPLE } else { 0 };
    let ((fresh, daemon), setup_s) = stats::timed(|| cold_setup(seed, trace_sample))?;
    let connections = connections();
    // Entry 2k maps fresh kernel k; entry 2k + 1 also simulates it.
    let table: Vec<(u32, Request)> = fresh
        .iter()
        .enumerate()
        .flat_map(|(k, kernel)| {
            [false, true].map(|simulate| (k as u32, map_request(kernel, simulate)))
        })
        .collect();

    let mut control = Client::connect(&daemon.addr).map_err(|e| fail("control connect", e))?;
    let mut poller = Poller::new().map_err(|e| fail("poller", e))?;
    let mut conns = open_conns(&daemon.addr, connections, &mut poller)?;
    let mut codec = Codec::traced(traced);
    let mut answers = Answers::new(fresh.len());
    let mut ledger = Ledger::default();
    let (mut round_rates, mut round_p50s, mut round_p99s) = (Vec::new(), Vec::new(), Vec::new());
    let mut requests = 0;
    let phase_start = Instant::now();
    let deadline = phase_start + Duration::from_secs_f64(seconds);
    while round_rates.len() < MIN_COLD_ROUNDS || Instant::now() < deadline {
        // Every round starts from empty tiers: L0, L1 and the disk tier.
        control.reset().map_err(|e| fail("reset verb", e))?;
        let before = snapshot(&mut control)?;
        let steps = gen::cold_schedule(seed, round_rates.len(), connections);
        let mut cursor = 0usize;
        let round = closed_loop(
            &mut conns,
            &mut poller,
            &table,
            |group| {
                let Some(step) = steps.get(cursor) else {
                    return false;
                };
                cursor += 1;
                match *step {
                    ColdStep::Fresh(k) => {
                        group.extend((0..connections).map(|c| (c, 2 * k as usize)));
                    }
                    ColdStep::Repeat {
                        kernel,
                        conn,
                        simulate,
                    } => group.push((conn as usize, 2 * kernel as usize + usize::from(simulate))),
                }
                true
            },
            COLD_WINDOW,
            None,
            &mut codec,
            &mut answers,
        )?;
        let after = snapshot(&mut control)?;
        ledger.add(&before, &after);
        requests += round.answered;
        round_rates.push(round.answered as f64 / round.wall.as_secs_f64());
        round_p50s.push(stats::quantile(&round.latencies_us, 0.5));
        round_p99s.push(stats::quantile(&round.latencies_us, 0.99));
    }
    let spans = if traced {
        let dump = control.dump().map_err(|e| fail("dump verb", e))?;
        span_means(&dump, micros(phase_start - daemon.born) as u64)?
    } else {
        BTreeMap::new()
    };
    drop(conns);
    drop(control);
    drop(daemon);
    Ok(ColdRun {
        setup_s,
        peak_rss_mb: stats::peak_rss_mb(),
        round_rates,
        round_p50s,
        round_p99s,
        requests,
        answers,
        ledger,
        codec,
        spans,
        fresh,
    })
}

/// Times one `serve_cold` set-up (the daemon is stopped afterwards, untimed).
///
/// # Errors
/// When the daemon cannot be set up.
pub fn setup_only_cold(seed: u64) -> Result<f64, String> {
    stats::timed(|| cold_setup(seed, 0)).map(|(_, seconds)| seconds)
}

/// Runs `serve_cold`.
///
/// # Errors
/// When the daemon cannot be set up or a connection breaks.
pub fn run_cold(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        invariants_hold: true,
        ..Outcome::default()
    };
    let mut metrics = Metrics::default();
    let mut runs = Vec::new();
    if trace {
        let untraced = cold_once(seed, seconds / 2.0, false)?;
        let traced = cold_once(seed, seconds / 2.0, true)?;
        let rate = |run: &ColdRun| stats::median(&run.round_rates);
        metrics.set(
            "bench.trace_overhead_pct",
            (rate(&untraced) / rate(&traced) - 1.0) * 100.0,
        );
        traced.ledger.report(&mut metrics, traced.requests);
        traced.codec.report(&mut metrics);
        report_spans(&mut metrics, &traced.spans);
        let unique = (gen::COLD_FRESH * traced.round_rates.len()) as f64;
        metrics.set(
            "cache.mapping.misses_per_unique",
            stats::ratio(traced.ledger.mapping_misses as f64, unique),
        );
        runs.push(untraced);
        runs.push(traced);
    } else {
        let run = cold_once(seed, seconds, false)?;
        outcome.setup_s = Some(run.setup_s);
        metrics.set("throughput_per_s", stats::median(&run.round_rates));
        metrics.set("p50_us", stats::median(&run.round_p50s));
        metrics.set("tail_us", stats::median(&run.round_p99s));
        metrics.set("cycles_geomean", run.answers.cycles_geomean());
        metrics.set("peak_rss_mb", run.peak_rss_mb);
        outcome.notes.push(format!(
            "{} rounds of {} requests ({} fresh kernels, window {COLD_WINDOW}); p50/p99 per \
             round, median over rounds",
            run.round_rates.len(),
            stats::ratio(run.requests as f64, run.round_rates.len() as f64),
            gen::COLD_FRESH,
        ));
        outcome.notes.push(format!(
            "tiers over the measured rounds: {} L0 / {} fast hits, {} mapping hits, {} misses, \
             {} disk loads, {} disk stores",
            run.ledger.l0_hits,
            run.ledger.fast_hits,
            run.ledger.mapping_hits,
            run.ledger.mapping_misses,
            run.ledger.persist_loads,
            run.ledger.persist_stores
        ));
        runs.push(run);
    }
    let mut sim_mismatches = 0;
    for run in &runs {
        let verdict = check_answers(&run.fresh, &run.answers);
        outcome.attempted += run.requests + run.answers.missing;
        outcome.failed += verdict.failed;
        sim_mismatches += verdict.sim_mismatches;
        outcome.notes.push(format!(
            "oracle: {} served digest(s) differ from the in-process cold digest, {} simulation \
             answer(s) differ from the interpreter-checked simulation",
            verdict.digest_mismatches, verdict.sim_mismatches
        ));
    }
    metrics.set("sim.mismatches", sim_mismatches as f64);
    metrics.set(
        "bench.failed_share",
        stats::ratio(outcome.failed as f64, outcome.attempted as f64),
    );
    outcome.metrics = metrics;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_interpolate_inside_the_bucket() {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        assert_eq!(histogram_quantile(&buckets, 0.5), 0.0);
        // Four values in [8, 16), four in [16, 32).
        buckets[4] = 4;
        buckets[5] = 4;
        assert_eq!(histogram_quantile(&buckets, 0.25), 12.0);
        assert_eq!(histogram_quantile(&buckets, 0.5), 16.0);
        assert_eq!(histogram_quantile(&buckets, 1.0), 32.0);
        buckets[0] = 8;
        assert_eq!(histogram_quantile(&buckets, 0.5), 0.0);
    }
}
