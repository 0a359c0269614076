//! What every workload shares: the run configuration, the closed-loop
//! runner, per-thread tallies, the session/publication helpers that
//! record spans around each layer call, and the report.

use crate::trace::{Ledger, SpanId, Tracer};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use xsac_core::output::reassemble_to_string;
use xsac_crypto::chunk::ChunkLayout;
use xsac_crypto::{IntegrityScheme, TripleDes};
use xsac_net::{ClientConfig, DocRegistry, RemoteStats, ServerHandle};
use xsac_obs::Phase;
use xsac_soe::{CompilerSnapshot, DocMeta, ServerDoc, SessionError, SessionResult};
use xsac_xml::{Document, TagDict};

/// Client-side `RemoteStore` window: a fraction of the ciphertext of the
/// benchmark's documents (~200 KB), so pending-subtree readbacks refetch.
pub const CLIENT_WINDOW: usize = 32 << 10;
/// Chunks per `GetChunks` round trip (and read-ahead depth).
pub const CLIENT_BATCH: usize = 4;

pub fn key() -> TripleDes {
    TripleDes::new(*b"perfbench-key-24-bytes!!")
}

pub fn layout() -> ChunkLayout {
    ChunkLayout::default()
}

pub fn client_config() -> ClientConfig {
    ClientConfig {
        window_bytes: CLIENT_WINDOW,
        batch_chunks: CLIENT_BATCH,
        ..ClientConfig::default()
    }
}

/// One invocation's settings.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// XML text size of every generated Hospital document.
    pub doc_bytes: usize,
    /// This run's private directory for published files.
    pub dir: PathBuf,
}

/// Timed set-ups per run; `setup_s` is their median. Odd, so that a
/// `--trace 1` run has as many traced slices as untraced ones.
pub const SETUPS: usize = 21;

/// One thread's outcome over one measured slice.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs: delivered views or publications that differ from
    /// their oracle, and sessions the SOE aborted on integrity or decoding.
    pub mismatches: u64,
    pub errors: BTreeMap<String, u64>,
    /// Benchmark-side time spent inside the loop (output checks, version
    /// lookups, trace attributes), kept off the loop's clock.
    pub bench_ns: u64,
    /// Wall time of every correct session, raw.
    pub session_ns: Vec<u64>,
    /// When each correct session's timed interval ended, on the loop's
    /// clock (wall time less `bench_ns` by then).
    pub session_done: Vec<Instant>,
    /// Correct sessions per second in each slice of the loop.
    pub session_rates: Vec<f64>,
    pub session_wire_bytes: u64,
    /// Wall time of every correct publication, raw.
    pub publish_ns: Vec<u64>,
    /// Source XML bytes of each correct publication.
    pub publish_bytes: Vec<u64>,
    /// On-clock loop time of the publishing thread (0 for set-ups).
    pub publish_clock_ns: u64,
}

impl Tally {
    pub fn fail(&mut self, kind: impl Display) {
        self.failed += 1;
        *self.errors.entry(kind.to_string()).or_default() += 1;
    }

    pub fn mismatch(&mut self, what: &str) {
        self.mismatches += 1;
        self.fail(format!("{what} differs from its oracle"));
    }

    /// Books a session the SOE aborted. An integrity or decoding abort
    /// means wrong bytes were served, so it is a mismatch as well.
    pub fn session_failed(&mut self, e: SessionError) {
        if matches!(e, SessionError::Integrity(_) | SessionError::Decode(_)) {
            self.mismatches += 1;
        }
        self.fail(e);
    }

    /// Runs benchmark-side work `f` off the loop's clock.
    pub fn off_clock<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.bench_ns += t.elapsed().as_nanos() as u64;
        out
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.bench_ns += other.bench_ns;
        for (k, v) in other.errors {
            *self.errors.entry(k).or_default() += v;
        }
        self.session_ns.extend(other.session_ns);
        self.session_done.extend(other.session_done);
        self.session_rates.extend(other.session_rates);
        self.session_wire_bytes += other.session_wire_bytes;
        self.publish_ns.extend(other.publish_ns);
        self.publish_bytes.extend(other.publish_bytes);
        self.publish_clock_ns += other.publish_clock_ns;
    }

    /// Checks a delivered view against its oracle, off the loop's clock,
    /// and books the session, whose timed interval of `ns` ended at `end`.
    pub fn check_view(
        &mut self,
        dict: &TagDict,
        res: &SessionResult,
        expected: &str,
        (end, ns): (Instant, u64),
        wire: u64,
    ) {
        let done = end.checked_sub(Duration::from_nanos(self.bench_ns)).unwrap_or(end);
        if self.off_clock(|| reassemble_to_string(dict, &res.log) == expected) {
            self.session_ns.push(ns);
            self.session_done.push(done);
            self.session_wire_bytes += wire;
        } else {
            self.mismatch("view");
        }
    }
}

/// A live system after set-up: the server plus one state per thread.
pub struct Live<T> {
    pub server: ServerHandle,
    pub threads: Vec<T>,
}

/// A workload: a timed set-up and one closed-loop step per thread.
pub trait Workload: Sync {
    type Thread: Send;

    /// The workload's input sizes, one line.
    fn describe(&self) -> String;

    /// One set-up of the program: initial publications, server spawn,
    /// client connects and warm compiles. Publications it makes are
    /// booked in `pubs`; published files go under `dir`.
    fn setup(&self, dir: &Path, pubs: &mut Tally) -> Result<Live<Self::Thread>, String>;

    /// One request of one thread's closed loop.
    fn step(&self, thread: &mut Self::Thread, tr: &mut Tracer, tally: &mut Tally);
}

/// Server-side counters sampled around traced slices.
pub const SERVER_COUNTERS: [&str; 8] = [
    "pool_fetches",
    "pool_refetches",
    "pool_evictions",
    "pool_resident_peak",
    "doc_opens",
    "doc_closes",
    "admission_rejections",
    "fault_frames",
];

fn server_counters(server: &ServerHandle) -> [u64; 8] {
    let s = server.service_snapshot();
    let r = &s.registry;
    [
        r.pool_fetches,
        r.pool_refetches,
        r.pool_evictions,
        r.resident_bytes_peak,
        r.doc_opens,
        r.doc_closes,
        s.admission_rejections,
        s.fault_frames,
    ]
}

/// The traced slices of a `--trace 1` run.
pub struct Traced {
    pub tally: Tally,
    pub wall_s: f64,
    pub ledger: Ledger,
    /// [`SERVER_COUNTERS`] over the traced slices: deltas, except the
    /// residency peak, which is a high-water mark.
    pub counters: BTreeMap<&'static str, u64>,
}

/// Everything one invocation measured.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// Resident memory after inputs and oracles were built, in kB: the
    /// base of `peak_rss_mb` (`None` if the peak could not be reset).
    pub rss_base_kb: Option<u64>,
    /// Publications made during the set-ups.
    pub setup_pubs: Tally,
    /// The untraced loop (the whole run with `--trace 0`, the untraced
    /// slices with `--trace 1`).
    pub plain: Tally,
    pub plain_wall_s: f64,
    pub traced: Option<Traced>,
}

/// Runs `w` for [`SETUPS`] timed set-ups and the closed loop between
/// them: the first set-up stays live, and one more follows each of the
/// loop's `SETUPS - 1` slices (and is shut down again), so set-up and
/// loop samples spread alike over the run. With `cfg.trace`, untraced
/// and traced slices alternate, so the two throughputs give the tracing
/// overhead with a drift in the host's speed on both sides.
pub fn run<W: Workload>(w: &W, cfg: &Config) -> Result<Outcome, String> {
    xsac_obs::set_enabled(false);
    // The inputs and oracles exist by now: the memory peak counts from here.
    let rss_base_kb = crate::report::reset_peak_rss();
    let mut setup_s = Vec::new();
    let mut setup_pubs = Tally::default();
    let mut timed_setup = |k: usize| -> Result<Live<W::Thread>, String> {
        let dir = cfg.dir.join(format!("setup{k}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let t = Instant::now();
        let live = w.setup(&dir, &mut setup_pubs)?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok(live)
    };
    let Live { server, threads } = timed_setup(0)?;

    // One long-lived thread per loop: each runs a slice when told to and
    // hands back its tally, so the threads (and their allocator arenas)
    // stay the same all run long.
    let epoch = Instant::now();
    let slice = Duration::from_secs_f64(cfg.seconds / (SETUPS - 1) as f64);
    let (mut plain, mut plain_wall_s) = (Tally::default(), 0.0);
    let (mut traced, mut traced_wall_s) = (Tally::default(), 0.0);
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (spans, slices) = std::thread::scope(|s| {
        let (done_tx, done_rx) = mpsc::channel::<Tally>();
        let workers: Vec<_> = threads
            .into_iter()
            .enumerate()
            .map(|(i, mut state)| {
                let (go_tx, go_rx) = mpsc::channel::<(Instant, bool)>();
                let done_tx = done_tx.clone();
                let worker = s.spawn(move || {
                    let mut tr = Tracer::new(epoch, i);
                    while let Ok((start, on)) = go_rx.recv() {
                        tr.set_on(on);
                        let tally = run_slice(w, &mut state, &mut tr, start, start + slice);
                        done_tx.send(tally).expect("the runner waits for every slice");
                    }
                    // Clients disconnect before the server stops.
                    drop(state);
                    tr.into_spans()
                });
                (go_tx, worker)
            })
            .collect();
        let mut slices = Ok(());
        for k in 1..SETUPS {
            let on = cfg.trace && k % 2 == 0;
            xsac_obs::set_enabled(on);
            let before = server_counters(&server);
            let start = Instant::now();
            workers.iter().for_each(|(go, _)| go.send((start, on)).expect("worker alive"));
            let mut tally = Tally::default();
            for _ in &workers {
                tally.merge(done_rx.recv().expect("worker alive"));
            }
            let wall = start.elapsed().as_secs_f64();
            xsac_obs::set_enabled(false);
            slice_rate(&mut tally);
            if on {
                traced.merge(tally);
                traced_wall_s += wall;
                let after = server_counters(&server);
                for (i, name) in SERVER_COUNTERS.into_iter().enumerate() {
                    let v = counters.entry(name).or_default();
                    *v = if name == "pool_resident_peak" {
                        after[i]
                    } else {
                        *v + after[i].saturating_sub(before[i])
                    };
                }
            } else {
                plain.merge(tally);
                plain_wall_s += wall;
            }
            slices = timed_setup(k).and_then(shutdown);
            if slices.is_err() {
                break;
            }
        }
        let spans: Vec<_> = workers
            .into_iter()
            .map(|(go, worker)| {
                drop(go);
                worker.join().expect("loop thread")
            })
            .collect();
        (spans, slices)
    });
    let stopped = server.shutdown().map_err(|e| format!("server shutdown: {e}"));
    slices.and(stopped)?;
    let traced = cfg.trace.then(|| Traced {
        tally: traced,
        wall_s: traced_wall_s,
        ledger: Ledger::new(spans),
        counters,
    });
    Ok(Outcome { setup_s, rss_base_kb, setup_pubs, plain, plain_wall_s, traced })
}

fn shutdown<T>(live: Live<T>) -> Result<(), String> {
    // Clients disconnect before the server stops.
    drop(live.threads);
    live.server.shutdown().map_err(|e| format!("server shutdown: {e}"))
}

/// One thread's closed loop from `start` until `deadline`.
fn run_slice<W: Workload>(
    w: &W,
    state: &mut W::Thread,
    tr: &mut Tracer,
    start: Instant,
    deadline: Instant,
) -> Tally {
    let mut tally = Tally::default();
    while Instant::now() < deadline {
        w.step(state, tr, &mut tally);
    }
    if !tally.publish_ns.is_empty() {
        let wall = start.elapsed().as_nanos() as u64;
        tally.publish_clock_ns = wall.saturating_sub(tally.bench_ns);
    }
    tally
}

/// Books the slice's session rate: completions after its first one over
/// the loop-clock time they span, so the figure is not quantized to
/// whole sessions per slice.
fn slice_rate(tally: &mut Tally) {
    let done = &mut tally.session_done;
    done.sort_unstable();
    if let (Some(first), Some(last)) = (done.first(), done.last()) {
        let span = last.duration_since(*first).as_secs_f64();
        if span > 0.0 {
            tally.session_rates.push((done.len() - 1) as f64 / span);
        }
    }
    done.clear();
}

/// Counters of one session, attached to its `soe.serve` span.
pub fn session_attrs(
    res: &SessionResult,
    before: &RemoteStats,
    after: &RemoteStats,
    compiler: (CompilerSnapshot, CompilerSnapshot),
) -> Vec<(&'static str, u64)> {
    let p = &res.phases;
    let (c0, c1) = compiler;
    vec![
        ("fetch_ns", p.get(Phase::Fetch)),
        ("decrypt_ns", p.get(Phase::Decrypt)),
        ("hash_ns", p.get(Phase::Hash)),
        ("decode_ns", p.get(Phase::Decode)),
        ("evaluate_ns", p.get(Phase::Evaluate)),
        ("phases_ns", p.total()),
        ("token_ops", res.stats.token_ops as u64),
        ("bytes_to_soe", res.cost.bytes_to_soe),
        ("bytes_decrypted", res.cost.bytes_decrypted),
        ("bytes_hashed", res.cost.bytes_hashed),
        ("bytes_refetched", res.cost.bytes_refetched),
        ("result_bytes", res.result_bytes as u64),
        ("handles_peak", res.handles_peak as u64),
        ("round_trips", after.round_trips - before.round_trips),
        ("chunks_fetched", after.chunks_fetched - before.chunks_fetched),
        ("chunks_refetched", after.chunks_refetched - before.chunks_refetched),
        ("wire_bytes", after.wire_bytes - before.wire_bytes),
        ("reconnects", after.reconnects - before.reconnects),
        ("retried_chunks", after.retried_chunks - before.retried_chunks),
        ("rtt_sum_ns", after.latency.sum() - before.latency.sum()),
        ("rtt_count", after.latency.count() - before.latency.count()),
        ("compiles", (c1.compiles - c0.compiles) as u64),
        ("compile_cache_hits", (c1.cache_hits - c0.cache_hits) as u64),
        ("rules_in", (c1.rules_in - c0.rules_in) as u64),
        ("rules_dropped", (c1.rules_dropped - c0.rules_dropped) as u64),
    ]
}

/// Runs one session inside a `soe.serve` span.
pub fn serve_span(
    tr: &mut Tracer,
    serve: impl FnOnce() -> Result<SessionResult, SessionError>,
) -> (SpanId, Result<SessionResult, SessionError>) {
    let id = tr.begin("soe.serve");
    let res = serve();
    tr.end(id);
    (id, res)
}

/// Publishes a version to a file and registers it as live: parse the
/// XML text, protect it (ECB-MHT) straight to `path`, `insert_file`.
/// Returns the registered metadata.
pub fn publish_file(
    tr: &mut Tracer,
    registry: &DocRegistry,
    doc_id: &str,
    xml: &str,
    path: &Path,
) -> Result<DocMeta, String> {
    let doc = tr.span("xml.parse", || Document::parse(xml)).map_err(|e| format!("parse: {e}"))?;
    let span = tr.begin("soe.publish");
    let prepared = ServerDoc::prepare_to_store_with_stats(
        &doc,
        &key(),
        IntegrityScheme::EcbMht,
        layout(),
        path,
        CLIENT_WINDOW,
    )
    .map(|(served, stats)| (served.meta(), stats));
    tr.end(span);
    let (meta, stats) = prepared.map_err(|e| format!("protect: {e}"))?;
    let p = &stats.phases;
    tr.attach(
        span,
        &[
            ("encode_ns", p.get(Phase::Encode)),
            ("encrypt_ns", p.get(Phase::Decrypt)),
            ("hash_ns", p.get(Phase::Hash)),
            ("io_ns", p.get(Phase::Io)),
            ("encoded_bytes", stats.encoded_len as u64),
        ],
    );
    tr.span("net.insert_file", || registry.insert_file(doc_id, meta.clone(), path));
    Ok(meta)
}

/// Publishes a version as a resident (in-memory) tenant — parse the XML
/// text, protect it in memory, `insert` — and books it in `pubs`.
pub fn publish_resident(
    pubs: &mut Tally,
    registry: &DocRegistry,
    doc_id: &str,
    xml: &str,
    scheme: IntegrityScheme,
) -> Result<(), String> {
    pubs.attempted += 1;
    let t = Instant::now();
    let doc = Document::parse(xml).map_err(|e| format!("parse: {e}"))?;
    registry.insert(doc_id, ServerDoc::prepare(&doc, &key(), scheme, layout()));
    pubs.publish_ns.push(t.elapsed().as_nanos() as u64);
    pubs.publish_bytes.push(xml.len() as u64);
    Ok(())
}
