//! Telemetry primitives for the XSAC pipeline: a phase-timed span clock
//! and log-bucketed histograms, with atomic variants for cross-thread
//! rollups.
//!
//! Two design rules govern everything here:
//!
//! 1. **Observation never changes behaviour.** Profiles and histograms
//!    are plain data next to the values they describe — never inside the
//!    cost structs whose exact equality the differential harnesses pin
//!    (`AccessCost`, `EvalStats`, …). At runtime [`set_enabled`]`(false)`
//!    skips the clock reads, and both modes emit byte-identical session
//!    output.
//! 2. **Zero allocation on the hot path.** [`PhaseProfile`] is a fixed
//!    `[u64; 7]` of nanoseconds, [`Histogram`] a fixed 64-bucket
//!    power-of-two table; recording is a couple of adds. The
//!    [`SpanClock`] charges phase transitions with **one** monotonic
//!    clock read per switch, so an event loop alternating decode/evaluate
//!    pays two reads per event, not four.
//!
//! The wire layer (`xsac-net`) serializes these types itself (sparse
//! bucket encoding, bounds-checked decode); this crate stays
//! dependency-free and knows nothing about frames.

use std::sync::atomic::{AtomicU64, Ordering};

/// A pipeline phase whose wall time a session accounts separately.
///
/// The read path charges `Fetch`/`Decrypt`/`Hash` inside the SOE reader,
/// `Decode`/`Evaluate` in the session event loop; the protect path
/// charges `Encode` (tokenize + skip-index encode), `Decrypt` (the block
/// cipher works both directions — encryption at protect time), `Hash`
/// (digests) and `Io` (ciphertext emission).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Ciphertext transfer: terminal/store → SOE staging.
    Fetch,
    /// Block-cipher work (decryption on the read path, encryption at
    /// protect time).
    Decrypt,
    /// Digest work: SHA-1, Merkle leaf/root hashing.
    Hash,
    /// Skip-index decoding.
    Decode,
    /// Access-control evaluation and output building.
    Evaluate,
    /// Structure encoding at protect time.
    Encode,
    /// Ciphertext emission to the storage sink.
    Io,
}

impl Phase {
    /// Number of phases (the length of a [`PhaseProfile`]).
    pub const COUNT: usize = 7;

    /// All phases, in profile order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Fetch,
        Phase::Decrypt,
        Phase::Hash,
        Phase::Decode,
        Phase::Evaluate,
        Phase::Encode,
        Phase::Io,
    ];

    /// Index of this phase within a profile.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lower-case display name (stable: used in text exposition).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Fetch => "fetch",
            Phase::Decrypt => "decrypt",
            Phase::Hash => "hash",
            Phase::Decode => "decode",
            Phase::Evaluate => "evaluate",
            Phase::Encode => "encode",
            Phase::Io => "io",
        }
    }
}

mod clock {
    use std::sync::atomic::{AtomicBool, Ordering};

    static ENABLED: AtomicBool = AtomicBool::new(true);

    /// Runtime telemetry switch (default on). With telemetry disabled,
    /// [`Tick::now`] skips the clock read and every span records as
    /// zero — the lever the overhead A/B bench flips without
    /// rebuilding.
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Whether the span clock currently reads the clock.
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Raw monotonic stamps. On x86_64 the stamp is the time-stamp
    /// counter — a `rdtsc` costs a few nanoseconds against ~20–25 for a
    /// vDSO `clock_gettime`, and the span clock reads a stamp on every
    /// phase transition of a 128-byte-fragment fetch loop, so the cheap
    /// read is what keeps the whole instrumentation inside its <2%
    /// budget (enforced by the pipeline A/B bench). Ticks are converted
    /// to nanoseconds with a ratio calibrated once, at the first stamp,
    /// against [`std::time::Instant`] — the one-time ~200µs spin happens
    /// *before* the first span starts, never inside one. Invariant TSC
    /// is assumed, as the kernel's own clocksource does on the hardware
    /// this targets; elapsed values saturate at 0 so an anomaly reads as
    /// a zero span, never garbage.
    #[cfg(target_arch = "x86_64")]
    mod raw {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::time::Instant;

        /// Nanoseconds per TSC tick in 32.32 fixed point; 0 until
        /// calibrated.
        static NANOS_PER_TICK_FP: AtomicU64 = AtomicU64::new(0);

        #[inline]
        fn rdtsc() -> u64 {
            // SAFETY: RDTSC is unprivileged, always present on x86_64,
            // and touches no memory.
            unsafe { core::arch::x86_64::_rdtsc() }
        }

        #[inline]
        pub fn stamp() -> u64 {
            if NANOS_PER_TICK_FP.load(Ordering::Relaxed) == 0 {
                calibrate();
            }
            rdtsc()
        }

        #[inline]
        pub fn nanos_between(earlier: u64, later: u64) -> u64 {
            let fp = NANOS_PER_TICK_FP.load(Ordering::Relaxed);
            ((u128::from(later.saturating_sub(earlier)) * u128::from(fp)) >> 32) as u64
        }

        /// Measures the TSC rate against `Instant` over a ~200µs spin;
        /// racing calibrators agree to well under a percent, so the
        /// last store winning is fine.
        #[cold]
        fn calibrate() {
            let i0 = Instant::now();
            let t0 = rdtsc();
            let (ns, ticks) = loop {
                let ns = i0.elapsed().as_nanos() as u64;
                if ns >= 200_000 {
                    break (ns, rdtsc().saturating_sub(t0).max(1));
                }
                std::hint::spin_loop();
            };
            let fp = ((u128::from(ns) << 32) / u128::from(ticks)) as u64;
            NANOS_PER_TICK_FP.store(fp.max(1), Ordering::Relaxed);
        }
    }

    /// Portable fallback: stamps are nanoseconds of a process-global
    /// [`std::time::Instant`].
    #[cfg(not(target_arch = "x86_64"))]
    mod raw {
        use std::sync::OnceLock;
        use std::time::Instant;

        static START: OnceLock<Instant> = OnceLock::new();

        #[inline]
        pub fn stamp() -> u64 {
            START.get_or_init(Instant::now).elapsed().as_nanos() as u64
        }

        #[inline]
        pub fn nanos_between(earlier: u64, later: u64) -> u64 {
            later.saturating_sub(earlier)
        }
    }

    /// A point on the monotonic clock (or nothing, when telemetry is
    /// runtime-disabled).
    #[derive(Clone, Copy, Debug)]
    pub struct Tick(Option<u64>);

    impl Tick {
        /// Reads the clock (one raw stamp when enabled: `rdtsc` on
        /// x86_64, `Instant` elsewhere).
        #[inline]
        pub fn now() -> Tick {
            if enabled() {
                Tick(Some(raw::stamp()))
            } else {
                Tick(None)
            }
        }

        /// Nanoseconds elapsed since this tick (0 when disabled).
        #[inline]
        pub fn elapsed_nanos(&self) -> u64 {
            match self.0 {
                Some(t) => raw::nanos_between(t, raw::stamp()),
                None => 0,
            }
        }

        /// Nanoseconds from `earlier` to `self` (0 when either tick was
        /// taken with telemetry disabled; saturating, never panics on
        /// out-of-order ticks).
        #[inline]
        pub fn since(&self, earlier: &Tick) -> u64 {
            match (self.0, earlier.0) {
                (Some(now), Some(then)) => raw::nanos_between(then, now),
                _ => 0,
            }
        }
    }
}

pub use clock::{enabled, set_enabled, Tick};

/// Per-phase accumulated wall time, in nanoseconds.
///
/// A plain `[u64; 7]` that stays zero while telemetry is disabled. Kept
/// *next to* the byte-level cost structs, never inside them: timings are
/// nondeterministic and the differential suites compare costs exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    nanos: [u64; Phase::COUNT],
}

impl PhaseProfile {
    /// All-zero profile.
    pub fn new() -> PhaseProfile {
        PhaseProfile::default()
    }

    /// Rebuilds a profile from raw per-phase nanoseconds (profile order:
    /// [`Phase::ALL`]) — the wire-decode constructor.
    pub fn from_nanos(nanos: [u64; Phase::COUNT]) -> PhaseProfile {
        PhaseProfile { nanos }
    }

    /// Raw per-phase nanoseconds, in [`Phase::ALL`] order.
    pub fn nanos(&self) -> &[u64; Phase::COUNT] {
        &self.nanos
    }

    /// Accumulated nanoseconds of one phase.
    #[inline]
    pub fn get(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Adds raw nanoseconds to a phase.
    #[inline]
    pub fn add_nanos(&mut self, phase: Phase, nanos: u64) {
        self.nanos[phase.index()] += nanos;
    }

    /// Charges the time elapsed since `since` to `phase` (no-op when the
    /// tick was taken with telemetry off).
    #[inline]
    pub fn record(&mut self, phase: Phase, since: Tick) {
        self.add_nanos(phase, since.elapsed_nanos());
    }

    /// Sums another profile into this one.
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (a, b) in self.nanos.iter_mut().zip(other.nanos.iter()) {
            *a += b;
        }
    }

    /// Total nanoseconds across all phases.
    pub fn total(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Whether nothing was recorded (always true with telemetry disabled).
    pub fn is_zero(&self) -> bool {
        self.nanos.iter().all(|&n| n == 0)
    }
}

/// Phase span clock: charges contiguous stretches of one thread's time to
/// phases with **one** clock read per phase switch.
///
/// ```
/// use xsac_obs::{Phase, PhaseProfile, SpanClock};
/// let mut profile = PhaseProfile::new();
/// let mut clock = SpanClock::start(Phase::Decode);
/// // ... decode work ...
/// clock.switch(&mut profile, Phase::Evaluate);
/// // ... evaluate work ...
/// clock.stop(&mut profile);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SpanClock {
    mark: Tick,
    phase: Phase,
}

impl SpanClock {
    /// Starts timing in `phase` (one clock read).
    #[inline]
    pub fn start(phase: Phase) -> SpanClock {
        SpanClock { mark: Tick::now(), phase }
    }

    /// Charges the span since the last mark to the current phase and
    /// switches to `next` (one clock read; free if `next` is already the
    /// current phase).
    #[inline]
    pub fn switch(&mut self, profile: &mut PhaseProfile, next: Phase) {
        if self.phase != next {
            let now = Tick::now();
            profile.add_nanos(self.phase, now.since(&self.mark));
            self.mark = now;
            self.phase = next;
        }
    }

    /// Charges the final span to the current phase.
    #[inline]
    pub fn stop(self, profile: &mut PhaseProfile) {
        profile.record(self.phase, self.mark);
    }
}

/// A [`PhaseProfile`] shared across threads: per-phase atomic counters
/// the serving layers merge session profiles into.
#[derive(Debug, Default)]
pub struct SharedPhaseProfile {
    nanos: [AtomicU64; Phase::COUNT],
}

impl SharedPhaseProfile {
    /// All-zero shared profile.
    pub fn new() -> SharedPhaseProfile {
        SharedPhaseProfile::default()
    }

    /// Adds raw nanoseconds to a phase.
    pub fn add_nanos(&self, phase: Phase, nanos: u64) {
        if nanos > 0 {
            self.nanos[phase.index()].fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Sums a session profile in.
    pub fn merge(&self, profile: &PhaseProfile) {
        for (slot, &n) in self.nanos.iter().zip(profile.nanos().iter()) {
            if n > 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// A point-in-time copy. Concurrent recorders may be mid-merge; each
    /// phase counter is individually monotone.
    pub fn snapshot(&self) -> PhaseProfile {
        let mut nanos = [0u64; Phase::COUNT];
        for (out, slot) in nanos.iter_mut().zip(self.nanos.iter()) {
            *out = slot.load(Ordering::Relaxed);
        }
        PhaseProfile::from_nanos(nanos)
    }
}

/// Bucket count of [`Histogram`] (one per power of two of `u64`).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Bucket index of a value: 0 for 0, else its bit length clamped to the
/// last bucket — bucket `b ≥ 1` covers `[2^(b-1), 2^b)`.
#[inline]
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()).min(HISTOGRAM_BUCKETS as u32 - 1) as usize
}

/// Upper bound (inclusive) of a bucket's value range.
#[inline]
fn bucket_upper(bucket: usize) -> u64 {
    if bucket >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

/// Log-bucketed (power-of-two) histogram of `u64` samples — latencies in
/// nanoseconds, sizes in bytes.
///
/// Fixed 64-bucket table, so recording is two adds and a max; merging is
/// element-wise addition; quantiles resolve to the containing bucket's
/// upper bound (≤ 2× relative error, exact for the max). `Copy`, so it
/// travels inside the existing stats structs without ceremony.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HISTOGRAM_BUCKETS], sum: 0, max: 0 }
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Rebuilds from raw parts (the wire-decode constructor). `sum` and
    /// `max` are trusted as recorded; counts live in `buckets`.
    pub fn from_parts(buckets: [u64; HISTOGRAM_BUCKETS], sum: u64, max: u64) -> Histogram {
        Histogram { buckets, sum, max }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// Raw bucket counts (index by power of two; see [`Histogram`]).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Sums another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0.0 ..= 1.0`): the upper bound of the bucket
    /// holding the `⌈q·count⌉`-th smallest sample, clamped to the
    /// recorded max. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper(b).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`Histogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// A [`Histogram`] shared across threads (per-bucket atomics; `max` via
/// `fetch_max`). Recording is lock-free; [`AtomicHistogram::snapshot`]
/// produces the mergeable plain form.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// Empty histogram.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy. Buckets are loaded one by one, so a snapshot
    /// taken during concurrent recording may straddle a sample; every
    /// counter is individually monotone across snapshots.
    pub fn snapshot(&self) -> Histogram {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, slot) in buckets.iter_mut().zip(self.buckets.iter()) {
            *out = slot.load(Ordering::Relaxed);
        }
        Histogram::from_parts(
            buckets,
            self.sum.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_order_is_stable() {
        // The wire format and the text exposition both index by this
        // order; reordering the enum would silently corrupt decoded
        // profiles.
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["fetch", "decrypt", "hash", "decode", "evaluate", "encode", "io"]);
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn profile_records_merges_and_roundtrips() {
        let mut a = PhaseProfile::new();
        assert!(a.is_zero());
        a.add_nanos(Phase::Fetch, 5);
        a.add_nanos(Phase::Decode, 7);
        let mut b = PhaseProfile::from_nanos(*a.nanos());
        assert_eq!(a, b);
        b.merge(&a);
        assert_eq!(b.get(Phase::Fetch), 10);
        assert_eq!(b.get(Phase::Decode), 14);
        assert_eq!(b.total(), 24);
        assert!(!b.is_zero());
    }

    #[test]
    fn span_clock_charges_each_phase() {
        let mut profile = PhaseProfile::new();
        let mut clock = SpanClock::start(Phase::Decode);
        std::hint::black_box((0..100).sum::<u64>());
        clock.switch(&mut profile, Phase::Evaluate);
        // Re-switching to the current phase is free and charges nothing
        // extra to a wrong slot.
        clock.switch(&mut profile, Phase::Evaluate);
        std::hint::black_box((0..100).sum::<u64>());
        clock.stop(&mut profile);
        if enabled() {
            // Monotonic clock at nanosecond grain: both spans saw work.
            assert_eq!(
                profile.total(),
                profile.get(Phase::Decode) + profile.get(Phase::Evaluate),
                "only the two timed phases may be charged"
            );
        }
    }

    #[test]
    fn runtime_disable_records_zero() {
        set_enabled(false);
        let t = Tick::now();
        std::hint::black_box((0..1000).sum::<u64>());
        let n = t.elapsed_nanos();
        set_enabled(true);
        assert_eq!(n, 0, "disabled ticks must not measure");
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        assert_eq!(h.mean(), 50);
        // Bucketed quantiles land on power-of-two upper bounds: the 50th
        // sample (value 50) lives in bucket [32, 64).
        assert_eq!(h.p50(), 63);
        assert!(h.p90() >= 90 && h.p90() <= 100, "p90 = {}", h.p90());
        // p99/max clamp to the true maximum, not the bucket bound.
        assert_eq!(h.p99(), 100);
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn histogram_merge_is_elementwise() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 10, 100] {
            a.record(v);
        }
        for v in [1000u64, 10_000] {
            b.record(v);
        }
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.count(), 5);
        assert_eq!(m.sum(), a.sum() + b.sum());
        assert_eq!(m.max(), 10_000);
        let rt = Histogram::from_parts(*m.buckets(), m.sum(), m.max());
        assert_eq!(rt, m);
    }

    #[test]
    fn atomic_variants_match_plain() {
        let h = AtomicHistogram::new();
        let p = SharedPhaseProfile::new();
        let mut expect_h = Histogram::new();
        let mut expect_p = PhaseProfile::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (h, p) = (&h, &p);
                s.spawn(move || {
                    for i in 0..256u64 {
                        h.record(t * 1000 + i);
                        let mut local = PhaseProfile::new();
                        local.add_nanos(Phase::ALL[(i % 7) as usize], i);
                        p.merge(&local);
                    }
                });
            }
        });
        for t in 0..4u64 {
            for i in 0..256u64 {
                expect_h.record(t * 1000 + i);
                expect_p.add_nanos(Phase::ALL[(i % 7) as usize], i);
            }
        }
        assert_eq!(h.snapshot(), expect_h);
        assert_eq!(p.snapshot(), expect_p);
    }
}
