//! Turns an [`Outcome`] into named metrics: the end-to-end set (untraced
//! run) or the per-layer set (traced slices), printed with units and
//! sample counts, and the one-line JSON result.

use crate::bench::{Outcome, Tally};
use crate::trace::Ledger;
use std::fmt::Write as _;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    // A ratio over an empty set reads 0, never NaN.
    Metric { name, unit, value: if value.is_finite() { value } else { 0.0 } }
}

/// Rank (1-based) of the nearest-rank `q` quantile of `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Exact nearest-rank order statistic of sorted raw samples: the
/// smallest value with at least `q` of the samples at or below it.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    sorted.get(rank(sorted.len(), q) - 1).copied().unwrap_or(0)
}

/// Samples strictly beyond the nearest-rank `q` quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

fn median_f(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

extern "C" {
    /// glibc: hands free heap pages back to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// A `kB` field of `/proc/self/status`.
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// Returns free heap pages to the kernel and resets the process's memory
/// high-water mark (VmHWM) to its current resident set, which it returns
/// in kB; `None` if the mark cannot be reset.
pub fn reset_peak_rss() -> Option<u64> {
    // SAFETY: malloc_trim only releases memory no allocation holds.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").ok()?;
    status_kb("VmRSS:")
}

/// Peak resident memory above `base_kb` (the whole VmHWM without one),
/// in MB.
fn peak_rss_mb(base_kb: Option<u64>) -> f64 {
    let hwm = status_kb("VmHWM:").unwrap_or(0);
    hwm.saturating_sub(base_kb.unwrap_or(0)) as f64 * 1024.0 / 1e6
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The publications the publish metrics describe: the loop's, or the
/// set-ups' for a workload whose loop publishes nothing.
fn publications<'a>(o: &'a Outcome, loop_tally: &'a Tally) -> (&'a Tally, &'static str) {
    if loop_tally.publish_ns.is_empty() {
        (&o.setup_pubs, "set-up publications")
    } else {
        (loop_tally, "loop publications")
    }
}

/// Median of the loop's per-slice session rates, and source megabytes
/// published over the publisher's on-clock loop time (over the time
/// spent publishing, for set-up publications).
fn throughputs(t: &Tally) -> (f64, f64) {
    let bytes: u64 = t.publish_bytes.iter().sum();
    let ns = match t.publish_clock_ns {
        0 => t.publish_ns.iter().sum(),
        clock => clock,
    };
    (median_f(&t.session_rates), bytes as f64 / 1e6 / (ns as f64 / 1e9))
}

/// End-to-end metrics of the untraced loop; `notes` gets the sample
/// counts and the failure breakdown.
pub fn end_to_end(o: &Outcome, notes: &mut String) -> Vec<Metric> {
    let t = &o.plain;
    let mut sessions = t.session_ns.clone();
    sessions.sort_unstable();
    let (pubs, pub_source) = publications(o, t);
    let mut publish = pubs.publish_ns.clone();
    publish.sort_unstable();
    let n = sessions.len();
    let (sessions_per_s, _) = throughputs(t);
    let (_, publish_mb_per_s) = throughputs(pubs);
    let _ = writeln!(
        notes,
        "sessions: {n} correct in {:.3} s; p90 has {} samples beyond it; p99 {:.4} ms with {} beyond it",
        o.plain_wall_s,
        beyond(n, 0.90),
        ms(quantile(&sessions, 0.99)),
        beyond(n, 0.99)
    );
    let _ = writeln!(
        notes,
        "publications: {} ({pub_source}); p90 {:.4} ms with {} samples beyond it",
        publish.len(),
        ms(quantile(&publish, 0.90)),
        beyond(publish.len(), 0.90)
    );
    let _ = writeln!(notes, "set-ups: {} timed, median reported", o.setup_s.len());
    let _ = match o.rss_base_kb {
        Some(kb) => writeln!(notes, "peak_rss_mb counts above {kb} kB resident after the inputs"),
        None => writeln!(notes, "peak_rss_mb is the whole VmHWM: the mark could not be reset"),
    };
    failures(notes, t);
    vec![
        m("session_p50_ms", "ms", ms(quantile(&sessions, 0.50))),
        m("session_p90_ms", "ms", ms(quantile(&sessions, 0.90))),
        m("sessions_per_s", "1/s", sessions_per_s),
        m("wire_kb_per_session", "KiB", t.session_wire_bytes as f64 / 1024.0 / n as f64),
        m("publish_p50_ms", "ms", ms(quantile(&publish, 0.50))),
        m("publish_mb_per_s", "MB/s", publish_mb_per_s),
        m("setup_s", "s", median_f(&o.setup_s)),
        m("peak_rss_mb", "MB", peak_rss_mb(o.rss_base_kb)),
    ]
}

fn failures(notes: &mut String, t: &Tally) {
    let ratio = if t.attempted == 0 { 0.0 } else { t.failed as f64 / t.attempted as f64 };
    let _ = writeln!(notes, "failed_ratio {ratio} ({} of {} operations)", t.failed, t.attempted);
    for (kind, count) in &t.errors {
        let _ = writeln!(notes, "failure: {count} × {kind}");
    }
}

/// Per-layer metrics of the traced slices. Session metrics are per
/// session (`soe.serve` span), publish metrics per publication
/// (`soe.publish` span); counters are deltas over the traced slices.
pub fn per_layer(o: &Outcome, notes: &mut String) -> Vec<Metric> {
    let crate::bench::Traced { tally: t, wall_s: wall, ledger, counters } =
        o.traced.as_ref().expect("traced run");
    let serve = ledger.get("soe.serve");
    let publish = ledger.get("soe.publish");
    let sessions = serve.count as f64;
    let pubs = publish.count as f64;
    let s = |key: &str| ledger.attr("soe.serve", key) as f64;
    let p = |key: &str| ledger.attr("soe.publish", key) as f64;
    let span_ms = |name: &str, per: f64| ledger.get(name).total_ns as f64 / 1e6 / per;
    let c = |key: &str| counters.get(key).copied().unwrap_or(0) as f64;

    let (plain_sps, plain_mbps) = throughputs(&o.plain);
    let (traced_sps, traced_mbps) = throughputs(t);
    let overhead =
        |plain: f64, traced: f64| if plain > 0.0 { (plain - traced) / plain * 100.0 } else { 0.0 };
    let _ = writeln!(
        notes,
        "traced: {} sessions, {} publications in {wall:.3} s; untraced slices {plain_sps:.2} sessions/s, traced {traced_sps:.2}",
        serve.count, publish.count
    );
    failures(notes, t);
    self_times(notes, ledger);

    vec![
        m("xml.parse_ms", "ms", span_ms("xml.parse", pubs)),
        m("xpath.parse_ms", "ms", span_ms("xpath.parse", sessions)),
        m("core.compile_ms", "ms", span_ms("core.compile", sessions)),
        m("core.compiles", "count/session", s("compiles") / sessions),
        m("core.compile_cache_hits", "count/session", s("compile_cache_hits") / sessions),
        m("core.rules_in", "count/session", s("rules_in") / sessions),
        m("core.rules_dropped", "count/session", s("rules_dropped") / sessions),
        m("core.evaluate_ms", "ms", s("evaluate_ns") / 1e6 / sessions),
        m("core.token_ops", "count/session", s("token_ops") / sessions),
        m("index.decode_ms", "ms", s("decode_ns") / 1e6 / sessions),
        m("index.encode_ms", "ms", p("encode_ns") / 1e6 / pubs),
        m("crypto.fetch_ms", "ms", s("fetch_ns") / 1e6 / sessions),
        m("crypto.decrypt_ms", "ms", s("decrypt_ns") / 1e6 / sessions),
        m("crypto.hash_ms", "ms", s("hash_ns") / 1e6 / sessions),
        m("crypto.decrypt_ns_per_byte", "ns/B", s("decrypt_ns") / s("bytes_decrypted")),
        m("crypto.bytes_to_soe", "B/session", s("bytes_to_soe") / sessions),
        m("crypto.bytes_decrypted", "B/session", s("bytes_decrypted") / sessions),
        m("crypto.bytes_hashed", "B/session", s("bytes_hashed") / sessions),
        m("crypto.bytes_refetched", "B/session", s("bytes_refetched") / sessions),
        m("crypto.protect_encrypt_ms", "ms", p("encrypt_ns") / 1e6 / pubs),
        m("crypto.protect_hash_ms", "ms", p("hash_ns") / 1e6 / pubs),
        m("crypto.store_io_ms", "ms", p("io_ns") / 1e6 / pubs),
        m("crypto.pool_fetches", "count/session", c("pool_fetches") / sessions),
        m("crypto.pool_refetch_ratio", "ratio", c("pool_refetches") / c("pool_fetches")),
        m("crypto.pool_evictions", "count/session", c("pool_evictions") / sessions),
        m("crypto.pool_resident_peak_kb", "KiB", c("pool_resident_peak") / 1024.0),
        m("soe.serve_ms", "ms", span_ms("soe.serve", sessions)),
        m("soe.unattributed_ms", "ms", (serve.total_ns as f64 - s("phases_ns")) / 1e6 / sessions),
        m("soe.useful_byte_ratio", "ratio", s("result_bytes") / s("bytes_to_soe")),
        m("soe.handles_peak", "count", ledger.attr_max("soe.serve", "handles_peak") as f64),
        m("soe.publish_ms", "ms", span_ms("soe.publish", pubs)),
        m("net.connect_ms", "ms", span_ms("net.connect", sessions)),
        m("net.round_trips", "count/session", s("round_trips") / sessions),
        m("net.chunks_fetched", "count/session", s("chunks_fetched") / sessions),
        m("net.chunks_refetched", "count/session", s("chunks_refetched") / sessions),
        m("net.rtt_mean_us", "us", s("rtt_sum_ns") / 1e3 / s("rtt_count")),
        m("net.reconnects", "count", s("reconnects")),
        m("net.retried_chunks", "count", s("retried_chunks")),
        m("net.admission_rejections", "count", c("admission_rejections")),
        m("net.fault_frames", "count", c("fault_frames")),
        m("net.doc_opens", "count/session", c("doc_opens") / sessions),
        m("net.doc_closes", "count/session", c("doc_closes") / sessions),
        m("net.insert_file_us", "us", span_ms("net.insert_file", pubs) * 1e3),
        m("obs.session_overhead_pct", "%", overhead(plain_sps, traced_sps)),
        m(
            "obs.publish_overhead_pct",
            "%",
            if t.publish_ns.is_empty() { 0.0 } else { overhead(plain_mbps, traced_mbps) },
        ),
    ]
}

/// Per span name: count, total and self time (span minus its children).
fn self_times(notes: &mut String, ledger: &Ledger) {
    let _ = writeln!(notes, "{:<18} {:>8} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
    for (name, t) in &ledger.by_name {
        let _ = writeln!(
            notes,
            "{name:<18} {:>8} {:>12.3} {:>12.3}",
            t.count,
            ms(t.total_ns),
            ms(t.self_ns)
        );
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn json_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", x.name, x.value, x.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// The human-readable block: one metric a line, with its unit.
pub fn print_block(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("# {title}\n");
    for x in metrics {
        let _ = writeln!(out, "#   {:<30} {:>16.6} {}", x.name, x.value, x.unit);
    }
    out
}
