//! Serialization and exposition of the [`ServiceSnapshot`]: the
//! payload of the wire `Stats` frame, a Prometheus-style text render
//! for scraping, and a dependency-free JSON render for tooling.
//!
//! Every scalar counter is named once, in one table per row kind
//! ([`DocRow`], [`RegistrySnapshot`], [`ServiceSnapshot`]): its
//! Prometheus series name plus the row field behind it, whose name is
//! also the counter's flat JSON key. The wire codec and both renders
//! iterate those tables, so the three surfaces cannot drift apart.
//!
//! The binary encoding is **versioned** ([`SNAPSHOT_VERSION`]) and
//! decoded with the same hostile-input discipline as the rest of the
//! wire layer: every read is bounds-checked through the frame
//! cursor, trailing bytes are rejected, and structural nonsense
//! (an unknown version, an out-of-range histogram bucket, indices out
//! of order) is a typed [`WireError::Malformed`] — never a panic or a
//! silent misread. Histograms travel **sparse** (only non-zero
//! buckets), so an idle service's snapshot stays small even though a
//! [`Histogram`] spans 64 buckets.
//!
//! The service-wide compiler counters, phase totals and request latency
//! are not stored or shipped: they are the merge of the per-doc rows,
//! [`RegistrySnapshot::total`].

use crate::registry::{DocRow, RegistrySnapshot};
use crate::server::ServiceSnapshot;
use crate::wire::{get_profile, put_profile, put_str, put_u32, put_u64, Cursor, WireError};
use std::fmt::Write as _;
use xsac_obs::{Histogram, Phase, HISTOGRAM_BUCKETS};

/// Version byte leading every serialized snapshot.
pub const SNAPSHOT_VERSION: u8 = 1;

/// One scalar counter of a snapshot row kind `R`.
pub(crate) struct Counter<R> {
    /// Prometheus series name.
    pub(crate) name: &'static str,
    /// JSON key: the row field's name.
    pub(crate) key: &'static str,
    /// Per-doc counters only: whether the service-wide sum over the rows
    /// is exposed too, as the same series without `doc_`.
    pub(crate) rolls_up: bool,
    pub(crate) get: fn(&R) -> u64,
    pub(crate) set: fn(&mut R, u64),
}

macro_rules! counter {
    ($name:literal, $field:ident $(, $rolls_up:ident)?) => {
        Counter {
            name: $name,
            key: stringify!($field),
            rolls_up: counter!(@rolls_up $($rolls_up)?),
            get: |r| r.$field,
            set: |r, v| r.$field = v,
        }
    };
    (@rolls_up) => { false };
    (@rolls_up rolls_up) => { true };
}

/// Per-document counters, in wire order. The compiler counters are
/// reported by clients and roll up into service-wide series.
pub(crate) const DOC_COUNTERS: &[Counter<DocRow>] = &[
    counter!("xsac_doc_requests_total", requests),
    counter!("xsac_doc_chunks_served_total", chunks_served),
    counter!("xsac_doc_bytes_served_total", bytes_served),
    counter!("xsac_doc_fault_frames_total", fault_frames),
    counter!("xsac_doc_opens", opens),
    counter!("xsac_doc_closes", closes),
    counter!("xsac_doc_policy_compiles_total", policy_compiles, rolls_up),
    counter!("xsac_doc_policy_cache_hits_total", policy_cache_hits, rolls_up),
    counter!("xsac_doc_rules_minimized_total", rules_minimized, rolls_up),
];

/// Registry lifecycle and shared-pool counters, in wire order.
const REGISTRY_COUNTERS: &[Counter<RegistrySnapshot>] = &[
    counter!("xsac_doc_opens_total", doc_opens),
    counter!("xsac_doc_closes_total", doc_closes),
    counter!("xsac_unknown_doc_rejections_total", unknown_doc_rejections),
    counter!("xsac_pool_budget_bytes", budget_bytes),
    counter!("xsac_pool_resident_bytes", resident_bytes_now),
    counter!("xsac_pool_resident_bytes_peak", resident_bytes_peak),
    counter!("xsac_pool_fetches_total", pool_fetches),
    counter!("xsac_pool_refetches_total", pool_refetches),
    counter!("xsac_pool_evictions_total", pool_evictions),
    counter!("xsac_pool_purged_chunks_total", pool_purged_chunks),
];

/// Service-level transport counters, in wire order.
const SERVICE_COUNTERS: &[Counter<ServiceSnapshot>] = &[
    counter!("xsac_connections_total", connections),
    counter!("xsac_requests_total", requests),
    counter!("xsac_chunks_served_total", chunks_served),
    counter!("xsac_bytes_served_total", bytes_served),
    counter!("xsac_fault_frames_total", fault_frames),
    counter!("xsac_slow_peer_evictions_total", slow_peer_evictions),
    counter!("xsac_budget_evictions_total", budget_evictions),
    counter!("xsac_admission_rejections_total", admission_rejections),
];

/// Serializes a snapshot into the `Stats` frame payload.
pub fn encode_snapshot(snap: &ServiceSnapshot) -> Vec<u8> {
    fn put_counters<R>(out: &mut Vec<u8>, table: &[Counter<R>], row: &R) {
        for c in table {
            put_u64(out, (c.get)(row));
        }
    }
    let mut out = vec![SNAPSHOT_VERSION];
    let r = &snap.registry;
    put_u32(&mut out, u32::try_from(r.docs.len()).expect("doc count fits u32"));
    for d in &r.docs {
        put_str(&mut out, &d.doc_id);
        out.push(d.open as u8);
        out.push(d.lazy as u8);
        put_counters(&mut out, DOC_COUNTERS, d);
        put_profile(&mut out, &d.phases);
        put_histogram(&mut out, &d.request_latency);
    }
    put_counters(&mut out, REGISTRY_COUNTERS, r);
    put_counters(&mut out, SERVICE_COUNTERS, snap);
    out
}

/// Decodes a `Stats` frame payload produced by [`encode_snapshot`].
pub fn decode_snapshot(body: &[u8]) -> Result<ServiceSnapshot, WireError> {
    fn get_counters<R>(
        c: &mut Cursor<'_>,
        table: &[Counter<R>],
        row: &mut R,
    ) -> Result<(), WireError> {
        for counter in table {
            (counter.set)(row, c.u64()?);
        }
        Ok(())
    }
    let mut c = Cursor::new(body);
    if c.u8()? != SNAPSHOT_VERSION {
        return Err(WireError::Malformed("unknown snapshot version"));
    }
    let n_docs = c.u32()? as usize;
    let mut snap = ServiceSnapshot::default();
    let docs = &mut snap.registry.docs;
    docs.reserve(n_docs.min(1024));
    for _ in 0..n_docs {
        let mut d = DocRow {
            doc_id: c.str()?.to_owned(),
            open: c.u8()? != 0,
            lazy: c.u8()? != 0,
            ..DocRow::default()
        };
        get_counters(&mut c, DOC_COUNTERS, &mut d)?;
        d.phases = get_profile(&mut c)?;
        d.request_latency = get_histogram(&mut c)?;
        docs.push(d);
    }
    get_counters(&mut c, REGISTRY_COUNTERS, &mut snap.registry)?;
    get_counters(&mut c, SERVICE_COUNTERS, &mut snap)?;
    c.finish("trailing snapshot bytes")?;
    Ok(snap)
}

/// Sparse histogram encoding: non-zero bucket count, then
/// `(bucket index, count)` pairs in increasing index order, then the
/// value sum and max.
fn put_histogram(out: &mut Vec<u8>, h: &Histogram) {
    let nonzero = h.buckets().iter().filter(|&&c| c != 0).count();
    out.push(u8::try_from(nonzero).expect("≤64 buckets"));
    for (i, &count) in h.buckets().iter().enumerate() {
        if count != 0 {
            out.push(i as u8);
            put_u64(out, count);
        }
    }
    put_u64(out, h.sum());
    put_u64(out, h.max());
}

fn get_histogram(c: &mut Cursor<'_>) -> Result<Histogram, WireError> {
    let nonzero = c.u8()? as usize;
    if nonzero > HISTOGRAM_BUCKETS {
        return Err(WireError::Malformed("histogram bucket count out of range"));
    }
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    let mut last: Option<usize> = None;
    for _ in 0..nonzero {
        let i = c.u8()? as usize;
        if i >= HISTOGRAM_BUCKETS || last.is_some_and(|prev| i <= prev) {
            return Err(WireError::Malformed("histogram bucket index out of order"));
        }
        buckets[i] = c.u64()?;
        last = Some(i);
    }
    Ok(Histogram::from_parts(buckets, c.u64()?, c.u64()?))
}

fn push_metric(out: &mut String, name: &str, labels: &str, value: u64) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

/// Escapes a label value per the Prometheus exposition format.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn push_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let sep = if labels.is_empty() { "" } else { "," };
    for (q, v) in [("0.5", h.p50()), ("0.9", h.p90()), ("0.99", h.p99())] {
        push_metric(out, name, &format!("{labels}{sep}quantile=\"{q}\""), v);
    }
    push_metric(out, &format!("{name}_count"), labels, h.count());
    push_metric(out, &format!("{name}_sum"), labels, h.sum());
    push_metric(out, &format!("{name}_max"), labels, h.max());
}

fn push_phases(out: &mut String, name: &str, labels: &str, p: &xsac_obs::PhaseProfile) {
    let sep = if labels.is_empty() { "" } else { "," };
    for phase in Phase::ALL {
        push_metric(out, name, &format!("{labels}{sep}phase=\"{}\"", phase.name()), p.get(phase));
    }
}

/// Renders the snapshot in the Prometheus text exposition format:
/// service counters, their roll-ups over the documents, pool residency,
/// per-phase time totals, latency quantiles, and one labelled series
/// per document — one line per counter-table row.
pub fn render_text(snap: &ServiceSnapshot) -> String {
    let mut out = String::new();
    let r = &snap.registry;
    let total = r.total();
    for c in SERVICE_COUNTERS {
        push_metric(&mut out, c.name, "", (c.get)(snap));
    }
    for c in DOC_COUNTERS.iter().filter(|c| c.rolls_up) {
        push_metric(&mut out, &c.name.replacen("_doc_", "_", 1), "", (c.get)(&total));
    }
    for c in REGISTRY_COUNTERS {
        push_metric(&mut out, c.name, "", (c.get)(r));
    }
    push_phases(&mut out, "xsac_phase_nanos_total", "", &total.phases);
    push_histogram(&mut out, "xsac_request_latency_nanos", "", &total.request_latency);
    for d in &r.docs {
        let doc = format!("doc=\"{}\"", escape_label(&d.doc_id));
        for c in DOC_COUNTERS {
            push_metric(&mut out, c.name, &doc, (c.get)(d));
        }
        push_metric(&mut out, "xsac_doc_open", &doc, d.open as u64);
        push_metric(&mut out, "xsac_doc_lazy", &doc, d.lazy as u64);
        push_phases(&mut out, "xsac_doc_phase_nanos_total", &doc, &d.phases);
        push_histogram(&mut out, "xsac_doc_request_latency_nanos", &doc, &d.request_latency);
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_histogram(h: &Histogram) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
        h.count(),
        h.sum(),
        h.max(),
        h.p50(),
        h.p90(),
        h.p99()
    )
}

fn json_phases(p: &xsac_obs::PhaseProfile) -> String {
    let fields: Vec<String> =
        Phase::ALL.iter().map(|&ph| format!("\"{}\":{}", ph.name(), p.get(ph))).collect();
    format!("{{{}}}", fields.join(","))
}

/// Appends `"key":value,` for each of `counters`.
fn json_counters<'a, R: 'a>(
    out: &mut String,
    counters: impl IntoIterator<Item = &'a Counter<R>>,
    row: &R,
) {
    for c in counters {
        let _ = write!(out, "\"{}\":{},", c.key, (c.get)(row));
    }
}

/// Renders the snapshot as a flat JSON object (no external
/// dependencies — hand-rolled): the same counter tables as the text
/// exposition, keyed by field name, then the phase and latency roll-ups
/// and one object per document.
pub fn render_json(snap: &ServiceSnapshot) -> String {
    let r = &snap.registry;
    let total = r.total();
    let mut out = String::from("{");
    json_counters(&mut out, SERVICE_COUNTERS, snap);
    json_counters(&mut out, DOC_COUNTERS.iter().filter(|c| c.rolls_up), &total);
    json_counters(&mut out, REGISTRY_COUNTERS, r);
    let _ = write!(
        out,
        "\"phase_totals\":{},\"request_latency\":{},\"docs\":[",
        json_phases(&total.phases),
        json_histogram(&total.request_latency)
    );
    for (i, d) in r.docs.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}{{\"doc_id\":\"{}\",\"open\":{},\"lazy\":{},",
            json_escape(&d.doc_id),
            d.open,
            d.lazy
        );
        json_counters(&mut out, DOC_COUNTERS, d);
        let _ = write!(
            out,
            "\"phases\":{},\"request_latency\":{}}}",
            json_phases(&d.phases),
            json_histogram(&d.request_latency)
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsac_obs::PhaseProfile;

    const GOLDEN_LEN: usize = 516;
    const GOLDEN_SHA1: &str = "0038aa047c9a75a71614416b12b045a088d812c3";

    fn sample() -> ServiceSnapshot {
        let mut latency_a = Histogram::new();
        let mut latency_b = Histogram::new();
        for v in [100, 2_000, 2_100, 65_000] {
            latency_a.record(v);
        }
        latency_b.record(1_500_000);
        let phases_a = PhaseProfile::from_nanos([10, 20, 30, 40, 50, 0, 0]);
        let phases_b = PhaseProfile::from_nanos([1, 2, 3, 4, 5, 6, 7]);
        let docs = vec![
            DocRow {
                doc_id: "alpha".to_owned(),
                open: true,
                lazy: false,
                requests: 12,
                chunks_served: 40,
                bytes_served: 10_240,
                fault_frames: 1,
                opens: 1,
                closes: 0,
                policy_compiles: 2,
                policy_cache_hits: 5,
                rules_minimized: 3,
                phases: phases_a,
                request_latency: latency_a,
            },
            DocRow {
                doc_id: "beta \"quoted\"".to_owned(),
                open: false,
                lazy: true,
                requests: 7,
                chunks_served: 9,
                bytes_served: 2_304,
                fault_frames: 0,
                opens: 2,
                closes: 2,
                policy_compiles: 0,
                policy_cache_hits: 0,
                rules_minimized: 0,
                phases: phases_b,
                request_latency: latency_b,
            },
        ];
        let registry = RegistrySnapshot {
            docs,
            doc_opens: 3,
            doc_closes: 2,
            unknown_doc_rejections: 4,
            budget_bytes: 512,
            resident_bytes_now: 256,
            resident_bytes_peak: 700,
            pool_fetches: 90,
            pool_refetches: 12,
            pool_evictions: 33,
            pool_purged_chunks: 8,
        };
        ServiceSnapshot {
            registry,
            connections: 6,
            requests: 19,
            chunks_served: 49,
            bytes_served: 12_544,
            fault_frames: 1,
            slow_peer_evictions: 2,
            budget_evictions: 3,
            admission_rejections: 11,
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let snap = sample();
        let bytes = encode_snapshot(&snap);
        assert_eq!(decode_snapshot(&bytes).unwrap(), snap);
        // An empty service round-trips too.
        let empty = ServiceSnapshot::default();
        assert_eq!(decode_snapshot(&encode_snapshot(&empty)).unwrap(), empty);
    }

    /// The `Stats` payload of the sample snapshot, pinned by SHA-1: any
    /// change to the wire layout (field order, widths, histogram
    /// sparsity) shows up here before it reaches a deployed client.
    #[test]
    fn snapshot_wire_bytes_are_pinned() {
        let bytes = encode_snapshot(&sample());
        let hex: String =
            xsac_crypto::sha1::sha1(&bytes).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(bytes.len(), GOLDEN_LEN);
        assert_eq!(hex, GOLDEN_SHA1);
    }

    /// The text exposition of the sample snapshot, pinned the same way:
    /// scrapers key on the series names, labels and values.
    #[test]
    fn text_exposition_bytes_are_pinned() {
        let text = render_text(&sample());
        let hex: String =
            xsac_crypto::sha1::sha1(text.as_bytes()).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!((text.len(), hex.as_str()), (3782, "ab3ca5906a4fd33dccad1a4199873e4f9526490e"));
    }

    #[test]
    fn hostile_snapshot_bytes_are_typed_errors() {
        let snap = sample();
        let bytes = encode_snapshot(&snap);
        // Unknown version.
        let mut evil = bytes.clone();
        evil[0] = 99;
        assert!(matches!(decode_snapshot(&evil), Err(WireError::Malformed(_))));
        // Truncations at every prefix length decode as typed errors.
        for cut in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "truncation at {cut} must not decode");
        }
        // Trailing garbage is rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(decode_snapshot(&long), Err(WireError::Malformed(_))));
        // An absurd doc count must not pre-allocate unboundedly (the
        // cursor runs dry first, typed-ly).
        let mut huge = vec![SNAPSHOT_VERSION];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_snapshot(&huge).is_err());
    }

    #[test]
    fn hostile_histogram_encoding_is_rejected() {
        // Hand-build a histogram with out-of-order bucket indices.
        let mut body = Vec::new();
        body.push(2u8);
        body.push(5u8);
        put_u64(&mut body, 1);
        body.push(5u8); // duplicate index
        put_u64(&mut body, 1);
        put_u64(&mut body, 2);
        put_u64(&mut body, 2);
        let mut c = Cursor::new(&body);
        assert!(matches!(get_histogram(&mut c), Err(WireError::Malformed(_))));
        // Bucket index past the array.
        let mut body = Vec::new();
        body.push(1u8);
        body.push(64u8);
        put_u64(&mut body, 1);
        put_u64(&mut body, 1);
        put_u64(&mut body, 1);
        let mut c = Cursor::new(&body);
        assert!(matches!(get_histogram(&mut c), Err(WireError::Malformed(_))));
    }

    /// Table-driven coverage: with every counter of every row kind set to
    /// a distinct value, each table row shows up — under its series name
    /// in the text exposition and under its key in the JSON render, the
    /// per-doc roll-ups included.
    #[test]
    fn every_table_counter_is_rendered() {
        let mut snap = ServiceSnapshot::default();
        snap.registry.docs = vec![DocRow { doc_id: "d".to_owned(), ..DocRow::default() }; 2];
        let mut next = 1_000u64;
        let mut fresh = || {
            next += 1;
            next
        };
        for c in SERVICE_COUNTERS {
            (c.set)(&mut snap, fresh());
        }
        for c in REGISTRY_COUNTERS {
            (c.set)(&mut snap.registry, fresh());
        }
        for d in &mut snap.registry.docs {
            for c in DOC_COUNTERS {
                (c.set)(d, fresh());
            }
        }
        let text = render_text(&snap);
        let json = render_json(&snap);
        let expect = |series: String, key: &str, v: u64| {
            assert!(text.contains(&format!("{series} {v}\n")), "text lacks {series} {v}");
            assert!(json.contains(&format!("\"{key}\":{v},")), "json lacks {key}:{v}");
        };
        for c in SERVICE_COUNTERS {
            expect(c.name.to_owned(), c.key, (c.get)(&snap));
        }
        for c in REGISTRY_COUNTERS {
            expect(c.name.to_owned(), c.key, (c.get)(&snap.registry));
        }
        let total = snap.registry.total();
        for c in DOC_COUNTERS {
            for d in &snap.registry.docs {
                expect(format!("{}{{doc=\"d\"}}", c.name), c.key, (c.get)(d));
            }
            if c.rolls_up {
                let sum: u64 = snap.registry.docs.iter().map(|d| (c.get)(d)).sum();
                assert_eq!((c.get)(&total), sum);
                expect(c.name.replacen("_doc_", "_", 1), c.key, sum);
            }
        }
        assert_eq!(decode_snapshot(&encode_snapshot(&snap)).unwrap(), snap);
    }

    /// The snapshot builders read live atomics, not hand-built rows: with
    /// every live counter set to a distinct value, each must come back in
    /// the field its table row reads — a builder copying the wrong atomic
    /// into a field fails here.
    #[test]
    fn service_snapshot_reads_each_live_counter() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        use xsac_crypto::{ChunkLayout, IntegrityScheme, TripleDes};

        fn set(atoms: &[(&AtomicU64, &'static str)], base: u64) -> Vec<(&'static str, u64)> {
            let mut value = base;
            atoms
                .iter()
                .map(|&(atom, key)| {
                    value += 1;
                    atom.store(value, Ordering::Relaxed);
                    (key, value)
                })
                .collect()
        }
        fn check<R>(table: &[Counter<R>], row: &R, expect: &[(&str, u64)]) {
            for &(key, value) in expect {
                let c = table.iter().find(|c| c.key == key).expect("counter has a table row");
                assert_eq!((c.get)(row), value, "{key}");
            }
        }

        let key = TripleDes::new(*b"0123456789abcdefFEDCBA98");
        let xml = xsac_xml::Document::parse("<a><b>x</b></a>").unwrap();
        let doc =
            xsac_soe::ServerDoc::prepare(&xml, &key, IntegrityScheme::Ecb, ChunkLayout::default());
        let registry = Arc::new(crate::DocRegistry::new(4096));
        registry.insert("doc", doc);
        let served = registry.open("doc").unwrap();
        let server = crate::ChunkServer::with_registry(Arc::clone(&registry));

        let m = &served.metrics;
        let doc_expect = set(
            &[
                (&m.requests, "requests"),
                (&m.chunks_served, "chunks_served"),
                (&m.bytes_served, "bytes_served"),
                (&m.fault_frames, "fault_frames"),
                (&m.opens, "opens"),
                (&m.closes, "closes"),
                (&m.policy_compiles, "policy_compiles"),
                (&m.policy_cache_hits, "policy_cache_hits"),
                (&m.rules_minimized, "rules_minimized"),
            ],
            100,
        );
        let phases = PhaseProfile::from_nanos([11, 12, 13, 14, 15, 16, 17]);
        m.phases.merge(&phases);
        m.request_latency.record(4_321);
        let registry_expect = set(
            &[
                (&registry.opens, "doc_opens"),
                (&registry.closes, "doc_closes"),
                (&registry.unknown_docs, "unknown_doc_rejections"),
            ],
            200,
        );
        let n = &server.metrics;
        let service_expect = set(
            &[
                (&n.connections, "connections"),
                (&n.requests, "requests"),
                (&n.chunks_served, "chunks_served"),
                (&n.bytes_served, "bytes_served"),
                (&n.fault_frames, "fault_frames"),
                (&n.slow_peer_evictions, "slow_peer_evictions"),
                (&n.budget_evictions, "budget_evictions"),
                (&n.admission_rejections, "admission_rejections"),
            ],
            300,
        );
        // Every per-doc and service counter is live and set above.
        assert_eq!(doc_expect.len(), DOC_COUNTERS.len());
        assert_eq!(service_expect.len(), SERVICE_COUNTERS.len());

        let snap = server.service_snapshot();
        let [row] = &snap.registry.docs[..] else { panic!("one registered doc") };
        assert_eq!(row.doc_id, "doc");
        check(DOC_COUNTERS, row, &doc_expect);
        assert_eq!(row.phases, phases);
        assert_eq!((row.request_latency.count(), row.request_latency.max()), (1, 4_321));
        check(REGISTRY_COUNTERS, &snap.registry, &registry_expect);
        check(SERVICE_COUNTERS, &snap, &service_expect);
    }

    #[test]
    fn text_exposition_covers_every_counter() {
        let snap = sample();
        let text = render_text(&snap);
        for needle in [
            "xsac_connections_total 6",
            "xsac_admission_rejections_total 11",
            "xsac_pool_evictions_total 33",
            "xsac_pool_refetches_total 12",
            "xsac_slow_peer_evictions_total 2",
            "xsac_budget_evictions_total 3",
            "xsac_unknown_doc_rejections_total 4",
            "xsac_phase_nanos_total{phase=\"fetch\"} 11",
            "xsac_phase_nanos_total{phase=\"evaluate\"} 55",
            "xsac_request_latency_nanos{quantile=\"0.5\"}",
            "xsac_doc_requests_total{doc=\"alpha\"} 12",
            "xsac_doc_request_latency_nanos{doc=\"alpha\",quantile=\"0.99\"}",
            "doc=\"beta \\\"quoted\\\"\"",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn json_render_is_parseable_shape() {
        let snap = sample();
        let json = render_json(&snap);
        // No serde in-tree: pin the structural anchors instead.
        assert!(json.starts_with('{') && json.ends_with('}'));
        for needle in [
            "\"connections\":6",
            "\"admission_rejections\":11",
            "\"phase_totals\":{\"fetch\":11",
            "\"doc_id\":\"alpha\"",
            "\"doc_id\":\"beta \\\"quoted\\\"\"",
            "\"p99\":",
        ] {
            assert!(json.contains(needle), "missing {needle:?} in:\n{json}");
        }
        assert_eq!(json.matches("\"doc_id\"").count(), 2);
    }
}
