//! `publish-churn`: a file-backed `DocRegistry` whose `WindowPool` budget
//! is smaller than one document, with more documents than its open cap.
//! One publisher re-publishes pre-generated versions under rotating
//! doc-ids while one reader runs warm-subject sessions over seeded
//! doc-ids, identifying the version it was served from the metadata.

use crate::bench::{
    client_config, key, publish_file, serve_span, session_attrs, Config, Live, Tally, Workload,
};
use crate::inputs::{figure9_subjects, fingerprint, shuffled, Subject, Version};
use crate::trace::Tracer;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use xsac_core::CompiledPolicy;
use xsac_crypto::TripleDes;
use xsac_net::{connect, ChunkServer, DocRegistry, RemoteStats};
use xsac_soe::{run_session_shared, CompilerSnapshot, DocMeta, SessionConfig};

/// Pre-generated document versions.
pub const VERSIONS: usize = 4;
/// Doc-ids the publisher rotates through.
pub const DOCS: usize = 6;
/// Lazy documents open at once (fewer than `DOCS`).
pub const OPEN_CAP: usize = 3;
/// Shared `WindowPool` budget: smaller than one document.
pub const POOL_BUDGET: usize = 32 << 10;
/// Published files kept per doc-id: a replaced version's file outlives
/// its replacement by one generation, for readers still opening it.
const RETAINED: usize = 2;

pub struct Churn {
    versions: Vec<Version>,
    /// Metadata fingerprint → version, as an in-memory protection of each
    /// version yields it.
    by_fingerprint: HashMap<[u8; 20], usize>,
    subjects: Vec<Subject>,
    /// `oracle[subject][version]`.
    oracle: Vec<Vec<String>>,
    /// Version first published under each doc-id.
    initial: Vec<usize>,
    order: Vec<usize>,
    seed: u64,
}

pub enum Role {
    Publisher(Publisher),
    Reader(Box<Reader>),
}

pub struct Publisher {
    registry: Arc<DocRegistry>,
    rng: SmallRng,
    dir: PathBuf,
    current: Vec<usize>,
    files: Vec<VecDeque<PathBuf>>,
    generation: u64,
}

pub struct Reader {
    addr: SocketAddr,
    rng: SmallRng,
    key: TripleDes,
    /// Warm compiled policies, `compiled[subject][version]`.
    compiled: Vec<Vec<Arc<CompiledPolicy>>>,
    /// The order in which the reader cycles through the subjects.
    order: Vec<usize>,
    next: usize,
}

fn doc_id(j: usize) -> String {
    format!("ward-{j}")
}

impl Churn {
    pub fn new(cfg: &Config) -> Churn {
        let mut rng = xsac_datagen::rng(cfg.seed);
        let versions: Vec<Version> = (0..VERSIONS)
            .map(|v| {
                Version::generate(cfg.doc_bytes, cfg.seed.wrapping_mul(31).wrapping_add(v as u64))
            })
            .collect();
        let by_fingerprint = versions
            .iter()
            .enumerate()
            .map(|(v, ver)| {
                let memory = xsac_soe::ServerDoc::prepare(
                    &ver.doc,
                    &key(),
                    xsac_crypto::IntegrityScheme::EcbMht,
                    crate::bench::layout(),
                );
                (fingerprint(&memory.meta()), v)
            })
            .collect();
        let subjects = figure9_subjects();
        let oracle =
            subjects.iter().map(|s| versions.iter().map(|v| v.oracle(s)).collect()).collect();
        let initial = (0..DOCS).map(|_| rng.random_range(0..VERSIONS)).collect();
        let order = shuffled(&mut rng, subjects.len());
        Churn { versions, by_fingerprint, subjects, oracle, initial, order, seed: cfg.seed }
    }
}

impl Workload for Churn {
    type Thread = Role;

    fn describe(&self) -> String {
        let sizes: Vec<String> = self.versions.iter().map(|v| v.xml.len().to_string()).collect();
        format!(
            "versions {} B XML; {DOCS} doc-ids, open cap {OPEN_CAP}; pool budget {POOL_BUDGET} B; {} subjects; 1 publisher + 1 reader",
            sizes.join("/"),
            self.subjects.len()
        )
    }

    fn setup(&self, dir: &Path, pubs: &mut Tally) -> Result<Live<Role>, String> {
        let registry = Arc::new(DocRegistry::new(POOL_BUDGET).with_max_open_docs(OPEN_CAP));
        let mut off = Tracer::new(Instant::now(), 0);
        let mut files = Vec::new();
        for (j, &v) in self.initial.iter().enumerate() {
            let path = dir.join(format!("{}-0.xsac", doc_id(j)));
            self.book_publication(pubs, v, || {
                publish_file(&mut off, &registry, &doc_id(j), &self.versions[v].xml, &path)
            });
            files.push(VecDeque::from([path]));
        }
        let server = ChunkServer::with_registry(Arc::clone(&registry))
            .spawn("127.0.0.1:0")
            .map_err(|e| format!("spawn: {e}"))?;
        let compiled = self
            .subjects
            .iter()
            .map(|s| {
                self.versions
                    .iter()
                    .map(|v| Arc::new(CompiledPolicy::compile(&s.policy(&mut v.doc.dict.clone()))))
                    .collect()
            })
            .collect();
        let publisher = Publisher {
            registry,
            rng: xsac_datagen::rng(self.seed ^ 0x9b11_5e12),
            dir: dir.to_owned(),
            current: self.initial.clone(),
            files,
            generation: 1,
        };
        let reader = Reader {
            addr: server.addr(),
            rng: xsac_datagen::rng(self.seed ^ 0x4ead_e125),
            key: key(),
            compiled,
            order: self.order.clone(),
            next: 0,
        };
        Ok(Live {
            server,
            threads: vec![Role::Publisher(publisher), Role::Reader(Box::new(reader))],
        })
    }

    fn step(&self, role: &mut Role, tr: &mut Tracer, tally: &mut Tally) {
        match role {
            Role::Publisher(p) => self.publish(p, tr, tally),
            Role::Reader(r) => self.read(r, tr, tally),
        }
    }
}

impl Churn {
    /// Times one publication of version `v` and checks the registered
    /// metadata against the version's; returns whether it registered.
    fn book_publication(
        &self,
        tally: &mut Tally,
        v: usize,
        publish: impl FnOnce() -> Result<DocMeta, String>,
    ) -> bool {
        tally.attempted += 1;
        let t = Instant::now();
        let meta = publish();
        let ns = t.elapsed().as_nanos() as u64;
        match meta {
            Ok(meta) if self.by_fingerprint.get(&fingerprint(&meta)) == Some(&v) => {
                tally.publish_ns.push(ns);
                tally.publish_bytes.push(self.versions[v].xml.len() as u64);
            }
            Ok(_) => tally.mismatch("publication"),
            Err(e) => {
                tally.fail(e);
                return false;
            }
        }
        true
    }

    fn publish(&self, p: &mut Publisher, tr: &mut Tracer, tally: &mut Tally) {
        let j = p.rng.random_range(0..DOCS);
        let v = (p.current[j] + p.rng.random_range(1..VERSIONS)) % VERSIONS;
        let path = p.dir.join(format!("{}-{}.xsac", doc_id(j), p.generation));
        p.generation += 1;
        tr.next_request();
        let root = tr.begin("publish");
        let ok = self.book_publication(tally, v, || {
            publish_file(tr, &p.registry, &doc_id(j), &self.versions[v].xml, &path)
        });
        tr.end(root);
        if !ok {
            return;
        }
        p.current[j] = v;
        p.files[j].push_back(path);
        while p.files[j].len() > RETAINED {
            let old = p.files[j].pop_front().expect("non-empty");
            let _ = std::fs::remove_file(old);
        }
    }

    fn read(&self, r: &mut Reader, tr: &mut Tracer, tally: &mut Tally) {
        let j = r.rng.random_range(0..DOCS);
        let s = r.order[r.next % r.order.len()];
        r.next += 1;
        tally.attempted += 1;
        tr.next_request();
        let root = tr.begin("session");
        let t = Instant::now();
        let doc = match tr.span("net.connect", || connect(r.addr, &doc_id(j), client_config())) {
            Ok(doc) => doc,
            Err(e) => {
                tr.end(root);
                return tally.fail(e);
            }
        };
        let connected = t.elapsed();
        // Which version was served picks the warm policy and the oracle;
        // the lookup is the benchmark's, so it stays off the clock.
        let v = tally.off_clock(|| self.by_fingerprint.get(&fingerprint(&doc.meta())).copied());
        let Some(v) = v else {
            tr.end(root);
            return tally.mismatch("served metadata");
        };
        let policy = &r.compiled[s][v];
        let t = Instant::now();
        let (span, res) = serve_span(tr, || {
            run_session_shared(&doc, &r.key, policy, None, &SessionConfig::default(), None)
        });
        let end = Instant::now();
        tr.end(root);
        match res {
            Ok(res) => {
                let r1 = tally.off_clock(|| doc.protected.store.stats());
                if tr.is_on() {
                    tally.off_clock(|| {
                        let none = (CompilerSnapshot::default(), CompilerSnapshot::default());
                        tr.attach(span, &session_attrs(&res, &RemoteStats::default(), &r1, none))
                    });
                }
                let ns = (connected + (end - t)).as_nanos() as u64;
                tally.check_view(&doc.dict, &res, &self.oracle[s][v], (end, ns), r1.wire_bytes);
            }
            Err(e) => tally.session_failed(e),
        }
    }
}
