//! `views-mht`: the steady reading path. One resident ECB-MHT document
//! behind a `ChunkServer`; one client thread keeps one connection and a
//! client `DocServer` over a window smaller than the ciphertext, and
//! cycles through the Figure-9 subjects whose policies set-up compiled.

use crate::bench::{
    client_config, key, publish_resident, serve_span, session_attrs, Config, Live, Tally, Workload,
};
use crate::inputs::{figure9_subjects, shuffled, Subject, Version};
use crate::trace::Tracer;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xsac_crypto::IntegrityScheme;
use xsac_net::{connect, ChunkServer, DocRegistry, RemoteStore};
use xsac_soe::{DocServer, SessionSpec};

const DOC_ID: &str = "hospital";

pub struct Views {
    version: Version,
    subjects: Vec<Subject>,
    oracle: Vec<String>,
    /// The order in which the client cycles through the subjects.
    order: Vec<usize>,
}

pub struct Client {
    server: DocServer<RemoteStore>,
    specs: Vec<SessionSpec>,
    next: usize,
}

impl Views {
    pub fn new(cfg: &Config) -> Views {
        let mut rng = xsac_datagen::rng(cfg.seed);
        let version = Version::generate(cfg.doc_bytes, cfg.seed);
        let subjects = figure9_subjects();
        let oracle = subjects.iter().map(|s| version.oracle(s)).collect();
        let order = shuffled(&mut rng, subjects.len());
        Views { version, subjects, oracle, order }
    }
}

impl Workload for Views {
    type Thread = Client;

    fn describe(&self) -> String {
        format!(
            "document {} B XML; {} subjects; client window {} B, batch {}; 1 client thread, 1 connection",
            self.version.xml.len(),
            self.subjects.len(),
            crate::bench::CLIENT_WINDOW,
            crate::bench::CLIENT_BATCH
        )
    }

    fn setup(&self, _dir: &Path, pubs: &mut Tally) -> Result<Live<Client>, String> {
        let registry = DocRegistry::new(0);
        publish_resident(pubs, &registry, DOC_ID, &self.version.xml, IntegrityScheme::EcbMht)?;
        let server = ChunkServer::with_registry(Arc::new(registry))
            .spawn("127.0.0.1:0")
            .map_err(|e| format!("spawn: {e}"))?;
        let doc = connect(server.addr(), DOC_ID, client_config()).map_err(|e| e.to_string())?;
        let client = DocServer::new(doc, key());
        let specs = self
            .subjects
            .iter()
            .map(|s| {
                let mut dict = client.doc().dict.clone();
                let policy = s.policy(&mut dict);
                client.compiled_policy(&s.role, &policy);
                SessionSpec::new(s.role.clone(), policy)
            })
            .collect();
        let threads = vec![Client { server: client, specs, next: 0 }];
        Ok(Live { server, threads })
    }

    fn step(&self, c: &mut Client, tr: &mut Tracer, tally: &mut Tally) {
        let i = self.order[c.next % self.order.len()];
        c.next += 1;
        tally.attempted += 1;
        tr.next_request();
        let store = &c.server.doc().protected.store;
        let traced = tr.is_on();
        let (r0, c0) =
            tally.off_clock(|| (store.stats(), traced.then(|| c.server.compiler_snapshot())));
        let root = tr.begin("session");
        let t = Instant::now();
        let (span, res) = serve_span(tr, || c.server.serve(&c.specs[i]));
        let end = Instant::now();
        tr.end(root);
        match res {
            Ok(res) => {
                let r1 = tally.off_clock(|| store.stats());
                if let Some(c0) = c0 {
                    tally.off_clock(|| {
                        let compiler = (c0, c.server.compiler_snapshot());
                        tr.attach(span, &session_attrs(&res, &r0, &r1, compiler))
                    });
                }
                let wire = r1.wire_bytes - r0.wire_bytes;
                let ns = (end - t).as_nanos() as u64;
                tally.check_view(&c.server.doc().dict, &res, &self.oracle[i], (end, ns), wire);
            }
            Err(e) => tally.session_failed(e),
        }
    }
}
