//! `subjects-ecb`: every request comes from a new subject. It connects
//! (`Hello` + `GetMeta`), builds its policy from rule strings, compiles
//! it, runs one session over the resident plain-ECB document and
//! disconnects. Compile, connect and evaluate dominate; no hashing.

use crate::bench::{
    client_config, key, publish_resident, serve_span, session_attrs, Config, Live, Tally, Workload,
};
use crate::inputs::{draw, mixed_templates, Subject, Version};
use crate::trace::Tracer;
use rand::rngs::SmallRng;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xsac_crypto::{IntegrityScheme, TripleDes};
use xsac_net::{connect, ChunkServer, DocRegistry, RemoteStats};
use xsac_soe::{CompilerSnapshot, DocServer, SessionSpec};

const DOC_ID: &str = "hospital-ecb";

pub struct Subjects {
    version: Version,
    /// Subject templates by profile, and their expected views.
    templates: [Vec<Subject>; 3],
    oracle: [Vec<String>; 3],
    seed: u64,
}

pub struct Terminal {
    addr: SocketAddr,
    rng: SmallRng,
    key: TripleDes,
}

impl Subjects {
    pub fn new(cfg: &Config) -> Subjects {
        let version = Version::generate(cfg.doc_bytes, cfg.seed);
        let templates = mixed_templates();
        let oracle = templates.each_ref().map(|g| g.iter().map(|s| version.oracle(s)).collect());
        Subjects { version, templates, oracle, seed: cfg.seed }
    }
}

impl Workload for Subjects {
    type Thread = Terminal;

    fn describe(&self) -> String {
        format!(
            "document {} B XML; templates {} researcher / {} doctor / {} secretary, drawn {}/{}/{} %; 1 client thread, one connection per request",
            self.version.xml.len(),
            self.templates[0].len(),
            self.templates[1].len(),
            self.templates[2].len(),
            crate::inputs::MIX_RESEARCHER,
            crate::inputs::MIX_DOCTOR,
            crate::inputs::MIX_SECRETARY
        )
    }

    fn setup(&self, _dir: &Path, pubs: &mut Tally) -> Result<Live<Terminal>, String> {
        let registry = DocRegistry::new(0);
        publish_resident(pubs, &registry, DOC_ID, &self.version.xml, IntegrityScheme::Ecb)?;
        let server = ChunkServer::with_registry(Arc::new(registry))
            .spawn("127.0.0.1:0")
            .map_err(|e| format!("spawn: {e}"))?;
        let threads = vec![Terminal {
            addr: server.addr(),
            rng: xsac_datagen::rng(self.seed ^ 0x5eb1_ec75),
            key: key(),
        }];
        Ok(Live { server, threads })
    }

    fn step(&self, term: &mut Terminal, tr: &mut Tracer, tally: &mut Tally) {
        let (g, i) = draw(&mut term.rng, &self.templates);
        let subject = &self.templates[g][i];
        tally.attempted += 1;
        tr.next_request();
        let root = tr.begin("session");
        let t = Instant::now();
        let doc = match tr.span("net.connect", || connect(term.addr, DOC_ID, client_config())) {
            Ok(doc) => doc,
            Err(e) => {
                tr.end(root);
                return tally.fail(e);
            }
        };
        let mut dict = doc.dict.clone();
        let policy = tr.span("xpath.parse", || subject.policy(&mut dict));
        let server = DocServer::new(doc, term.key.clone());
        tr.span("core.compile", || server.compiled_policy(&subject.role, &policy));
        let spec = SessionSpec::new(subject.role.clone(), policy);
        let (span, res) = serve_span(tr, || server.serve(&spec));
        let end = Instant::now();
        tr.end(root);
        match res {
            Ok(res) => {
                let r1 = tally.off_clock(|| server.doc().protected.store.stats());
                if tr.is_on() {
                    tally.off_clock(|| {
                        let compiler = (CompilerSnapshot::default(), server.compiler_snapshot());
                        tr.attach(
                            span,
                            &session_attrs(&res, &RemoteStats::default(), &r1, compiler),
                        )
                    });
                }
                let ns = (end - t).as_nanos() as u64;
                let expected = &self.oracle[g][i];
                tally.check_view(&server.doc().dict, &res, expected, (end, ns), r1.wire_bytes);
            }
            Err(e) => tally.session_failed(e),
        }
    }
}
