//! Seeded inputs and their expected outputs. Everything here is the
//! benchmark's own preparation: it is never charged to `setup_s`.

use rand::Rng;
use xsac_core::oracle::oracle_view_string;
use xsac_core::Policy;
use xsac_crypto::sha1::sha1;
use xsac_datagen::hospital::{hospital_document, physician_name, HospitalConfig};
use xsac_datagen::profiles::{doctor_policy, secretary_policy, stacked_researcher_policy};
use xsac_soe::DocMeta;
use xsac_xml::writer::document_to_string;
use xsac_xml::{Document, TagDict};

/// What a subject's terminal asks for: one Figure-9 profile, possibly a
/// rule-heavy Researcher (several groups, stacked rule copies).
#[derive(Clone, Debug)]
pub enum Profile {
    Secretary,
    Doctor,
    Researcher { groups: usize, copies: usize },
}

/// One subject: its role (the compiled-policy cache key), its name (the
/// `USER` of its rules) and its profile.
#[derive(Clone, Debug)]
pub struct Subject {
    pub role: String,
    pub name: String,
    pub profile: Profile,
}

impl Subject {
    fn new(profile: Profile, physician: usize) -> Subject {
        let name = physician_name(physician);
        let role = match &profile {
            Profile::Secretary => format!("Secretary/{name}"),
            Profile::Doctor => format!("Doctor/{name}"),
            Profile::Researcher { groups, copies } => {
                format!("Researcher-g{groups}x{copies}/{name}")
            }
        };
        Subject { role, name, profile }
    }

    /// Builds the subject's policy from its rule strings against `dict`.
    pub fn policy(&self, dict: &mut TagDict) -> Policy {
        match self.profile {
            Profile::Secretary => secretary_policy(&self.name, dict),
            Profile::Doctor => doctor_policy(&self.name, dict),
            Profile::Researcher { groups, copies } => {
                stacked_researcher_policy(&self.name, groups, copies, dict)
            }
        }
    }
}

/// A generated document version: its XML text (what a publisher hands
/// over) and the parsed tree the oracle reads.
pub struct Version {
    pub xml: String,
    pub doc: Document,
}

impl Version {
    /// The seeded Hospital document whose XML text size is nearest to
    /// `target_bytes`: the seed varies the content, not the size.
    pub fn generate(target_bytes: usize, seed: u64) -> Version {
        let xml_of = |folders: usize| {
            let config = HospitalConfig { folders, ..HospitalConfig::default() };
            document_to_string(&hospital_document(&config, seed))
        };
        let miss = |xml: &String| xml.len().abs_diff(target_bytes);
        // ~9.6 KB of XML per folder: start from the estimate and walk
        // while a neighbouring folder count comes nearer.
        let mut folders = (target_bytes / 9600).max(1);
        let mut xml = xml_of(folders);
        loop {
            let step = if xml.len() < target_bytes { folders + 1 } else { folders - 1 };
            if step == 0 {
                break;
            }
            let next = xml_of(step);
            if miss(&next) >= miss(&xml) {
                break;
            }
            (folders, xml) = (step, next);
        }
        // Parse the text back so the oracle sees exactly what a
        // publisher's parse of `xml` yields.
        let doc = Document::parse(&xml).expect("generated XML parses");
        Version { xml, doc }
    }

    /// The expected authorized view of `subject` on this version.
    pub fn oracle(&self, subject: &Subject) -> String {
        let mut dict = self.doc.dict.clone();
        oracle_view_string(&self.doc, &subject.policy(&mut dict))
    }
}

/// Identifies a published version from its dissemination metadata.
pub fn fingerprint(meta: &DocMeta) -> [u8; 20] {
    sha1(&xsac_net::meta::encode_meta(meta))
}

/// Physicians a generated Hospital document names (`phys000`..).
fn physicians() -> usize {
    HospitalConfig::default().physicians
}

/// The Figure-9 subjects: three profiles (Secretary, Doctor, Researcher
/// with all ten groups) for every physician the document names.
pub fn figure9_subjects() -> Vec<Subject> {
    (0..physicians())
        .flat_map(|p| {
            [
                Subject::new(Profile::Secretary, p),
                Subject::new(Profile::Doctor, p),
                Subject::new(Profile::Researcher { groups: 10, copies: 1 }, p),
            ]
        })
        .collect()
}

/// Subject-mix weights of `subjects-ecb`, in percent.
pub const MIX_RESEARCHER: u32 = 60;
pub const MIX_DOCTOR: u32 = 25;
pub const MIX_SECRETARY: u32 = 15;

/// Every subject template of the `subjects-ecb` mix, grouped by profile:
/// Researchers with 5–10 groups and 1–2 stacked rule copies, one Doctor
/// per physician, one Secretary.
pub fn mixed_templates() -> [Vec<Subject>; 3] {
    let researchers = (5..=10)
        .flat_map(|groups| (1..=2).map(move |copies| (groups, copies)))
        .enumerate()
        .map(|(i, (groups, copies))| {
            Subject::new(Profile::Researcher { groups, copies }, i % physicians())
        })
        .collect();
    let doctors = (0..physicians()).map(|p| Subject::new(Profile::Doctor, p)).collect();
    [researchers, doctors, vec![Subject::new(Profile::Secretary, 0)]]
}

/// Draws one request's subject from `templates` by the mix weights.
pub fn draw(rng: &mut impl Rng, templates: &[Vec<Subject>; 3]) -> (usize, usize) {
    let roll = rng.random_range(0..MIX_RESEARCHER + MIX_DOCTOR + MIX_SECRETARY);
    let group = if roll < MIX_RESEARCHER {
        0
    } else if roll < MIX_RESEARCHER + MIX_DOCTOR {
        1
    } else {
        2
    };
    (group, rng.random_range(0..templates[group].len()))
}

/// A seeded permutation of `0..n`.
pub fn shuffled(rng: &mut impl Rng, n: usize) -> Vec<usize> {
    let mut out: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        out.swap(i, rng.random_range(0..=i));
    }
    out
}
