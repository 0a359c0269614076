//! The actual-work decrypt meter against the cost model, over whole
//! sessions: `AccessCost::bytes_deciphered` counts the bytes that pass
//! through 3DES, `bytes_decrypted` the bytes the model charges.
//!
//! Plain ECB deciphers exactly the covering blocks it charges. ECB-MHT
//! verifies ciphertext and deciphers each block of a fragment only when
//! a read first covers it, so its actual work exceeds the model only by
//! rounding served ranges out to whole blocks — the block floor.

use xsac::crypto::chunk::ChunkLayout;
use xsac::crypto::{IntegrityScheme, TripleDes};
use xsac::datagen::hospital::{hospital_document, physician_name, HospitalConfig};
use xsac::datagen::Profile;
use xsac::soe::{run_session, ServerDoc, SessionConfig};

#[test]
fn deciphered_bytes_stay_within_the_block_floor() {
    let doc = hospital_document(&HospitalConfig::at_scale(0.03), 1);
    let key = TripleDes::new(*b"decipher-meter-test-key!");
    for scheme in [IntegrityScheme::Ecb, IntegrityScheme::EcbMht] {
        let server = ServerDoc::prepare(&doc, &key, scheme, ChunkLayout::default());
        for profile in Profile::figure9() {
            let mut dict = server.dict.clone();
            let policy = profile.policy(&physician_name(0), &mut dict);
            let res = run_session(&server, &key, &policy, None, &SessionConfig::default())
                .unwrap_or_else(|e| panic!("{scheme:?}/{}: {e}", profile.name()));
            let (actual, metered) = (res.cost.bytes_deciphered, res.cost.bytes_decrypted);
            if scheme == IntegrityScheme::Ecb {
                assert_eq!(actual, metered, "ECB deciphers what it charges ({})", profile.name());
                continue;
            }
            // Researcher skips most subtrees, so its served ranges are
            // record headers of ~3 bytes, each rounding out to a whole
            // 8-byte block: its floor is ~1.39 (Secretary ~1.08, Doctor
            // ~1.13).
            let bound = match profile {
                Profile::Researcher { .. } => 1.5,
                _ => 1.25,
            };
            let ratio = actual as f64 / metered as f64;
            assert!(
                ratio <= bound,
                "ECB-MHT {}: deciphered {actual} for {metered} metered ({ratio:.3} > {bound})",
                profile.name()
            );
        }
    }
}
