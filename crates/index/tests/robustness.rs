//! Robustness: the decoder must never panic or hang on hostile bytes —
//! navigation and readback alike either produce events or return a
//! `DecodeError`. (The integrity layer rejects
//! tampering before decoding in the real pipeline; the decoder still must
//! not be the weak link, e.g. under scheme `ECB` which detects nothing.)

use proptest::prelude::*;
use xsac_index::decode::{CursorDecoder, DecodedNode, SliceSource};
use xsac_index::encode::{encode_document, Encoding};
use xsac_xml::Document;

/// Walks the whole stream; at every step it also reads back the range of
/// the element just opened and the rest of the current element, so the
/// readback path parses the same hostile bytes.
fn drive(bytes: &[u8], dict_len: usize) -> Result<usize, xsac_index::DecodeError> {
    let mut d = CursorDecoder::new(SliceSource(bytes), dict_len)?;
    // Defensive cap: a malformed stream must not loop forever either.
    for n in 0..100_000 {
        let opened = match d.next()? {
            DecodedNode::End => return Ok(n),
            node => matches!(node, DecodedNode::Element { .. }),
        };
        let saved = if opened { d.last_element_context() } else { None };
        for ctx in saved.into_iter().chain(d.rest_context()) {
            let mut events = Vec::new();
            if d.read_back(&ctx, &mut events).is_ok() {
                assert!(events.len() <= 2 * (ctx.end - ctx.start), "readback invented events");
            }
        }
    }
    panic!("decoder did not terminate");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..Default::default() })]

    /// Arbitrary garbage: no panic, no hang.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512), dict in 1usize..40) {
        let _ = drive(&bytes, dict);
    }

    /// Bit flips in valid encodings: no panic, no hang (errors are fine,
    /// and silent misdecodes are the integrity layer's problem).
    #[test]
    fn flipped_encodings_never_panic(
        children in 1usize..6,
        flip_pos in any::<u32>(),
        flip_bit in 0u8..8,
    ) {
        let mut xml = String::from("<r>");
        for i in 0..children {
            xml.push_str(&format!("<x><y>value {i}</y></x>"));
        }
        xml.push_str("</r>");
        let doc = Document::parse(&xml).unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let mut bytes = enc.bytes.clone();
        let pos = flip_pos as usize % bytes.len();
        bytes[pos] ^= 1 << flip_bit;
        let _ = drive(&bytes, doc.dict.len());
    }

    /// Truncations of valid encodings: no panic, no hang.
    #[test]
    fn truncations_never_panic(children in 1usize..6, cut in any::<u32>()) {
        let mut xml = String::from("<r>");
        for i in 0..children {
            xml.push_str(&format!("<x>t{i}</x>"));
        }
        xml.push_str("</r>");
        let doc = Document::parse(&xml).unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let cut = cut as usize % (enc.bytes.len() + 1);
        let _ = drive(&enc.bytes[..cut], doc.dict.len());
    }

    /// A wrong dictionary size must not panic either.
    #[test]
    fn wrong_dictionary_never_panics(wrong_dict in 1usize..64) {
        let doc = Document::parse("<a><b>x</b><c>y</c></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let _ = drive(&enc.bytes, wrong_dict);
    }
}
