//! Property tests for the skip-index encodings: decode(encode(d)) == d
//! for arbitrary documents, and skipping is position-exact everywhere.

use proptest::prelude::*;
use xsac_index::decode::{CursorDecoder, DecodedNode, SliceSource};
use xsac_index::encode::{encode_document, Encoding};
use xsac_xml::{Document, Event, Node};

const TAGS: &[&str] = &["alpha", "b", "cc", "d1", "e"];

fn arb_xml() -> impl Strategy<Value = String> {
    let text = proptest::string::string_regex("[a-z0-9 ]{0,24}").expect("regex");
    let leaf = prop_oneof![
        text.prop_map(|t| t),
        proptest::sample::select(TAGS).prop_map(|t| format!("<{t}></{t}>")),
    ];
    let inner = leaf.prop_recursive(5, 40, 4, |elem| {
        (proptest::sample::select(TAGS), prop::collection::vec(elem, 0..4))
            .prop_map(|(t, cs)| format!("<{t}>{}</{t}>", cs.concat()))
    });
    (proptest::sample::select(TAGS), prop::collection::vec(inner, 0..4))
        .prop_map(|(t, cs)| format!("<{t}>{}</{t}>", cs.concat()))
}

/// Every event of a full (skip-free) cursor walk, owned.
fn decode_all(bytes: &[u8], dict_len: usize) -> Vec<Event<'static>> {
    let mut d = CursorDecoder::new(SliceSource(bytes), dict_len).unwrap();
    let mut out = Vec::new();
    loop {
        out.push(match d.next().unwrap() {
            DecodedNode::Element { tag, .. } => Event::Open(tag),
            DecodedNode::Text(t) => Event::Text(t.to_owned().into()),
            DecodedNode::Close(t) => Event::Close(t),
            DecodedNode::End => return out,
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..Default::default() })]

    #[test]
    fn tcsbr_roundtrip(xml in arb_xml()) {
        let doc = Document::parse(&xml).unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let events = decode_all(&enc.bytes, doc.dict.len());
        prop_assert_eq!(events, doc.events(), "roundtrip of {}", xml);
    }

    /// Skipping the i-th top-level element must land exactly on its next
    /// sibling for every i.
    #[test]
    fn skip_everywhere_is_position_exact(xml in arb_xml(), which in 0usize..8) {
        let doc = Document::parse(&xml).unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        // Reference: the document's full event stream.
        let full = doc.events();
        // Walk, skipping the `which`-th element at depth 2.
        let mut d = CursorDecoder::new(SliceSource(&enc.bytes), doc.dict.len()).unwrap();
        let mut got: Vec<Event<'_>> = Vec::new();
        let mut seen = 0usize;
        let mut skipped_any = false;
        loop {
            match d.next().unwrap() {
                DecodedNode::End => break,
                DecodedNode::Element { tag, .. } => {
                    if d.depth() == 2 {
                        if seen == which {
                            seen += 1;
                            skipped_any = true;
                            d.skip_current();
                            continue;
                        }
                        seen += 1;
                    }
                    got.push(Event::Open(tag));
                }
                DecodedNode::Text(t) => got.push(Event::Text(t.to_owned().into())),
                DecodedNode::Close(t) => got.push(Event::Close(t)),
            }
        }
        if !skipped_any {
            // Fewer than `which` children: plain roundtrip.
            prop_assert_eq!(got, full);
            return Ok(());
        }
        // Expected: full stream minus the skipped subtree's events.
        let mut expected: Vec<Event<'_>> = Vec::new();
        let mut seen = 0usize;
        let mut depth = 0usize;
        let mut skipping = 0usize; // depth at which the skip started
        for ev in full {
            match &ev {
                Event::Open(_) => {
                    depth += 1;
                    if skipping == 0 && depth == 2 {
                        if seen == which {
                            seen += 1;
                            skipping = depth;
                            continue;
                        }
                        seen += 1;
                    }
                }
                Event::Close(_) => {
                    if skipping > 0 && depth == skipping {
                        skipping = 0;
                        depth -= 1;
                        continue;
                    }
                    depth -= 1;
                }
                Event::Text(_) => {}
            }
            if skipping == 0 {
                expected.push(ev);
            }
        }
        prop_assert_eq!(got, expected);
    }

    /// Readback of any saved element context reproduces exactly that
    /// element's subtree, after the walk has moved past it.
    #[test]
    fn readback_everywhere(xml in arb_xml(), which in 0usize..6) {
        let doc = Document::parse(&xml).unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let mut d = CursorDecoder::new(SliceSource(&enc.bytes), doc.dict.len()).unwrap();
        let mut count = 0usize;
        let mut saved = None;
        loop {
            match d.next().unwrap() {
                DecodedNode::End => break,
                DecodedNode::Element { .. } => {
                    if count == which {
                        saved = d.last_element_context();
                    }
                    count += 1;
                }
                _ => {}
            }
        }
        let element = doc
            .preorder()
            .into_iter()
            .map(|(id, _)| id)
            .filter(|&id| matches!(doc.node(id), Node::Element { .. }))
            .nth(which);
        prop_assert_eq!(saved.is_some(), element.is_some());
        if let (Some(ctx), Some(id)) = (saved, element) {
            let mut expected = Vec::new();
            doc.emit(id, &mut |e| expected.push(e.clone().into_owned()));
            let mut events = Vec::new();
            d.read_back(&ctx, &mut events).unwrap();
            prop_assert_eq!(events, expected);
        }
    }
}
