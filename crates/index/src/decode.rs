//! Streaming decoder for the Skip index (TCSBR) with subtree skipping.
//!
//! The decoder mirrors §4.1's description: "the SOE stores the tag
//! dictionary and uses an internal SkipStack to record the DescTag and
//! SubtreeSize of the current element. When decoding an element e,
//! DescTag_parent(e) and SubtreeSize_parent(e) are retrieved from this
//! stack and used to decode in turn TagArray_e, SubtreeSize_e and the
//! encoded tag of e."
//!
//! [`CursorDecoder`] is the one decoder, and the only code that knows
//! the record format (leaf bit, tag index, subtree size, TagArray). It
//! pulls every byte through a [`ByteSource`] — in the SOE a metered,
//! verifying reader over the chunk store; in tests and oracles a
//! [`SliceSource`] over a resident buffer — so the source observes
//! exactly the skip-index access pattern. Skipping an open subtree is a
//! position seek to its body end: none of its bytes are fetched. A
//! pending subtree saved as a [`DecoderContext`] is re-decoded later by
//! [`CursorDecoder::read_back`] (read-back, §5): the saved range is
//! fetched in one pull and parsed in place by the same record parser,
//! without re-analyzing anything else.
//!
//! The decode loop is allocation-light: text nodes are returned as `&str`
//! slices borrowing the decoder's fetch buffers (no per-node `String`),
//! readback appends into a caller-owned event buffer, and an element
//! record's only allocation is its child-context tag list — never
//! anything per text byte.

use crate::bits::{width_for, BitReader};
use std::fmt;
use std::sync::Arc;
use xsac_xml::{Event, TagId, TagSet};

/// Decode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl DecodeError {
    fn at(offset: usize, message: &str) -> DecodeError {
        DecodeError { offset, message: message.into() }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for DecodeError {}

/// One decoded node event.
///
/// Borrows the decoder: text nodes are `&str` views of its fetch buffer,
/// so pulling events never allocates per text node. An element's
/// descendant-tag set (the decoded TagArray) is exposed through
/// [`CursorDecoder::last_desc`] — kept in a buffer the decoder reuses for
/// every record.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodedNode<'a> {
    /// An element opens. `body` is the byte extent of its content; its
    /// descendant tags are in [`CursorDecoder::last_desc`] until the next
    /// call.
    Element {
        /// The element tag.
        tag: TagId,
        /// Byte extent `[start, end)` of the body.
        body: (usize, usize),
    },
    /// A text node, borrowed from the decoder's fetch buffer.
    Text(&'a str),
    /// An element closes (synthesized — the encoding has no closing tags).
    Close(TagId),
    /// End of document.
    End,
}

/// Snapshot sufficient to re-decode a byte range later (pending-subtree
/// readback): the record's starting offset, its end, and the decoding
/// context it is read under.
#[derive(Debug, Clone)]
pub struct DecoderContext {
    /// First byte of the range (a record boundary).
    pub start: usize,
    /// One past the last byte of the range.
    pub end: usize,
    /// `DescTag_parent`: tag list the records are indexed against.
    pub tags: Arc<[TagId]>,
    /// `SubtreeSize_parent`: the size bound for the size fields.
    pub body_bound: u64,
}

/// One SkipStack entry: an open element, or the implicit parent of the
/// records at the top of a document or a readback range.
struct Level {
    tag: TagId,
    /// `DescTag`: the tag list the children's records are indexed against.
    tags: Arc<[TagId]>,
    /// `SubtreeSize`: the bound of the children's size fields.
    body_bound: u64,
    /// One past the last body byte.
    end: usize,
}

/// A parsed record header.
struct Record {
    tag: TagId,
    body_start: usize,
    body_end: usize,
}

/// A fallible, random-access byte provider the [`CursorDecoder`] pulls
/// encoded ranges through — the seam between the index layer and
/// whatever fetches, verifies and decrypts those bytes (in the SOE, a
/// metered `SoeReader` over a `ChunkStore`; in tests, a plain slice).
///
/// Every byte the decoder consumes goes through [`ByteSource::fetch`], so
/// a metering source observes exactly the decoder's touch pattern: the
/// records it reads, never the subtrees it skips.
pub trait ByteSource {
    /// Fetch failure type.
    type Error;

    /// Total document length in bytes.
    fn len(&self) -> usize;

    /// True when the document is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the bytes `offset..offset + len` to `out`. On error
    /// nothing may remain appended (the caller's buffer is rolled back to
    /// its length at entry, as `SoeReader::read_into` guarantees).
    fn fetch(&mut self, offset: usize, len: usize, out: &mut Vec<u8>) -> Result<(), Self::Error>;
}

/// [`ByteSource`] over an in-memory slice (tests, oracles).
pub struct SliceSource<'a>(pub &'a [u8]);

impl ByteSource for SliceSource<'_> {
    type Error = DecodeError;

    fn len(&self) -> usize {
        self.0.len()
    }

    fn fetch(&mut self, offset: usize, len: usize, out: &mut Vec<u8>) -> Result<(), DecodeError> {
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= self.0.len())
            .ok_or_else(|| DecodeError::at(offset, "fetch past end of input"))?;
        out.extend_from_slice(&self.0[offset..end]);
        Ok(())
    }
}

/// Error of a [`CursorDecoder`]: either the source failed to deliver
/// bytes (a storage fault, an integrity violation) or the delivered bytes
/// failed to decode.
#[derive(Debug, Clone, PartialEq)]
pub enum CursorError<E> {
    /// The byte source failed.
    Source(E),
    /// The fetched bytes are not a valid record stream.
    Decode(DecodeError),
}

impl<E> From<DecodeError> for CursorError<E> {
    fn from(e: DecodeError) -> Self {
        CursorError::Decode(e)
    }
}

impl From<CursorError<DecodeError>> for DecodeError {
    fn from(e: CursorError<DecodeError>) -> Self {
        match e {
            CursorError::Source(e) | CursorError::Decode(e) => e,
        }
    }
}

impl<E: fmt::Display> fmt::Display for CursorError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CursorError::Source(e) => write!(f, "source error: {e}"),
            CursorError::Decode(e) => e.fmt(f),
        }
    }
}

impl<E: fmt::Display + fmt::Debug> std::error::Error for CursorError<E> {}

/// Streaming TCSBR decoder over a [`ByteSource`]. Instead of indexing a
/// resident flat buffer it fetches each record's header and body on
/// demand, so the bytes resident at any moment are one record header plus
/// (for text) one text body, and the source sees precisely the skip-index
/// access pattern: headers of the records on the authorized path, bodies
/// of delivered text, and nothing of skipped subtrees.
///
/// Returned [`DecodedNode`]s borrow the decoder's internal fetch buffer,
/// so each node must be consumed before the next call.
pub struct CursorDecoder<R: ByteSource> {
    src: R,
    pos: usize,
    /// Implicit parent of the root record: the whole dictionary as tag
    /// context, ending where the 4-byte header says the root record ends.
    root: Level,
    stack: Vec<Level>,
    last_element: Option<DecoderContext>,
    last_desc: TagSet,
    desc_buf: Vec<TagId>,
    done: bool,
    /// Scratch for the current record header.
    hdr: Vec<u8>,
    /// Scratch for the current text body.
    text: Vec<u8>,
    /// Scratch for readback ranges (see [`CursorDecoder::read_back`]).
    range: Vec<u8>,
    /// Total bytes fetched by `next` (skipped bytes are *not* counted —
    /// that is the point of the index).
    pub bytes_read: usize,
}

impl<R: ByteSource> CursorDecoder<R> {
    /// Creates a cursor over a source; `dict_len` is the tag dictionary
    /// size. Fetches the 4-byte root-record header immediately.
    pub fn new(mut src: R, dict_len: usize) -> Result<CursorDecoder<R>, CursorError<R::Error>> {
        if src.len() < 4 {
            return Err(DecodeError::at(0, "missing header").into());
        }
        let mut hdr = Vec::with_capacity(4);
        src.fetch(0, 4, &mut hdr).map_err(CursorError::Source)?;
        let root = Level {
            tag: TagId::TEXT,
            tags: (0..dict_len as u32).map(TagId).collect(),
            body_bound: u32::MAX as u64,
            end: 4 + u32::from_be_bytes(hdr[..4].try_into().expect("4 bytes")) as usize,
        };
        Ok(CursorDecoder {
            src,
            pos: 4,
            root,
            stack: Vec::new(),
            last_element: None,
            last_desc: TagSet::new(),
            desc_buf: Vec::new(),
            done: false,
            hdr,
            text: Vec::new(),
            range: Vec::new(),
            bytes_read: 4,
        })
    }

    /// The underlying source (e.g. to inspect its metering).
    pub fn source(&self) -> &R {
        &self.src
    }

    /// Consumes the cursor, returning the source.
    pub fn into_source(self) -> R {
        self.src
    }

    /// Descendant-tag set (`DescTag_e`, the decoded TagArray) of the
    /// element most recently returned by [`CursorDecoder::next`] — empty
    /// for leaves. Valid until the next `next` call.
    pub fn last_desc(&self) -> &TagSet {
        &self.last_desc
    }

    /// Current absolute byte position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The context of the element record most recently returned by
    /// [`CursorDecoder::next`] — save it before skipping to allow
    /// readback.
    pub fn last_element_context(&self) -> Option<DecoderContext> {
        self.last_element.clone()
    }

    /// Context covering the *remaining* content of the current element
    /// (skip-rest on close directives).
    pub fn rest_context(&self) -> Option<DecoderContext> {
        let top = self.stack.last()?;
        Some(DecoderContext {
            start: self.pos,
            end: top.end,
            tags: top.tags.clone(),
            body_bound: top.body_bound,
        })
    }

    /// Next node in document order. Fetches the record's header (and, for
    /// text, its body) from the source; the returned node borrows the
    /// decoder's fetch buffers.
    #[allow(clippy::should_implement_trait)] // fallible pull-style next()
    pub fn next(&mut self) -> Result<DecodedNode<'_>, CursorError<R::Error>> {
        if self.done {
            return Ok(DecodedNode::End);
        }
        // Close any element whose body is exhausted.
        if let Some(top) = self.stack.last() {
            debug_assert!(self.pos <= top.end, "decoder overran a subtree");
            if self.pos == top.end {
                let level = self.stack.pop().expect("non-empty");
                if self.stack.is_empty() {
                    self.done = true;
                }
                return Ok(DecodedNode::Close(level.tag));
            }
        }
        if self.stack.is_empty() && self.pos > 4 {
            self.done = true;
            return Ok(DecodedNode::End);
        }

        let parent = self.stack.last().unwrap_or(&self.root);
        let start = self.pos;
        let rec =
            Self::parse_record(&mut self.src, &mut self.hdr, &mut self.desc_buf, start, parent)?;
        self.bytes_read += rec.body_start - start;
        self.last_desc.clear();
        for &t in &self.desc_buf {
            self.last_desc.insert(t);
        }
        if rec.tag == TagId::TEXT {
            if self.stack.is_empty() {
                return Err(DecodeError::at(start, "text node at document root").into());
            }
            let size = rec.body_end - rec.body_start;
            self.text.clear();
            self.src.fetch(rec.body_start, size, &mut self.text).map_err(CursorError::Source)?;
            let text = std::str::from_utf8(&self.text)
                .map_err(|_| DecodeError::at(rec.body_start, "invalid UTF-8 text"))?;
            self.pos = rec.body_end;
            self.bytes_read += size;
            return Ok(DecodedNode::Text(text));
        }
        // Element record. The child-context tag list is the only
        // per-record allocation (it outlives this record via saved
        // `DecoderContext`s).
        self.last_element = Some(DecoderContext {
            start,
            end: rec.body_end,
            tags: parent.tags.clone(),
            body_bound: parent.body_bound,
        });
        self.stack.push(Level {
            tag: rec.tag,
            tags: self.desc_buf.as_slice().into(),
            body_bound: (rec.body_end - rec.body_start) as u64,
            end: rec.body_end,
        });
        self.pos = rec.body_start;
        Ok(DecodedNode::Element { tag: rec.tag, body: (rec.body_start, rec.body_end) })
    }

    /// Skips the element opened by the last [`DecodedNode::Element`]: a
    /// pure position seek — the source is never asked for the skipped
    /// bytes, which is the whole point of the index.
    pub fn skip_current(&mut self) {
        let level = self.stack.pop().expect("skip_current without open element");
        self.pos = level.end;
        if self.stack.is_empty() {
            self.done = true;
        }
    }

    /// Skips the remaining content of the current element (after some of
    /// its children were decoded) and pops it without emitting its close.
    pub fn skip_rest(&mut self) {
        self.skip_current();
    }

    /// Re-decodes the records of a saved context into `out` (pending
    /// readback, §5). The range may hold one subtree or a forest of
    /// records. It is fetched in one pull through the source — metered
    /// and verified like any other access — and parsed in place by the
    /// same record parser as [`CursorDecoder::next`]; offsets in errors
    /// stay absolute. Text events borrow the decoder's range buffer, so
    /// `out` must be released before the next call on the decoder, and
    /// one buffer serves every readback of a session. Navigation state
    /// and `bytes_read` are untouched.
    pub fn read_back<'s>(
        &'s mut self,
        ctx: &DecoderContext,
        out: &mut Vec<Event<'s>>,
    ) -> Result<(), CursorError<R::Error>> {
        out.clear();
        if ctx.end < ctx.start {
            return Err(DecodeError::at(ctx.start, "inverted range").into());
        }
        let CursorDecoder { src, hdr, desc_buf, range, .. } = self;
        range.clear();
        src.fetch(ctx.start, ctx.end - ctx.start, range).map_err(CursorError::Source)?;
        let data: &'s [u8] = &range[..];
        // Positions below are relative to the range; errors are shifted
        // back to document offsets.
        let absolute = |e: CursorError<DecodeError>| {
            let e = DecodeError::from(e);
            CursorError::Decode(DecodeError { offset: ctx.start + e.offset, ..e })
        };
        // The bottom level is the range itself; it never closes.
        let mut stack = vec![Level {
            tag: TagId::TEXT,
            tags: ctx.tags.clone(),
            body_bound: ctx.body_bound,
            end: data.len(),
        }];
        let mut pos = 0;
        loop {
            while let Some(top) = stack.last().filter(|l| l.end == pos) {
                if stack.len() == 1 {
                    return Ok(());
                }
                out.push(Event::Close(top.tag));
                stack.pop();
            }
            let parent = stack.last().expect("range level");
            let rec = Self::parse_record(&mut SliceSource(data), hdr, desc_buf, pos, parent)
                .map_err(absolute)?;
            if rec.tag == TagId::TEXT {
                let text =
                    std::str::from_utf8(&data[rec.body_start..rec.body_end]).map_err(|_| {
                        absolute(DecodeError::at(rec.body_start, "invalid UTF-8 text").into())
                    })?;
                out.push(Event::Text(text.into()));
                pos = rec.body_end;
            } else {
                out.push(Event::Open(rec.tag));
                stack.push(Level {
                    tag: rec.tag,
                    tags: desc_buf.as_slice().into(),
                    body_bound: (rec.body_end - rec.body_start) as u64,
                    end: rec.body_end,
                });
                pos = rec.body_start;
            }
        }
    }

    /// Parses the header of the record at `start` under `parent`: the leaf
    /// bit, tag index, subtree size and (for internal elements) the TagArray,
    /// which is left in `desc`. Fetches exactly the header's bytes through
    /// `src` into `hdr`. A record reaching past its parent's end — header or
    /// body — is an error before anything past that end is fetched.
    fn parse_record<S: ByteSource>(
        src: &mut S,
        hdr: &mut Vec<u8>,
        desc: &mut Vec<TagId>,
        start: usize,
        parent: &Level,
    ) -> Result<Record, CursorError<S::Error>> {
        let err = |message: &str| CursorError::Decode(DecodeError::at(start, message));
        let tags = &parent.tags;
        // The widths of the fixed prefix (leaf bit, tag index, size) are
        // known from the parent context before reading a single byte, and
        // the leaf bit alone says whether a TagArray of one bit per parent
        // tag follows: fetch exactly the header, then parse it in one pass.
        let tagw = width_for(tags.len().saturating_sub(1) as u64);
        let sizew = width_for(parent.body_bound);
        let prefix_bits = (1 + tagw + sizew) as usize;
        let prefix_bytes = prefix_bits.div_ceil(8);
        let overrun = || err("record overruns its parent");
        if start + prefix_bytes > parent.end {
            return Err(overrun());
        }
        hdr.clear();
        src.fetch(start, prefix_bytes, hdr).map_err(CursorError::Source)?;
        let leaf = BitReader::at(hdr, 0).read_bit().ok_or_else(|| err("eof in leaf bit"))?;
        let hdr_len = if leaf { prefix_bytes } else { (prefix_bits + tags.len()).div_ceil(8) };
        if start + hdr_len > parent.end {
            return Err(overrun());
        }
        if hdr_len > prefix_bytes {
            src.fetch(start + prefix_bytes, hdr_len - prefix_bytes, hdr)
                .map_err(CursorError::Source)?;
        }
        let mut r = BitReader::at(hdr, 0);
        r.read_bit();
        let idx = r.read(tagw).ok_or_else(|| err("eof in tag index"))? as usize;
        let tag = *tags.get(idx).ok_or_else(|| err("tag index out of context"))?;
        let size = r.read(sizew).ok_or_else(|| err("eof in size"))? as usize;
        let body_end = start + hdr_len + size;
        if body_end > parent.end {
            return Err(overrun());
        }
        desc.clear();
        if !leaf {
            for &t in tags.iter() {
                if r.read_bit().ok_or_else(|| err("eof in tag array"))? {
                    desc.push(t);
                }
            }
        }
        Ok(Record { tag, body_start: start + hdr_len, body_end })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_document, Encoding};
    use xsac_xml::Document;

    fn cursor(bytes: &[u8], dict_len: usize) -> CursorDecoder<SliceSource<'_>> {
        CursorDecoder::new(SliceSource(bytes), dict_len).unwrap()
    }

    /// Every event of a full (skip-free) walk, owned.
    fn decode_all(bytes: &[u8], dict_len: usize) -> Vec<Event<'static>> {
        let mut d = cursor(bytes, dict_len);
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

    fn roundtrip(xml: &str) {
        let doc = Document::parse(xml).unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        assert_eq!(decode_all(&enc.bytes, doc.dict.len()), doc.events(), "roundtrip of {xml}");
    }

    #[test]
    fn roundtrip_simple() {
        roundtrip("<a><b>one</b><c>two</c></a>");
    }

    #[test]
    fn roundtrip_deep_and_mixed() {
        roundtrip("<a>t1<b><c><d>deep</d></c></b>t2<e></e></a>");
    }

    #[test]
    fn roundtrip_empty_root() {
        roundtrip("<a></a>");
    }

    #[test]
    fn roundtrip_repeated_tags_recursive() {
        roundtrip("<a><a><a>x</a></a><a>y</a></a>");
    }

    #[test]
    fn skip_current_lands_on_sibling() {
        let doc = Document::parse("<a><b><x>111</x><y>222</y></b><c>cc</c></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let mut d = cursor(&enc.bytes, doc.dict.len());
        let b = doc.dict.get("b").unwrap();
        let c = doc.dict.get("c").unwrap();
        // a
        assert!(matches!(d.next().unwrap(), DecodedNode::Element { .. }));
        // b → skip it
        match d.next().unwrap() {
            DecodedNode::Element { tag, .. } => assert_eq!(tag, b),
            other => panic!("{other:?}"),
        }
        d.skip_current();
        // next must be c
        match d.next().unwrap() {
            DecodedNode::Element { tag, .. } => assert_eq!(tag, c),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn skipped_bytes_not_counted() {
        let doc = Document::parse(
            "<a><b><x>0123456789012345678901234567890123456789</x></b><c>c</c></a>",
        )
        .unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let full = {
            let mut d = cursor(&enc.bytes, doc.dict.len());
            while !matches!(d.next().unwrap(), DecodedNode::End) {}
            d.bytes_read
        };
        let skipped = {
            let mut d = cursor(&enc.bytes, doc.dict.len());
            d.next().unwrap(); // a
            d.next().unwrap(); // b
            d.skip_current();
            while !matches!(d.next().unwrap(), DecodedNode::End) {}
            d.bytes_read
        };
        assert_eq!(full, enc.bytes.len(), "a full walk reads every byte once");
        assert!(skipped + 40 <= full, "skipping must save the text bytes: {skipped} vs {full}");
    }

    #[test]
    fn readback_matches_skipped_subtree() {
        let doc = Document::parse("<a><b><x>11</x><y>22</y></b><c>cc</c></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let mut d = cursor(&enc.bytes, doc.dict.len());
        d.next().unwrap(); // a
        d.next().unwrap(); // b
        let ctx = d.last_element_context().unwrap();
        d.skip_current();
        let mut events = Vec::new();
        d.read_back(&ctx, &mut events).unwrap();
        let b = doc.dict.get("b").unwrap();
        let x = doc.dict.get("x").unwrap();
        let y = doc.dict.get("y").unwrap();
        assert_eq!(
            events,
            vec![
                Event::Open(b),
                Event::Open(x),
                Event::Text("11".into()),
                Event::Close(x),
                Event::Open(y),
                Event::Text("22".into()),
                Event::Close(y),
                Event::Close(b),
            ]
        );
        // Readback leaves navigation where it was: c follows.
        let c = doc.dict.get("c").unwrap();
        assert!(matches!(d.next().unwrap(), DecodedNode::Element { tag, .. } if tag == c));
    }

    #[test]
    fn rest_context_covers_remaining_children() {
        let doc = Document::parse("<a><b>1</b><c>2</c><d>3</d></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let mut d = cursor(&enc.bytes, doc.dict.len());
        d.next().unwrap(); // a
        d.next().unwrap(); // b
        d.next().unwrap(); // "1"
        d.next().unwrap(); // /b
        let ctx = d.rest_context().unwrap();
        d.skip_rest();
        assert!(matches!(d.next().unwrap(), DecodedNode::End));
        let mut events = Vec::new();
        d.read_back(&ctx, &mut events).unwrap();
        let c = doc.dict.get("c").unwrap();
        let dd = doc.dict.get("d").unwrap();
        assert_eq!(
            events,
            vec![
                Event::Open(c),
                Event::Text("2".into()),
                Event::Close(c),
                Event::Open(dd),
                Event::Text("3".into()),
                Event::Close(dd),
            ]
        );
    }

    #[test]
    fn desc_tags_exposed_on_open() {
        let doc = Document::parse("<a><b><c>x</c></b></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let mut d = cursor(&enc.bytes, doc.dict.len());
        match d.next().unwrap() {
            DecodedNode::Element { .. } => {
                let desc = d.last_desc();
                assert!(desc.contains(doc.dict.get("b").unwrap()));
                assert!(desc.contains(doc.dict.get("c").unwrap()));
                assert!(desc.contains(TagId::TEXT));
                assert!(!desc.contains(doc.dict.get("a").unwrap()));
            }
            other => panic!("{other:?}"),
        }
        // The buffer is reused: after the next element it holds that
        // element's descendants.
        match d.next().unwrap() {
            DecodedNode::Element { .. } => {
                let desc = d.last_desc();
                assert!(desc.contains(doc.dict.get("c").unwrap()));
                assert!(!desc.contains(doc.dict.get("b").unwrap()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn garbage_header_errors() {
        assert!(CursorDecoder::new(SliceSource(&[1, 2]), 5).is_err());
    }

    /// A `ByteSource` that counts fetched bytes — stands in for the
    /// metered SOE reader to pin the cursor's touch pattern.
    struct CountingSource<'a> {
        data: &'a [u8],
        fetched: usize,
    }

    impl ByteSource for CountingSource<'_> {
        type Error = DecodeError;
        fn len(&self) -> usize {
            self.data.len()
        }
        fn fetch(
            &mut self,
            offset: usize,
            len: usize,
            out: &mut Vec<u8>,
        ) -> Result<(), DecodeError> {
            SliceSource(self.data).fetch(offset, len, out)?;
            self.fetched += len;
            Ok(())
        }
    }

    /// The cursor against the document's own event stream: the same
    /// events, each element's TagArray equal to the tags below it, a
    /// depth that tracks the open elements, body extents that agree with
    /// the positions the walk reaches, and every byte read exactly once.
    #[test]
    fn cursor_matches_document_events() {
        for xml in [
            "<a></a>",
            "<a><b>one</b><c>two</c></a>",
            "<a>t1<b><c><d>deep</d></c></b>t2<e></e></a>",
            "<a><a><a>x</a></a><a>y</a></a>",
        ] {
            let doc = Document::parse(xml).unwrap();
            let enc = encode_document(&doc, Encoding::TCSBR);
            let expected = doc.events();
            let mut d = cursor(&enc.bytes, doc.dict.len());
            let mut ends = Vec::new();
            for (i, want) in expected.iter().enumerate() {
                let got = match d.next().unwrap() {
                    DecodedNode::Element { tag, body } => {
                        assert_eq!(body.0, d.position(), "{xml}");
                        ends.push(body.1);
                        Event::Open(tag)
                    }
                    DecodedNode::Text(t) => Event::Text(t.to_owned().into()),
                    DecodedNode::Close(t) => {
                        assert_eq!(ends.pop(), Some(d.position()), "{xml}");
                        Event::Close(t)
                    }
                    DecodedNode::End => panic!("early end in {xml}"),
                };
                assert_eq!(&got, want, "{xml}");
                assert_eq!(d.depth(), ends.len(), "{xml}");
                if let Event::Open(_) = want {
                    // Tags strictly inside this element, up to its close.
                    let mut below = TagSet::new();
                    let mut depth = 0usize;
                    for ev in &expected[i + 1..] {
                        match ev {
                            Event::Open(t) => {
                                below.insert(*t);
                                depth += 1;
                            }
                            Event::Text(_) => {
                                below.insert(TagId::TEXT);
                            }
                            Event::Close(_) if depth == 0 => break,
                            Event::Close(_) => depth -= 1,
                        }
                    }
                    assert_eq!(d.last_desc().to_vec(), below.to_vec(), "{xml}");
                }
            }
            assert!(matches!(d.next().unwrap(), DecodedNode::End), "{xml}");
            assert_eq!(d.position(), enc.bytes.len(), "{xml}");
            assert_eq!(d.bytes_read, enc.bytes.len(), "{xml}");
        }
    }

    #[test]
    fn cursor_skip_fetches_nothing_from_skipped_subtree() {
        let doc = Document::parse(
            "<a><b><x>0123456789012345678901234567890123456789</x></b><c>c</c></a>",
        )
        .unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let full = {
            let mut d =
                CursorDecoder::new(CountingSource { data: &enc.bytes, fetched: 0 }, doc.dict.len())
                    .unwrap();
            while !matches!(d.next().unwrap(), DecodedNode::End) {}
            d.into_source().fetched
        };
        let skipped = {
            let mut d =
                CursorDecoder::new(CountingSource { data: &enc.bytes, fetched: 0 }, doc.dict.len())
                    .unwrap();
            d.next().unwrap(); // a
            d.next().unwrap(); // b
            d.skip_current();
            while !matches!(d.next().unwrap(), DecodedNode::End) {}
            d.into_source().fetched
        };
        assert!(skipped + 40 <= full, "skip must not fetch the subtree: {skipped} vs {full}");
    }

    #[test]
    fn cursor_readback_decodes_from_fetched_range_only() {
        let doc = Document::parse("<a><b><x>11</x><y>22</y></b><c>cc</c></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let mut d =
            CursorDecoder::new(CountingSource { data: &enc.bytes, fetched: 0 }, doc.dict.len())
                .unwrap();
        d.next().unwrap(); // a
        d.next().unwrap(); // b
        let ctx = d.last_element_context().unwrap();
        d.skip_current();
        let before = d.source().fetched;
        let mut events = Vec::new();
        d.read_back(&ctx, &mut events).unwrap();
        assert_eq!(events.len(), 8);
        drop(events);
        assert_eq!(d.source().fetched - before, ctx.end - ctx.start);
    }

    #[test]
    fn read_back_rejects_range_outside_source() {
        let doc = Document::parse("<a><b>hello</b></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let mut d = cursor(&enc.bytes, doc.dict.len());
        d.next().unwrap(); // a
        d.next().unwrap(); // b
        let ctx = d.last_element_context().unwrap();
        // Past the end of the document, or inverted: typed errors.
        let past = DecoderContext { end: enc.bytes.len() + 1, ..ctx.clone() };
        assert!(d.read_back(&past, &mut Vec::new()).is_err());
        let inverted = DecoderContext { start: ctx.end, end: ctx.start, ..ctx };
        assert!(d.read_back(&inverted, &mut Vec::new()).is_err());
    }

    /// A readback whose record reaches past the saved range fails with
    /// the same typed overrun error `next()` reports, at the record's
    /// absolute offset.
    #[test]
    fn read_back_overrun_matches_next() {
        let doc = Document::parse("<a><b><x>11</x><y>22</y></b><c>cc</c></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let mut d = cursor(&enc.bytes, doc.dict.len());
        d.next().unwrap(); // a
        d.next().unwrap(); // b
        let ctx = d.last_element_context().unwrap();
        let short = DecoderContext { end: ctx.end - 1, ..ctx.clone() };
        let err = d.read_back(&short, &mut Vec::new()).unwrap_err();
        assert_eq!(
            err,
            CursorError::Decode(DecodeError::at(ctx.start, "record overruns its parent"))
        );

        // A child that overruns its parent inside the range: flip bits in
        // b's body until a nested record overruns; `next()` and readback
        // must then fail identically.
        let mut nested = 0;
        for bit in ctx.start * 8 + 8..ctx.end * 8 {
            let mut bytes = enc.bytes.clone();
            bytes[bit / 8] ^= 0x80 >> (bit % 8);
            let mut d = cursor(&bytes, doc.dict.len());
            d.next().unwrap(); // a
            if d.next().map(|n| matches!(n, DecodedNode::Element { .. })) != Ok(true) {
                continue;
            }
            let saved = d.last_element_context().unwrap();
            if (saved.start, saved.end) != (ctx.start, ctx.end) {
                continue;
            }
            let walk_err = loop {
                if let Err(e) = d.next() {
                    break Some(e);
                }
                if d.depth() < 2 {
                    break None;
                }
            };
            let Some(walk_err) = walk_err else { continue };
            let read_err = d.read_back(&saved, &mut Vec::new()).unwrap_err();
            assert_eq!(read_err, walk_err, "bit {bit}");
            if let CursorError::Decode(e) = &read_err {
                if e.message == "record overruns its parent" && e.offset > ctx.start {
                    nested += 1;
                }
            }
        }
        assert!(nested > 0, "no bit flip produced a nested overrun");
    }

    /// Truncation under a saved range: the readback of the document's
    /// last element fails typed.
    #[test]
    fn truncated_input_errors() {
        let doc = Document::parse("<a><b>hello world</b></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let ctx = {
            let mut d = cursor(&enc.bytes, doc.dict.len());
            d.next().unwrap(); // a
            d.next().unwrap(); // b
            d.last_element_context().unwrap()
        };
        let truncated = &enc.bytes[..enc.bytes.len() - 4];
        let mut d = cursor(truncated, doc.dict.len());
        assert!(d.read_back(&ctx, &mut Vec::new()).is_err(), "truncation must be detected");
    }

    #[test]
    fn cursor_truncated_input_errors() {
        let doc = Document::parse("<a><b>hello world</b></a>").unwrap();
        let enc = encode_document(&doc, Encoding::TCSBR);
        let truncated = &enc.bytes[..enc.bytes.len() - 4];
        let mut d = CursorDecoder::new(SliceSource(truncated), doc.dict.len()).unwrap();
        let mut result = Ok(());
        loop {
            match d.next() {
                Ok(DecodedNode::End) => break,
                Ok(_) => {}
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        assert!(result.is_err(), "truncation must be detected");
    }
}
