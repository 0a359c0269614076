//! Per-chunk Merkle hash trees over ciphertext fragments (Appendix A,
//! Figure F1).
//!
//! "Each chunk is divided into m fragments organized in a binary tree. A
//! hash value is computed for each fragment and attached to each leaf.
//! Each intermediate node contains a hash computed on the concatenation of
//! its children. The ChunkDigest is the root. When the SOE accesses bytes
//! in fragment f, the terminal sends the hashing information computed on
//! the other fragments following the Merkle hash tree strategy; the SOE
//! recomputes the root and compares it to the (encrypted) ChunkDigest."
//!
//! Division of labour: the *terminal* builds a chunk's whole tree once,
//! via [`node_table`] — `2m-1` digests in pre-order, the root first — and
//! keeps each visited chunk's node table
//! ([`LeafCache`](crate::LeafCache)); every [`range_proof`] is then read
//! off that table without hashing. The protector takes the chunk digest
//! from the same builder. The *SOE* hashes only the fragments it actually
//! reads and recombines them with the proof through [`root_from_range`];
//! it never trusts a terminal-computed digest for bytes it consumed.

use crate::sha1::{sha1, Digest, Sha1};
use std::ops::Range;

/// Combines two child digests.
pub fn combine(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha1::new();
    h.update(left);
    h.update(right);
    h.finish()
}

/// A chunk's Merkle tree as a pre-order node table: one SHA-1 per
/// fragment (over ciphertext) at the leaves, one [`combine`] per inner
/// node, `2m-1` digests for `m` fragments. `table[0]` is the chunk
/// digest; the left child of the node at `i` is at `i + 1`, its right
/// child at `i + 2l` where `l` is the left subtree's leaf count.
pub fn node_table(chunk: &[u8], fragment_size: usize) -> Vec<Digest> {
    assert!(!chunk.is_empty(), "cannot hash an empty chunk");
    let n = chunk.len().div_ceil(fragment_size);
    build_table(n, |i| sha1(&chunk[i * fragment_size..((i + 1) * fragment_size).min(chunk.len())]))
}

/// Pre-order node table over `n` leaves, `leaf(i)` giving leaf `i`.
fn build_table(n: usize, leaf: impl Fn(usize) -> Digest) -> Vec<Digest> {
    fn fill(leaves: Range<usize>, leaf: &impl Fn(usize) -> Digest, out: &mut Vec<Digest>) {
        if leaves.len() == 1 {
            out.push(leaf(leaves.start));
            return;
        }
        let at = out.len();
        out.push(Digest::default()); // set once both children are in
        let mid = split_point(&leaves);
        fill(leaves.start..mid, leaf, out);
        let right = out.len();
        fill(mid..leaves.end, leaf, out);
        out[at] = combine(&out[at + 1], &out[right]);
    }
    let mut out = Vec::with_capacity(2 * n - 1);
    fill(0..n, &leaf, &mut out);
    out
}

/// Terminal side: the sibling digests the SOE needs to recompute the root
/// while knowing only the leaves in `range`, read off the chunk's
/// [`node_table`] (no hashing). Returned in the deterministic traversal
/// order consumed by [`root_from_range`].
pub fn range_proof(table: &[Digest], range: Range<usize>) -> Vec<Digest> {
    fn collect(
        table: &[Digest],
        at: usize,
        interval: Range<usize>,
        range: &Range<usize>,
        out: &mut Vec<Digest>,
    ) {
        if interval.end <= range.start || interval.start >= range.end {
            // Disjoint: the whole subtree is one proof element.
            out.push(table[at]);
            return;
        }
        if range.start <= interval.start && interval.end <= range.end {
            return; // fully known to the SOE
        }
        let mid = split_point(&interval);
        collect(table, at + 1, interval.start..mid, range, out);
        collect(table, at + 2 * (mid - interval.start), mid..interval.end, range, out);
    }
    let mut proof = Vec::new();
    collect(table, 0, 0..table.len().div_ceil(2), &range, &mut proof);
    proof
}

/// The left subtree covers the largest power of two < len (a left-complete
/// tree — both sides must agree on this shape).
fn split_point(interval: &Range<usize>) -> usize {
    let len = interval.len();
    debug_assert!(len >= 2);
    let half = (len + 1).next_power_of_two() / 2;
    let left = if half >= len { len / 2 } else { half };
    interval.start + left.max(1)
}

/// SOE side: recomputes the root knowing the leaves in `range` (computed
/// from the bytes it read) and the terminal-provided `proof`.
pub fn root_from_range(
    n_leaves: usize,
    range: Range<usize>,
    range_leaves: &[Digest],
    proof: &[Digest],
) -> Digest {
    assert_eq!(range.len(), range_leaves.len());
    let mut cursor = 0usize;
    let mut next_proof = || {
        let d = proof[cursor];
        cursor += 1;
        d
    };
    let root = root_known(range_leaves, &range, 0..n_leaves, &mut next_proof);
    assert_eq!(cursor, proof.len(), "proof length mismatch");
    root
}

fn root_known(
    known: &[Digest],
    range: &Range<usize>,
    interval: Range<usize>,
    next_proof: &mut impl FnMut() -> Digest,
) -> Digest {
    if interval.end <= range.start || interval.start >= range.end {
        return next_proof();
    }
    if interval.len() == 1 {
        // Overlaps the range, so known: the SOE's own leaf hash.
        return known[interval.start - range.start];
    }
    let mid = split_point(&interval);
    combine(
        &root_known(known, range, interval.start..mid, next_proof),
        &root_known(known, range, mid..interval.end, next_proof),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n).map(|i| sha1(&[i as u8])).collect()
    }

    /// The node table over a given leaf list.
    fn table_of(leaves: &[Digest]) -> Vec<Digest> {
        build_table(leaves.len(), |i| leaves[i])
    }

    /// Reference builder: recursive over the leaves, re-hashing every
    /// sibling subtree on each call.
    mod oracle {
        use super::super::{combine, split_point};
        use crate::sha1::Digest;
        use std::ops::Range;

        pub fn merkle_root(leaves: &[Digest]) -> Digest {
            subtree_root(leaves, 0..leaves.len())
        }

        pub fn range_proof(leaves: &[Digest], range: Range<usize>) -> Vec<Digest> {
            let mut proof = Vec::new();
            collect_proof(leaves, 0..leaves.len(), &range, &mut proof);
            proof
        }

        fn collect_proof(
            leaves: &[Digest],
            interval: Range<usize>,
            range: &Range<usize>,
            out: &mut Vec<Digest>,
        ) {
            if interval.end <= range.start || interval.start >= range.end {
                out.push(subtree_root(leaves, interval));
                return;
            }
            if range.start <= interval.start && interval.end <= range.end {
                return;
            }
            let mid = split_point(&interval);
            collect_proof(leaves, interval.start..mid, range, out);
            collect_proof(leaves, mid..interval.end, range, out);
        }

        fn subtree_root(leaves: &[Digest], interval: Range<usize>) -> Digest {
            if interval.len() == 1 {
                return leaves[interval.start];
            }
            let mid = split_point(&interval);
            combine(
                &subtree_root(leaves, interval.start..mid),
                &subtree_root(leaves, mid..interval.end),
            )
        }
    }

    #[test]
    fn single_leaf_root() {
        let l = leaves(1);
        assert_eq!(table_of(&l), l);
    }

    #[test]
    fn figure_f1_shape() {
        // 8 fragments, SOE reads fragment 2 (0-based): proof = H1..H2
        // combined pair, H4, H5678 — i.e. 3 digests.
        let l = leaves(8);
        let table = table_of(&l);
        let proof = range_proof(&table, 2..3);
        assert_eq!(proof.len(), 3);
        let root = root_from_range(8, 2..3, &l[2..3], &proof);
        assert_eq!(root, table[0]);
    }

    #[test]
    fn all_ranges_all_sizes_verify() {
        for n in 1..=9 {
            let l = leaves(n);
            let table = table_of(&l);
            for a in 0..n {
                for b in a + 1..=n {
                    let proof = range_proof(&table, a..b);
                    let got = root_from_range(n, a..b, &l[a..b], &proof);
                    assert_eq!(got, table[0], "n={n} range={a}..{b}");
                }
            }
        }
    }

    #[test]
    fn node_table_matches_recursive_oracle() {
        // Root, every proof and its verification agree with the
        // recursive builder, for every leaf count and every sub-range.
        for n in 1..=33 {
            let l = leaves(n);
            let table = table_of(&l);
            assert_eq!(table.len(), 2 * n - 1, "n={n}");
            assert_eq!(table[0], oracle::merkle_root(&l), "n={n}");
            for a in 0..n {
                for b in a + 1..=n {
                    let proof = range_proof(&table, a..b);
                    assert_eq!(proof, oracle::range_proof(&l, a..b), "n={n} range={a}..{b}");
                    assert_eq!(root_from_range(n, a..b, &l[a..b], &proof), table[0]);
                }
            }
        }
    }

    #[test]
    fn node_table_of_chunk_hashes_its_fragments() {
        // The chunk builder's leaves are the fragments' SHA-1s (a short
        // tail fragment included), and its root is the oracle's.
        let chunk: Vec<u8> = (0..1000u32).map(|i| (i * 13 % 251) as u8).collect();
        let frags: Vec<Digest> = chunk.chunks(128).map(sha1).collect();
        assert_eq!(node_table(&chunk, 128), table_of(&frags));
        assert_eq!(node_table(&chunk, 128)[0], oracle::merkle_root(&frags));
    }

    #[test]
    fn wrong_leaf_fails_verification() {
        let l = leaves(8);
        let table = table_of(&l);
        let proof = range_proof(&table, 3..5);
        let mut bad = l[3..5].to_vec();
        bad[0][0] ^= 1;
        let got = root_from_range(8, 3..5, &bad, &proof);
        assert_ne!(got, table[0]);
    }

    #[test]
    fn fragment_hashing_partial_tail() {
        // 700 bytes in 256-byte fragments: 3 leaves, the last one short.
        let data = vec![9u8; 700];
        let table = node_table(&data, 256);
        assert_eq!(table.len(), 5);
        // Pre-order: root, (0,1) pair, leaf 0, leaf 1, leaf 2.
        assert_eq!(table[4], sha1(&data[512..700]));
    }

    #[test]
    fn proof_size_logarithmic() {
        let l = leaves(64);
        let proof = range_proof(&table_of(&l), 17..18);
        assert!(
            proof.len() <= 6,
            "single-leaf proof in a 64-leaf tree is ≤ log2(64): {}",
            proof.len()
        );
    }
}
