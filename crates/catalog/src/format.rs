//! The versioned binary on-disk catalog format (std-only I/O).
//!
//! A catalog file is a [`Graph`]'s two CSR arrays flattened to
//! little-endian bytes with enough integrity metadata to detect truncation,
//! bit rot, and version skew before a single neighbor is trusted:
//!
//! | bytes     | field                                          |
//! |-----------|------------------------------------------------|
//! | 0..8      | magic `b"WNWCATLG"`                            |
//! | 8..12     | format version (`u32` LE, currently 1)         |
//! | 12..20    | node count (`u64` LE)                          |
//! | 20..28    | edge count (`u64` LE, undirected)              |
//! | 28..36    | word-wise FNV-1a64 of the offsets section      |
//! | 36..44    | word-wise FNV-1a64 of the neighbors section    |
//! | 44..52    | byte-wise FNV-1a64 of header bytes 0..44       |
//! | 52..      | offsets: `(node_count + 1) × u64` LE           |
//! | then      | neighbors: `2 × edge_count × u32` LE, then EOF |
//!
//! Section checksums fold one whole element per FNV step (a `u64` per
//! offset, a zero-extended `u32` per neighbor) rather than one byte — an
//! 8× cheaper pass that keeps catalog loads far faster than regeneration.
//!
//! Everything is read through [`CatalogError`] — a damaged file can never
//! panic the loader, and after the checksums pass the arrays still go
//! through [`Graph::from_parts`] so structural invariants hold even
//! against a file whose corruption was itself checksummed.
//!
//! Catalogs hold topology only: a graph's attributes are not written, and
//! a loaded graph starts with none.

use crate::error::CatalogError;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use wnw_graph::{Graph, NodeId};

/// First eight bytes of every catalog file.
pub const MAGIC: [u8; 8] = *b"WNWCATLG";

/// The catalog format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed header length in bytes (magic through header checksum).
pub const HEADER_LEN: usize = 52;

/// Bytes converted per chunk when streaming sections to or from disk.
const CHUNK_ELEMS: usize = 8 * 1024;

/// Cap on any single `Vec::with_capacity` taken on a header's word: a
/// lying header can claim 2^60 nodes, and pre-reserving that would abort
/// the process before the truncation check ever runs. Reads past this just
/// grow geometrically.
const MAX_PREALLOC_BYTES: usize = 64 * 1024 * 1024;

/// FNV-1a 64-bit over a byte stream, fed incrementally.
#[derive(Debug, Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Section checksums fold whole little-endian **words** through the FNV-1a
/// round (xor, multiply) rather than single bytes: one multiply per element
/// keeps the integrity check off the load path's critical nanoseconds at
/// 1M-node scale while still catching any flipped bit in the section.
fn fold_word(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(Fnv1a::PRIME)
}

fn checksum_u64s(words: &[u64]) -> u64 {
    words
        .iter()
        .fold(Fnv1a::OFFSET_BASIS, |h, &w| fold_word(h, w))
}

fn checksum_node_ids(ids: &[NodeId]) -> u64 {
    ids.iter()
        .fold(Fnv1a::OFFSET_BASIS, |h, &u| fold_word(h, u64::from(u.0)))
}

/// Serializes `graph`'s topology to `writer` in catalog format. Catalogs
/// hold topology only: the graph's attributes are not written.
pub fn save_to<W: Write>(graph: &Graph, writer: &mut W) -> Result<(), CatalogError> {
    let offsets = graph.offsets();
    let neighbors = graph.adjacency();

    let mut header = [0u8; HEADER_LEN];
    header[0..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header[12..20].copy_from_slice(&(graph.node_count() as u64).to_le_bytes());
    header[20..28].copy_from_slice(&(graph.edge_count() as u64).to_le_bytes());
    header[28..36].copy_from_slice(&checksum_u64s(offsets).to_le_bytes());
    header[36..44].copy_from_slice(&checksum_node_ids(neighbors).to_le_bytes());
    let mut head_sum = Fnv1a::new();
    head_sum.update(&header[0..44]);
    header[44..52].copy_from_slice(&head_sum.finish().to_le_bytes());
    writer.write_all(&header)?;

    let mut buf = Vec::with_capacity(CHUNK_ELEMS * 8);
    for chunk in offsets.chunks(CHUNK_ELEMS) {
        buf.clear();
        for &w in chunk {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        writer.write_all(&buf)?;
    }
    for chunk in neighbors.chunks(CHUNK_ELEMS) {
        buf.clear();
        for &u in chunk {
            buf.extend_from_slice(&u.0.to_le_bytes());
        }
        writer.write_all(&buf)?;
    }
    writer.flush()?;
    Ok(())
}

/// Serializes `graph`'s topology to the file at `path` (created or
/// truncated). Catalogs hold topology only: the graph's attributes are not
/// written.
pub fn save(graph: &Graph, path: &Path) -> Result<(), CatalogError> {
    let mut w = BufWriter::new(File::create(path)?);
    save_to(graph, &mut w)
}

/// Total file size in bytes implied by a header's node and edge counts.
fn expected_file_len(node_count: u64, edge_count: u64) -> u64 {
    HEADER_LEN as u64 + (node_count + 1) * 8 + edge_count * 2 * 4
}

/// Reads exactly `buf.len()` bytes, translating a short read into
/// [`CatalogError::Truncated`] with the given expected/consumed totals.
fn read_exact_or_truncated<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    expected: u64,
    consumed: &mut u64,
) -> Result<(), CatalogError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(CatalogError::Truncated {
                    expected,
                    actual: *consumed + filled as u64,
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    *consumed += filled as u64;
    Ok(())
}

/// Deserializes a catalog from `reader`, verifying magic, version, all
/// three checksums, exact length, and CSR structural invariants. The
/// loaded graph has no attributes.
pub fn load_from<R: Read>(reader: &mut R) -> Result<Graph, CatalogError> {
    let mut header = [0u8; HEADER_LEN];
    let mut consumed = 0u64;
    read_exact_or_truncated(reader, &mut header, HEADER_LEN as u64, &mut consumed)?;

    let mut magic = [0u8; 8];
    magic.copy_from_slice(&header[0..8]);
    if magic != MAGIC {
        return Err(CatalogError::BadMagic { found: magic });
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4-byte slice"));
    if version != FORMAT_VERSION {
        return Err(CatalogError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let mut head_sum = Fnv1a::new();
    head_sum.update(&header[0..44]);
    let stored_head = u64::from_le_bytes(header[44..52].try_into().expect("8-byte slice"));
    if head_sum.finish() != stored_head {
        return Err(CatalogError::ChecksumMismatch { section: "header" });
    }

    let node_count = u64::from_le_bytes(header[12..20].try_into().expect("8-byte slice"));
    let edge_count = u64::from_le_bytes(header[20..28].try_into().expect("8-byte slice"));
    let stored_offsets_sum = u64::from_le_bytes(header[28..36].try_into().expect("8-byte slice"));
    let stored_neighbors_sum = u64::from_le_bytes(header[36..44].try_into().expect("8-byte slice"));
    let expected = expected_file_len(node_count, edge_count);

    let offsets_len = node_count + 1;
    let neighbors_len = edge_count * 2;
    let clamp = |elems: u64, width: usize| -> usize {
        let want = elems.saturating_mul(width as u64);
        (want.min(MAX_PREALLOC_BYTES as u64) as usize) / width
    };

    let mut offsets: Vec<u64> = Vec::with_capacity(clamp(offsets_len, 8));
    let mut neighbors: Vec<NodeId> = Vec::with_capacity(clamp(neighbors_len, 4));
    let mut buf = vec![0u8; CHUNK_ELEMS * 8];
    let mut offsets_sum = Fnv1a::OFFSET_BASIS;
    let mut remaining = offsets_len;
    while remaining > 0 {
        let take = remaining.min(CHUNK_ELEMS as u64) as usize;
        let chunk = &mut buf[..take * 8];
        read_exact_or_truncated(reader, chunk, expected, &mut consumed)?;
        for word in chunk.chunks_exact(8) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            offsets_sum = fold_word(offsets_sum, w);
            offsets.push(w);
        }
        remaining -= take as u64;
    }
    if offsets_sum != stored_offsets_sum {
        return Err(CatalogError::ChecksumMismatch { section: "offsets" });
    }

    let mut neighbors_sum = Fnv1a::OFFSET_BASIS;
    let mut remaining = neighbors_len;
    while remaining > 0 {
        let take = remaining.min((CHUNK_ELEMS * 2) as u64) as usize;
        let chunk = &mut buf[..take * 4];
        read_exact_or_truncated(reader, chunk, expected, &mut consumed)?;
        for word in chunk.chunks_exact(4) {
            let w = u32::from_le_bytes(word.try_into().expect("4-byte chunk"));
            neighbors_sum = fold_word(neighbors_sum, u64::from(w));
            neighbors.push(NodeId(w));
        }
        remaining -= take as u64;
    }
    if neighbors_sum != stored_neighbors_sum {
        return Err(CatalogError::ChecksumMismatch {
            section: "neighbors",
        });
    }

    let mut probe = [0u8; 64];
    let extra = loop {
        match reader.read(&mut probe) {
            Ok(0) => break 0,
            Ok(n) => break n as u64,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    };
    if extra > 0 {
        return Err(CatalogError::TrailingBytes { extra });
    }

    Graph::from_parts(offsets, neighbors).map_err(|e| CatalogError::Corrupt {
        detail: e.to_string(),
    })
}

/// Loads a catalog from the file at `path`.
pub fn load(path: &Path) -> Result<Graph, CatalogError> {
    let mut r = BufReader::new(File::open(path)?);
    load_from(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnw_graph::generators::random::barabasi_albert;

    fn sample_graph() -> Graph {
        barabasi_albert(64, 3, 42).unwrap()
    }

    fn sample_bytes() -> Vec<u8> {
        let mut buf = Vec::new();
        save_to(&sample_graph(), &mut buf).unwrap();
        buf
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let g = sample_graph();
        let bytes = sample_bytes();
        assert_eq!(
            bytes.len() as u64,
            expected_file_len(g.node_count() as u64, g.edge_count() as u64)
        );
        let back = load_from(&mut &bytes[..]).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn roundtrip_through_filesystem() {
        let dir = std::env::temp_dir().join(format!("wnwcat-fmt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.wnwcat");
        let g = sample_graph();
        save(&g, &path).unwrap();
        assert_eq!(load(&path).unwrap(), g);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_reports_io() {
        let err = load(Path::new("/nonexistent/dir/none.wnwcat")).unwrap_err();
        assert!(matches!(err, CatalogError::Io(_)));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_bytes();
        bytes[0..8].copy_from_slice(b"NOTACATL");
        let err = load_from(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, CatalogError::BadMagic { found } if &found == b"NOTACATL"));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = sample_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        // Re-seal the header checksum so the version check (not the
        // checksum) is what fires.
        let mut sum = Fnv1a::new();
        sum.update(&bytes[0..44]);
        let sealed = sum.finish().to_le_bytes();
        bytes[44..52].copy_from_slice(&sealed);
        let err = load_from(&mut &bytes[..]).unwrap_err();
        assert!(matches!(
            err,
            CatalogError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            }
        ));
    }

    #[test]
    fn tampered_header_fails_its_checksum() {
        let mut bytes = sample_bytes();
        bytes[12] ^= 0x01; // flip a bit in the node count
        let err = load_from(&mut &bytes[..]).unwrap_err();
        assert!(matches!(
            err,
            CatalogError::ChecksumMismatch { section: "header" }
        ));
    }

    #[test]
    fn truncation_is_detected_at_any_cut() {
        let bytes = sample_bytes();
        for cut in [10, HEADER_LEN - 1, HEADER_LEN + 3, bytes.len() - 1] {
            let err = load_from(&mut &bytes[..cut]).unwrap_err();
            match err {
                CatalogError::Truncated { expected, actual } => {
                    // A cut inside the header reports the header's own
                    // length; after that, the full promised file length.
                    if cut < HEADER_LEN {
                        assert_eq!(expected, HEADER_LEN as u64);
                    } else {
                        assert_eq!(expected, bytes.len() as u64);
                    }
                    assert!(actual <= cut as u64);
                }
                other => panic!("cut {cut}: unexpected error {other}"),
            }
        }
    }

    #[test]
    fn flipped_section_bits_fail_their_checksums() {
        let g = sample_graph();
        let offsets_end = HEADER_LEN + (g.node_count() + 1) * 8;

        let mut bytes = sample_bytes();
        bytes[HEADER_LEN + 4] ^= 0x80;
        let err = load_from(&mut &bytes[..]).unwrap_err();
        assert!(matches!(
            err,
            CatalogError::ChecksumMismatch { section: "offsets" }
        ));

        let mut bytes = sample_bytes();
        bytes[offsets_end + 2] ^= 0x80;
        let err = load_from(&mut &bytes[..]).unwrap_err();
        assert!(matches!(
            err,
            CatalogError::ChecksumMismatch {
                section: "neighbors"
            }
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_bytes();
        bytes.extend_from_slice(&[0xAB; 4]);
        let err = load_from(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, CatalogError::TrailingBytes { extra: 4 }));
    }

    #[test]
    fn checksummed_corruption_still_fails_structural_validation() {
        // Craft a file whose checksums are all valid but whose offsets are
        // not monotone — integrity checks pass, from_parts must catch it.
        let offsets: Vec<u64> = vec![0, 2, 1, 4];
        let neighbors: Vec<NodeId> = [1, 2, 0, 0].map(NodeId).to_vec();
        let node_count = (offsets.len() - 1) as u64;
        let edge_count = (neighbors.len() / 2) as u64;

        let mut bytes = Vec::new();
        let mut header = [0u8; HEADER_LEN];
        header[0..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        header[12..20].copy_from_slice(&node_count.to_le_bytes());
        header[20..28].copy_from_slice(&edge_count.to_le_bytes());
        header[28..36].copy_from_slice(&checksum_u64s(&offsets).to_le_bytes());
        header[36..44].copy_from_slice(&checksum_node_ids(&neighbors).to_le_bytes());
        let mut sum = Fnv1a::new();
        sum.update(&header[0..44]);
        let sealed = sum.finish().to_le_bytes();
        header[44..52].copy_from_slice(&sealed);
        bytes.extend_from_slice(&header);
        for w in &offsets {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        for u in &neighbors {
            bytes.extend_from_slice(&u.0.to_le_bytes());
        }

        let err = load_from(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, CatalogError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn lying_huge_header_does_not_preallocate_unbounded() {
        // Header claims 2^56 nodes; the loader must not reserve that much
        // up front, and must report truncation once the stream runs dry.
        let mut header = [0u8; HEADER_LEN];
        header[0..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        header[12..20].copy_from_slice(&(1u64 << 56).to_le_bytes());
        header[20..28].copy_from_slice(&0u64.to_le_bytes());
        header[28..36].copy_from_slice(&0u64.to_le_bytes());
        header[36..44].copy_from_slice(&0u64.to_le_bytes());
        let mut sum = Fnv1a::new();
        sum.update(&header[0..44]);
        let sealed = sum.finish().to_le_bytes();
        header[44..52].copy_from_slice(&sealed);

        let err = load_from(&mut &header[..]).unwrap_err();
        assert!(matches!(err, CatalogError::Truncated { .. }), "{err}");
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = wnw_graph::GraphBuilder::new().build();
        let mut buf = Vec::new();
        save_to(&g, &mut buf).unwrap();
        assert_eq!(load_from(&mut &buf[..]).unwrap(), g);
    }
}
