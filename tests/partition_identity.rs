//! Byte-identity contract for the partitioning-based orderings.
//!
//! ND, GP and HP are built on the `partition` crate, whose multilevel
//! loops are performance-critical and get rewritten for speed. Such a
//! rewrite must change *how fast* they run, never *what* they produce:
//! fill, bandwidth, off-diagonal nnz and SpMV speedup all follow from
//! the permutation. This test pins FNV-1a hashes of the permutations
//! that `Nd::default()`, `Gp::new(2)`, `Gp::new(16)` and `Hp::new(64)`
//! produce on every family of the small corpus, plus the raw
//! `vertex_separator` and `partition_graph` outputs on the same graphs.
//!
//! On a mismatch the assertion prints the whole computed table, so an
//! intended change of the output can be re-pinned in one step.

use partition::{partition_graph, vertex_separator, PartitionConfig};
use reorder::{Gp, Hp, Nd, ReorderAlgorithm};
use sparsegraph::Graph;
use sparsemat::CsrMatrix;
use std::collections::BTreeSet;

/// FNV-1a over the little-endian bytes of a `u32` stream.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The first matrix of every family (`group`) of the small corpus.
fn small_families() -> Vec<(String, CsrMatrix)> {
    let mut seen = BTreeSet::new();
    corpus::standard_corpus(corpus::CorpusSize::Small)
        .into_iter()
        .filter(|s| seen.insert(s.group.clone()))
        .map(|s| (s.name.clone(), s.build()))
        .collect()
}

fn perm_hash(alg: &dyn ReorderAlgorithm, a: &CsrMatrix) -> u64 {
    let r = alg.compute(a).expect("square corpus matrix");
    fnv1a(r.perm.order().iter().copied())
}

/// One row of hashes: ND, GP(2), GP(16), HP(64), the raw separator
/// (left, right and separator lists, each terminated by `u32::MAX`)
/// and the raw 8-way `partition_graph` assignment.
fn hashes(a: &CsrMatrix) -> [u64; 6] {
    let g = Graph::from_matrix(a).expect("square corpus matrix");
    let sep = vertex_separator(&g, 1.10, 0xD15EC7);
    let sep_words = sep
        .left
        .iter()
        .chain([u32::MAX].iter())
        .chain(sep.right.iter())
        .chain([u32::MAX].iter())
        .chain(sep.separator.iter())
        .copied();
    [
        perm_hash(&Nd::default(), a),
        perm_hash(&Gp::new(2), a),
        perm_hash(&Gp::new(16), a),
        perm_hash(&Hp::new(64), a),
        fnv1a(sep_words),
        fnv1a(partition_graph(&g, &PartitionConfig::k(8))),
    ]
}

/// Hashes recorded from the implementation before the linear-time
/// rewrite of the partitioner hot loops.
#[rustfmt::skip]
const EXPECTED: &[(&str, [u64; 6])] = &[
    ("mesh2d_a", [0x5b00fcd5a8200350, 0xa9258e2f9bbf7b78, 0xedec148f1c55b178, 0x0ca9a266119e0c30, 0x761bcaaae5b80800, 0x656f1520ce85a3a1]),
    ("band_narrow", [0x21fffedb41eb72a9, 0xc55716785d92d885, 0x87b9aa97d67a3951, 0x5863eac2ef3940a9, 0xf18c1caf4989db09, 0x092ff0c2ea861315]),
    ("random_er_d4", [0x83fc52be8b95117d, 0x06a4a671ff53eac9, 0xf2ab457a1238dc15, 0x6e3a2c56e0639825, 0xf7982327d6715725, 0x19e895bb2d25ff23]),
    ("rmat_d8", [0x30252ed1db782461, 0x0bd4162a4b022c1d, 0x954ca12fbb6f7e11, 0xaa6500057264a219, 0xc35c7ce03e76ca4d, 0x4bb35876ce02add6]),
    ("genome_a", [0x2983b3cdfbe7d059, 0x9ec07df4c489d6c5, 0xd85faa615d9d4379, 0x6fefc92ca0239799, 0xb28240977505ca29, 0x77abc495ff3f8857]),
    ("road_a", [0xf7e7a3d475197e14, 0xe473fb90ee7ea530, 0x34564c26553b1338, 0x92faff0bcb83b740, 0xd785ff29a63f1afc, 0xf6cb26aba48c97b6]),
    ("circuit_a", [0x713ba5ec8325095d, 0x28f98d7af1adff05, 0x99cceb948e5148ad, 0x2b6efe9779b2845d, 0x4be369cf652652b5, 0xad902e4c8590a721]),
    ("blocks_a", [0x238cf5e26bb683f5, 0x201feb45d77c45a5, 0x94b34ec8092389d9, 0x8168e122f758c501, 0x35bf9f4b7094257d, 0x2bd63ea92478e274]),
    ("mesh2d_small(HV15R-regime)", [0xad4c5d7d10de5575, 0x84df11adbcf48045, 0x9e5dc7a1c6fcbb15, 0x750108fb4f0912b5, 0x56b85616dba7309d, 0x5a61966bd0be7533]),
    ("mixed_density", [0x6c2a2e9ee30250e1, 0xdbc1e7c2c883fdc9, 0xbda38ce87c58a03d, 0xc48a3e06bb0ab2d9, 0xc85dcee18d43fc8d, 0xd215aca92fa11c66]),
];

#[test]
fn partitioning_orderings_are_byte_identical_to_the_pinned_hashes() {
    let got: Vec<(String, [u64; 6])> = small_families()
        .iter()
        .map(|(name, a)| (name.clone(), hashes(a)))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, h)| {
            format!(
                "    (\"{name}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}]),\n",
                h[0], h[1], h[2], h[3], h[4], h[5]
            )
        })
        .collect();
    let expected: Vec<(String, [u64; 6])> = EXPECTED
        .iter()
        .map(|&(name, h)| (name.to_string(), h))
        .collect();
    assert_eq!(
        got, expected,
        "partitioning output changed; computed table:\n{table}"
    );
}
