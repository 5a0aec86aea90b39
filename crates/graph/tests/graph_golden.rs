//! Literal digests of the graph layer: every generator at fixed seeds, its
//! adjacency, its colorings and its edge-cut partitions.
//!
//! `fingerprint()` in `tests/sharded_golden.rs` is shard-invariant by
//! design, so it cannot see a partition that changed; the golden traces
//! see only small graphs. This table holds the layer itself: a change to
//! the adjacency layout, the coloring or the partitioner that moves any
//! neighbor list, color or shard assignment moves a row here.
//!
//! Each row is one graph. Its columns are FNV-1a digests over
//! `neighbors(p)` for every `p`, `edges()` and `max_degree()`; over the
//! `greedy` colors; over the `dsatur` colors (only for `n ≤ 200`, else 0);
//! and over the `greedy_edge_cut` assignments at 1, 2, 3, 4 and 8 shards.
//! On a mismatch the test prints the whole computed table.

use ekbd_graph::partition::greedy_edge_cut;
use ekbd_graph::{coloring, random, topology, ConflictGraph};

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over `bytes`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over the little-endian bytes of `words`, after a separator
/// (so `[[1], []]` and `[[], [1]]` differ).
fn fnv_u32s(h: u64, words: impl IntoIterator<Item = u32>) -> u64 {
    words
        .into_iter()
        .fold(fnv(h, b"|"), |h, w| fnv(h, &w.to_le_bytes()))
}

/// The shard counts every row partitions at.
const SHARDS: [usize; 5] = [1, 2, 3, 4, 8];

/// The largest graph `dsatur` (quadratic in `n`) is digested for.
const DSATUR_MAX_N: usize = 200;

/// `(graph, adjacency, greedy, dsatur, edge cut)`.
type Row = (&'static str, u64, u64, u64, u64);

fn graphs() -> Vec<(&'static str, ConflictGraph)> {
    vec![
        ("ring(9)", topology::ring(9)),
        ("path(7)", topology::path(7)),
        ("star(11)", topology::star(11)),
        ("clique(8)", topology::clique(8)),
        ("grid(5,7)", topology::grid(5, 7)),
        ("binary_tree(31)", topology::binary_tree(31)),
        ("hypercube(6)", topology::hypercube(6)),
        ("torus(4,6)", topology::torus(4, 6)),
        ("wheel(10)", topology::wheel(10)),
        (
            "complete_bipartite(4,6)",
            topology::complete_bipartite(4, 6),
        ),
        ("gnp(60,0.1,3)", random::gnp(60, 0.1, 3)),
        (
            "connected_gnp(150,0.03,11)",
            random::connected_gnp(150, 0.03, 11),
        ),
        (
            "sparse_gnp(1000,0.005,2)",
            random::sparse_gnp(1000, 0.005, 2),
        ),
        (
            "sparse_gnp(40000,6/39999,1)",
            random::sparse_gnp(40_000, 6.0 / 39_999.0, 1),
        ),
        ("powerlaw(120,2,4)", random::powerlaw(120, 2, 4)),
        ("powerlaw(10000,3,7)", random::powerlaw(10_000, 3, 7)),
        ("regularish(100,5,6)", random::regularish(100, 5, 6)),
        ("regularish(64,4,9)", random::regularish(64, 4, 9)),
    ]
}

fn row(name: &'static str, g: &ConflictGraph) -> Row {
    let mut adjacency = FNV_SEED;
    for p in g.processes() {
        adjacency = fnv_u32s(adjacency, g.neighbors(p).iter().map(|q| q.0));
    }
    adjacency = fnv_u32s(adjacency, g.edges().flat_map(|e| [e.lo.0, e.hi.0]));
    let max_degree = u32::try_from(g.max_degree()).expect("degree fits u32");
    adjacency = fnv_u32s(adjacency, [max_degree]);
    let greedy = fnv_u32s(FNV_SEED, coloring::greedy(g));
    let dsatur = if g.len() <= DSATUR_MAX_N {
        fnv_u32s(FNV_SEED, coloring::dsatur(g))
    } else {
        0
    };
    let cut = SHARDS.iter().fold(FNV_SEED, |h, &shards| {
        fnv_u32s(h, greedy_edge_cut(g, shards).assignment)
    });
    (name, adjacency, greedy, dsatur, cut)
}

#[rustfmt::skip]
const GRAPH_DIGESTS: &[Row] = &[
    ("ring(9)", 0xf8d774381062b909, 0x00f64aadf21f5d89, 0x00f64aadf21f5d89, 0xe2eea73c29105cad),
    ("path(7)", 0x62b30c9fb40f57d5, 0x0f37570cf4f23f4a, 0x3bfe9131a0a35b4b, 0x3db8d5ccc23427d9),
    ("star(11)", 0x482bd8da8befbcdb, 0x67f4702f0e8dce7b, 0x67f4702f0e8dce7b, 0x558f4ea4311f6964),
    ("clique(8)", 0xd9d356681c7e7812, 0x4c88ebe81061a3bb, 0x4c88ebe81061a3bb, 0x1533824fdae6692a),
    ("grid(5,7)", 0x1292939ceb0d13f3, 0xff7dfb54ba207baa, 0xff7dfb54ba207baa, 0x51940e0ba9585700),
    ("binary_tree(31)", 0xadaf301376b8c22a, 0x56ce7b48c748003b, 0xbfa2b35fe150c73a, 0x2906d994e4073979),
    ("hypercube(6)", 0xa363962818a0efd3, 0x75e213bd2d91ea3b, 0x75e213bd2d91ea3b, 0x8aff9aef6b3f104b),
    ("torus(4,6)", 0x7395fcb2b2bbb491, 0x6024396dea0cf31b, 0x6024396dea0cf31b, 0x2b80e72f3fb1878b),
    ("wheel(10)", 0xf65ae6db1da061cc, 0xa2eb85acc7aaaca8, 0xa2eb85acc7aaaca8, 0xcc9a35d315f39c60),
    ("complete_bipartite(4,6)", 0xc32a508c6c0e5a37, 0x7056aeb51942d46b, 0x7056aeb51942d46b, 0x95b1a602fcbbeed1),
    ("gnp(60,0.1,3)", 0x1a36c042786ebc1f, 0x883f99d32807d6c8, 0xee75e057d6645a5a, 0xc204817d152ff3fa),
    ("connected_gnp(150,0.03,11)", 0xef6ed754a929da00, 0xb8e2a7ba00c149fe, 0x3ffb0fb36e92fb58, 0x1aec652bf4e254c0),
    ("sparse_gnp(1000,0.005,2)", 0x9d8f96340b37a209, 0x70e43d10dff9633b, 0x0000000000000000, 0x6a1d56b7a33f636b),
    ("sparse_gnp(40000,6/39999,1)", 0x61520d6493236b35, 0x37b2f9f3226aefaa, 0x0000000000000000, 0x684d3067871be3ab),
    ("powerlaw(120,2,4)", 0x5e51555c246f7346, 0x8997ac42a96bc4d8, 0x5e9e616750c0316a, 0xfab946ae4841fe2b),
    ("powerlaw(10000,3,7)", 0xbfda188c134fbf54, 0x276ac7232a5f08ca, 0x0000000000000000, 0xed2b10bc9388538b),
    ("regularish(100,5,6)", 0x549587a82c040a40, 0x1dcedd58ad038d0b, 0x7d0ebedece6ba689, 0x967045070c142a8a),
    ("regularish(64,4,9)", 0xd20f31309755e431, 0x2b9bc3779e69b858, 0xd770213b96685e39, 0x530f50dad275494b),
];

#[test]
fn graph_layer_matches_its_literal_digests() {
    let got: Vec<Row> = graphs().iter().map(|(name, g)| row(name, g)).collect();
    if got != GRAPH_DIGESTS {
        let table: String = got
            .iter()
            .map(|(name, a, c, d, p)| {
                format!("    (\"{name}\", 0x{a:016x}, 0x{c:016x}, 0x{d:016x}, 0x{p:016x}),\n")
            })
            .collect();
        panic!("graph digests moved; computed table:\n{table}");
    }
}
