//! Vertex separators for nested dissection.
//!
//! An edge-cut bisection is converted into a vertex separator by taking
//! a small vertex cover of the cut edges: removing the cover vertices
//! disconnects the two sides. We use the classic greedy cover (always
//! pick the endpoint covering the most uncovered cut edges), which in
//! practice yields separators close to the boundary size of the smaller
//! side — good enough to reproduce ND's fill-reducing behaviour.
//!
//! The cover runs in O(n + C log C) for C cut edges: a lazy max-heap
//! keyed on (uncovered count, last uncovered incident edge) yields the
//! same picks as rescanning every uncovered edge for its maximum.

use crate::recursive::multilevel_bisect;
use sparsegraph::Graph;
use std::collections::BinaryHeap;

/// The three-way split produced by separator extraction.
#[derive(Debug, Clone)]
pub struct Separator {
    /// Vertices of the first remaining side.
    pub left: Vec<u32>,
    /// Vertices of the second remaining side.
    pub right: Vec<u32>,
    /// Separator vertices (removing them disconnects left from right).
    pub separator: Vec<u32>,
}

/// Compute a vertex separator of `g` via multilevel edge bisection and
/// greedy vertex cover of the cut edges.
pub fn vertex_separator(g: &Graph, ubfactor: f64, seed: u64) -> Separator {
    let n = g.num_vertices();
    if n <= 1 {
        return Separator {
            left: (0..n as u32).collect(),
            right: Vec::new(),
            separator: Vec::new(),
        };
    }
    let total = g.total_vertex_weight();
    let bis = multilevel_bisect(g, [total / 2, total - total / 2], ubfactor, seed);
    let in_separator = cover_cut_edges(g, &bis.part_of);
    split(&bis.part_of, &in_separator)
}

/// The cut edges of a bisection as (part-0 end, part-1 end), ordered by
/// the part-0 endpoint and then by its adjacency order.
fn cut_edges(g: &Graph, part_of: &[u8]) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for v in 0..g.num_vertices() {
        if part_of[v] != 0 {
            continue;
        }
        for &u in g.neighbors(v) {
            if part_of[u as usize] == 1 {
                edges.push((v as u32, u));
            }
        }
    }
    edges
}

/// Greedy vertex cover of the cut edges: repeatedly take the last
/// uncovered edge (in [`cut_edges`] order) with an endpoint of maximum
/// uncovered count, and put its endpoint with the larger count (the
/// part-0 end on a tie) into the separator.
fn cover_cut_edges(g: &Graph, part_of: &[u8]) -> Vec<bool> {
    let n = g.num_vertices();
    let edges = cut_edges(g, part_of);
    // Incident cut edges per vertex, ascending, as one CSR.
    let mut cover_count = vec![0u32; n];
    for &(a, b) in &edges {
        cover_count[a as usize] += 1;
        cover_count[b as usize] += 1;
    }
    let mut xinc = vec![0usize; n + 1];
    for v in 0..n {
        xinc[v + 1] = xinc[v] + cover_count[v] as usize;
    }
    let mut end = xinc[..n].to_vec();
    let mut inc = vec![0u32; 2 * edges.len()];
    for (e, &(a, b)) in edges.iter().enumerate() {
        for x in [a as usize, b as usize] {
            inc[end[x]] = e as u32;
            end[x] += 1;
        }
    }
    // `end[x]` shrinks past covered edges, so `inc[end[x] - 1]` is x's
    // last uncovered edge whenever its count is positive.
    let mut covered = vec![false; edges.len()];
    let last_uncovered = |x: usize, end: &mut [usize], covered: &[bool]| {
        while covered[inc[end[x] - 1] as usize] {
            end[x] -= 1;
        }
        inc[end[x] - 1]
    };

    // Entries (count, last uncovered edge, vertex). Both keys only fall
    // when one of the vertex's edges is covered, so an entry is current
    // exactly when its count is.
    let mut heap: BinaryHeap<(u32, u32, u32)> = (0..n)
        .filter(|&x| cover_count[x] > 0)
        .map(|x| {
            (
                cover_count[x],
                last_uncovered(x, &mut end, &covered),
                x as u32,
            )
        })
        .collect();
    let mut in_separator = vec![false; n];
    let mut touched: Vec<u32> = Vec::new();
    while let Some((count, e, x)) = heap.pop() {
        if count != cover_count[x as usize] {
            continue; // stale entry
        }
        let (a, b) = edges[e as usize];
        let pick = if cover_count[a as usize] >= cover_count[b as usize] {
            a as usize
        } else {
            b as usize
        };
        in_separator[pick] = true;
        // Cover the pick's edges, then requeue their other endpoints
        // with their final counts.
        touched.clear();
        for &f in &inc[xinc[pick]..end[pick]] {
            if covered[f as usize] {
                continue;
            }
            covered[f as usize] = true;
            let (fa, fb) = edges[f as usize];
            cover_count[fa as usize] -= 1;
            cover_count[fb as usize] -= 1;
            touched.push(if fa as usize == pick { fb } else { fa });
        }
        for &y in &touched {
            let y = y as usize;
            if cover_count[y] > 0 {
                let last = last_uncovered(y, &mut end, &covered);
                heap.push((cover_count[y], last, y as u32));
            }
        }
    }
    in_separator
}

/// Split the vertices into the two sides and the separator.
fn split(part_of: &[u8], in_separator: &[bool]) -> Separator {
    let mut left = Vec::new();
    let mut right = Vec::new();
    let mut separator = Vec::new();
    for v in 0..part_of.len() {
        if in_separator[v] {
            separator.push(v as u32);
        } else if part_of[v] == 0 {
            left.push(v as u32);
        } else {
            right.push(v as u32);
        }
    }
    Separator {
        left,
        right,
        separator,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix;

    /// The quadratic greedy cover that [`cover_cut_edges`] replaces,
    /// kept as its oracle: every pick rescans all uncovered edges for
    /// the last one with the largest endpoint count.
    fn cover_by_rescan(g: &Graph, part_of: &[u8]) -> Vec<bool> {
        let n = g.num_vertices();
        let cut_edges = cut_edges(g, part_of);
        let mut cover_count = vec![0u32; n];
        for &(a, b) in &cut_edges {
            cover_count[a as usize] += 1;
            cover_count[b as usize] += 1;
        }
        let mut in_separator = vec![false; n];
        let mut alive: Vec<(u32, u32)> = cut_edges;
        while !alive.is_empty() {
            let (&(ea, eb), _) = alive
                .iter()
                .zip(0..)
                .max_by_key(|(&(a, b), _)| cover_count[a as usize].max(cover_count[b as usize]))
                .expect("alive non-empty");
            let pick = if cover_count[ea as usize] >= cover_count[eb as usize] {
                ea
            } else {
                eb
            };
            in_separator[pick as usize] = true;
            alive.retain(|&(a, b)| {
                if a == pick || b == pick {
                    cover_count[a as usize] -= 1;
                    cover_count[b as usize] -= 1;
                    false
                } else {
                    true
                }
            });
        }
        in_separator
    }

    /// A graph from an undirected edge list; adjacency lists keep the
    /// list's order, so they are not sorted.
    fn from_edges(n: usize, edges: &[(u32, u32)]) -> Graph {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            if a != b && !adj[a as usize].contains(&b) {
                adj[a as usize].push(b);
                adj[b as usize].push(a);
            }
        }
        let mut xadj = vec![0usize];
        let mut adjncy = Vec::new();
        for list in adj {
            adjncy.extend(list);
            xadj.push(adjncy.len());
        }
        Graph::from_adjacency(xadj, adjncy).unwrap()
    }

    fn assert_same_cover(g: &Graph, part_of: &[u8], what: &str) {
        let heap = split(part_of, &cover_cut_edges(g, part_of));
        let rescan = split(part_of, &cover_by_rescan(g, part_of));
        assert_eq!(heap.left, rescan.left, "{what}: left differs");
        assert_eq!(heap.right, rescan.right, "{what}: right differs");
        assert_eq!(
            heap.separator, rescan.separator,
            "{what}: separator differs"
        );
    }

    #[test]
    fn heap_cover_matches_rescan_oracle_on_random_bisections() {
        let mut rng = SplitMix::new(0xC0FE);
        for case in 0..400 {
            let n = 2 + rng.next_below(60);
            let m = rng.next_below(4 * n);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.next_below(n) as u32, rng.next_below(n) as u32))
                .collect();
            let g = from_edges(n, &edges);
            // Skewed splits too, so one side holds most cut endpoints.
            let p0 = 1 + rng.next_below(9);
            let part_of: Vec<u8> = (0..n).map(|_| (rng.next_below(10) >= p0) as u8).collect();
            assert_same_cover(&g, &part_of, &format!("case {case}"));
        }
    }

    #[test]
    fn heap_cover_matches_rescan_oracle_on_ties() {
        // Complete bipartite K(m, m) across the cut: every endpoint has
        // the same count, so every pick is a tie between both sides.
        for m in 1..6u32 {
            let edges: Vec<(u32, u32)> = (0..m)
                .flat_map(|a| (0..m).map(move |b| (a, m + b)))
                .collect();
            let g = from_edges(2 * m as usize, &edges);
            let part_of: Vec<u8> = (0..2 * m).map(|v| (v >= m) as u8).collect();
            assert_same_cover(&g, &part_of, &format!("K({m},{m})"));
        }
        // A path alternating sides: each interior vertex covers two cut
        // edges, its ends only one.
        let edges: Vec<(u32, u32)> = (0..9).map(|v| (v, v + 1)).collect();
        let g = from_edges(10, &edges);
        let part_of: Vec<u8> = (0..10).map(|v| (v % 2) as u8).collect();
        assert_same_cover(&g, &part_of, "alternating path");
        // A repeated adjacency entry is a second parallel cut edge, as
        // `Graph::from_adjacency` accepts it.
        let g = Graph::from_adjacency(vec![0, 3, 4, 6, 7], vec![1, 1, 2, 0, 0, 3, 2]).unwrap();
        assert_same_cover(&g, &[0, 1, 1, 0], "parallel edges");
        // Stars centred on either side.
        let edges: Vec<(u32, u32)> = (1..7).map(|v| (0, v)).collect();
        let g = from_edges(7, &edges);
        for centre in 0..2u8 {
            let part_of: Vec<u8> = (0..7).map(|v| (v == 0) as u8 ^ centre ^ 1).collect();
            assert_same_cover(&g, &part_of, "star");
        }
    }

    fn grid(n: usize) -> Graph {
        let idx = |r: usize, c: usize| (r * n + c) as u32;
        let mut xadj = vec![0usize];
        let mut adjncy = Vec::new();
        for r in 0..n {
            for c in 0..n {
                if r > 0 {
                    adjncy.push(idx(r - 1, c));
                }
                if r + 1 < n {
                    adjncy.push(idx(r + 1, c));
                }
                if c > 0 {
                    adjncy.push(idx(r, c - 1));
                }
                if c + 1 < n {
                    adjncy.push(idx(r, c + 1));
                }
                xadj.push(adjncy.len());
            }
        }
        Graph::from_adjacency(xadj, adjncy).unwrap()
    }

    /// Check the separator property: no edge directly connects left and
    /// right.
    fn assert_separates(g: &Graph, s: &Separator) {
        let n = g.num_vertices();
        let mut side = vec![0u8; n]; // 0 = left, 1 = right, 2 = sep
        for &v in &s.right {
            side[v as usize] = 1;
        }
        for &v in &s.separator {
            side[v as usize] = 2;
        }
        for v in 0..n {
            if side[v] == 2 {
                continue;
            }
            for &u in g.neighbors(v) {
                if side[u as usize] != 2 {
                    assert_eq!(
                        side[v], side[u as usize],
                        "edge ({v}, {u}) crosses the separator"
                    );
                }
            }
        }
    }

    #[test]
    fn grid_separator_is_small_and_valid() {
        let n = 12;
        let g = grid(n);
        let s = vertex_separator(&g, 1.08, 42);
        assert_separates(&g, &s);
        assert_eq!(
            s.left.len() + s.right.len() + s.separator.len(),
            g.num_vertices()
        );
        assert!(
            s.separator.len() <= 2 * n,
            "separator of size {} on a {n}x{n} grid (expected ~{n})",
            s.separator.len()
        );
        assert!(!s.left.is_empty() && !s.right.is_empty());
        // The sides should be roughly balanced.
        let ratio = s.left.len() as f64 / s.right.len() as f64;
        assert!(ratio > 0.5 && ratio < 2.0, "sides too uneven: {ratio}");
    }

    #[test]
    fn tiny_graphs_degenerate_gracefully() {
        let g = Graph::from_adjacency(vec![0, 0], vec![]).unwrap();
        let s = vertex_separator(&g, 1.05, 1);
        assert_eq!(s.left.len(), 1);
        assert!(s.separator.is_empty());

        let g2 = Graph::from_adjacency(vec![0, 1, 2], vec![1, 0]).unwrap();
        let s2 = vertex_separator(&g2, 1.05, 1);
        assert_separates(&g2, &s2);
        assert_eq!(s2.left.len() + s2.right.len() + s2.separator.len(), 2);
    }

    #[test]
    fn path_separator_is_single_vertex() {
        let mut xadj = vec![0usize];
        let mut adjncy = Vec::new();
        let n = 31;
        for v in 0..n {
            if v > 0 {
                adjncy.push((v - 1) as u32);
            }
            if v + 1 < n {
                adjncy.push((v + 1) as u32);
            }
            xadj.push(adjncy.len());
        }
        let g = Graph::from_adjacency(xadj, adjncy).unwrap();
        let s = vertex_separator(&g, 1.10, 7);
        assert_separates(&g, &s);
        assert!(
            s.separator.len() <= 2,
            "path separator should be 1-2 vertices, got {}",
            s.separator.len()
        );
    }
}
