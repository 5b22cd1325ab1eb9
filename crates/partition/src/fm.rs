//! Boundary Fiduccia–Mattheyses refinement for 2-way partitions.
//!
//! Each pass tentatively moves vertices one at a time — always the
//! highest-gain movable vertex that keeps the balance constraint — and
//! locks each moved vertex for the rest of the pass. Negative-gain moves
//! are permitted (that is what lets FM climb out of local minima); at
//! the end of the pass the prefix of moves with the best observed cut is
//! kept and the remainder rolled back. Passes repeat until no
//! improvement is found.
//!
//! Gains and external-degree counts are computed once per call
//! (O(n + m)) and kept exact through every move and rollback, together
//! with the set of vertices that seed a pass's heap. A pass therefore
//! costs the size of that seed set plus the degrees of the vertices it
//! moves, not a rescan of the graph.

use crate::Bisection;
use sparsegraph::Graph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Upper limit of consecutive non-improving moves inside one pass
/// before the pass is cut short (standard FM early exit).
const MAX_BAD_MOVES: usize = 150;

/// Move gains of a bisection, exact for the current `part_of`.
struct Gains {
    /// Weight of external edges minus weight of internal edges.
    gain: Vec<i64>,
    /// Number of neighbours on the other side.
    ext: Vec<u32>,
    /// Vertices that seed a pass: boundary vertices (`ext > 0`) and
    /// vertices whose move would not cost anything (`gain >= 0`).
    seeds: Vec<u32>,
    /// Position of each vertex in `seeds`, `u32::MAX` if absent.
    seed_pos: Vec<u32>,
}

impl Gains {
    fn new(g: &Graph, part_of: &[u8]) -> Gains {
        let n = g.num_vertices();
        let mut gains = Gains {
            gain: vec![0; n],
            ext: vec![0; n],
            seeds: Vec::new(),
            seed_pos: vec![u32::MAX; n],
        };
        for v in 0..n {
            let pv = part_of[v];
            for (u, w) in g.neighbors_weighted(v) {
                if part_of[u as usize] == pv {
                    gains.gain[v] -= w;
                } else {
                    gains.gain[v] += w;
                    gains.ext[v] += 1;
                }
            }
            gains.update_seed(v);
        }
        gains
    }

    /// Re-establish `v`'s membership of the seed set.
    fn update_seed(&mut self, v: usize) {
        let wanted = self.ext[v] > 0 || self.gain[v] >= 0;
        let pos = self.seed_pos[v];
        if wanted && pos == u32::MAX {
            self.seed_pos[v] = self.seeds.len() as u32;
            self.seeds.push(v as u32);
        } else if !wanted && pos != u32::MAX {
            self.seeds.swap_remove(pos as usize);
            if let Some(&moved) = self.seeds.get(pos as usize) {
                self.seed_pos[moved as usize] = pos;
            }
            self.seed_pos[v] = u32::MAX;
        }
    }

    /// Move `v` to the other side and update its gain and every
    /// neighbour's.
    fn flip(&mut self, g: &Graph, part_of: &mut [u8], v: usize) {
        let to = 1 - part_of[v];
        part_of[v] = to;
        self.gain[v] = -self.gain[v];
        self.ext[v] = g.degree(v) as u32 - self.ext[v];
        self.update_seed(v);
        for (u, w) in g.neighbors_weighted(v) {
            let u = u as usize;
            // v left u's side or joined it.
            if part_of[u] == to {
                self.gain[u] -= 2 * w;
                self.ext[u] -= 1;
            } else {
                self.gain[u] += 2 * w;
                self.ext[u] += 1;
            }
            self.update_seed(u);
        }
    }

    /// Whether the carried state equals a from-scratch recompute.
    fn is_exact(&self, g: &Graph, part_of: &[u8]) -> bool {
        let fresh = Gains::new(g, part_of);
        let sorted = |s: &[u32]| {
            let mut s = s.to_vec();
            s.sort_unstable();
            s
        };
        self.gain == fresh.gain
            && self.ext == fresh.ext
            && sorted(&self.seeds) == sorted(&fresh.seeds)
    }
}

/// Refine a bisection in place. Returns the number of improving passes.
pub fn fm_refine(
    g: &Graph,
    bis: &mut Bisection,
    target: [i64; 2],
    ubfactor: f64,
    max_passes: usize,
) -> usize {
    let n = g.num_vertices();
    if n == 0 {
        return 0;
    }
    let max_allowed = [
        ((target[0] as f64) * ubfactor).ceil() as i64,
        ((target[1] as f64) * ubfactor).ceil() as i64,
    ];
    let mut gains = Gains::new(g, &bis.part_of);
    let mut locked = vec![false; n];
    let mut moves: Vec<u32> = Vec::new();
    let mut passes_done = 0;

    for _ in 0..max_passes {
        // Max-heap of (gain, vertex); stale entries skipped lazily.
        // Interior vertices enter it as their neighbours move. A
        // bisection without seeds (already perfect) seeds every vertex
        // so balance can still be fixed.
        let seeds: Vec<(i64, Reverse<u32>)> = if gains.seeds.is_empty() {
            (0..n as u32)
                .map(|v| (gains.gain[v as usize], Reverse(v)))
                .collect()
        } else {
            gains
                .seeds
                .iter()
                .map(|&v| (gains.gain[v as usize], Reverse(v)))
                .collect()
        };
        let mut heap = BinaryHeap::from(seeds);

        moves.clear();
        let mut cur_cut = bis.cut;
        let mut cur_w = bis.part_weights;
        let mut best_cut = bis.cut;
        let mut best_feasible = cur_w[0] <= max_allowed[0] && cur_w[1] <= max_allowed[1];
        let mut best_len = 0usize;
        let mut bad_streak = 0usize;

        while let Some((gtop, Reverse(v))) = heap.pop() {
            let v = v as usize;
            if locked[v] || gtop != gains.gain[v] {
                continue; // stale heap entry
            }
            let from = bis.part_of[v] as usize;
            let to = 1 - from;
            let wv = g.vertex_weight(v);
            // Balance check: destination may not exceed its allowance,
            // unless the move strictly reduces the maximum overflow.
            let feasible_after = cur_w[to] + wv <= max_allowed[to];
            let overflow_now = (cur_w[0] - max_allowed[0]).max(cur_w[1] - max_allowed[1]);
            let overflow_after =
                ((cur_w[from] - wv) - max_allowed[from]).max((cur_w[to] + wv) - max_allowed[to]);
            if !feasible_after && overflow_after >= overflow_now {
                continue;
            }
            // Execute the tentative move.
            locked[v] = true;
            cur_w[from] -= wv;
            cur_w[to] += wv;
            cur_cut -= gains.gain[v];
            moves.push(v as u32);
            gains.flip(g, &mut bis.part_of, v);
            for &u in g.neighbors(v) {
                if !locked[u as usize] {
                    heap.push((gains.gain[u as usize], Reverse(u)));
                }
            }

            let now_feasible = cur_w[0] <= max_allowed[0] && cur_w[1] <= max_allowed[1];
            let improves = match (now_feasible, best_feasible) {
                (true, false) => true,
                (false, true) => false,
                _ => cur_cut < best_cut,
            };
            if improves {
                best_cut = cur_cut;
                best_feasible = now_feasible;
                best_len = moves.len();
                bad_streak = 0;
            } else {
                bad_streak += 1;
                if bad_streak > MAX_BAD_MOVES {
                    break;
                }
            }
        }

        // Roll back moves after the best prefix, keeping gains exact.
        for &v in moves[best_len..].iter().rev() {
            let v = v as usize;
            let wv = g.vertex_weight(v);
            cur_w[bis.part_of[v] as usize] -= wv;
            cur_w[1 - bis.part_of[v] as usize] += wv;
            gains.flip(g, &mut bis.part_of, v);
        }
        for &v in &moves {
            locked[v as usize] = false;
        }
        let improved = best_len > 0 && best_cut < bis.cut;
        bis.cut = best_cut;
        bis.part_weights = cur_w;
        debug_assert!(gains.is_exact(g, &bis.part_of));
        debug_assert_eq!(
            (bis.cut, bis.part_weights),
            {
                let fresh = Bisection::recompute(g, bis.part_of.clone());
                (fresh.cut, fresh.part_weights)
            },
            "carried cut and part weights drifted"
        );
        if improved {
            passes_done += 1;
        } else {
            break;
        }
    }
    passes_done
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn fm_improves_a_bad_split() {
        // 8x8 grid split column-interleaved (very bad cut); FM should
        // drive it down substantially.
        let n = 8;
        let g = grid(n);
        let part_of: Vec<u8> = (0..n * n).map(|v| ((v % n) % 2) as u8).collect();
        let mut bis = Bisection::recompute(&g, part_of);
        let initial_cut = bis.cut;
        assert!(initial_cut >= 50);
        let target = [32i64, 32i64];
        fm_refine(&g, &mut bis, target, 1.05, 12);
        assert!(
            bis.cut < initial_cut / 2,
            "FM failed to improve: {} -> {}",
            initial_cut,
            bis.cut
        );
        // Balance within the allowance ceiling ceil(1.05 * 32) = 34.
        assert!(bis.part_weights[0] <= 34 && bis.part_weights[1] <= 34);
        // Internal consistency.
        let check = Bisection::recompute(&g, bis.part_of.clone());
        assert_eq!(check.cut, bis.cut);
        assert_eq!(check.part_weights, bis.part_weights);
    }

    #[test]
    fn fm_keeps_optimal_split() {
        let n = 6;
        let g = grid(n);
        // Optimal split: top half vs bottom half, cut = 6.
        let part_of: Vec<u8> = (0..n * n)
            .map(|v| if v / n < n / 2 { 0 } else { 1 })
            .collect();
        let mut bis = Bisection::recompute(&g, part_of);
        assert_eq!(bis.cut, 6);
        fm_refine(&g, &mut bis, [18, 18], 1.05, 8);
        assert_eq!(bis.cut, 6, "FM must not damage an optimal split");
    }

    #[test]
    fn fm_respects_balance() {
        let n = 8;
        let g = grid(n);
        let part_of: Vec<u8> = (0..n * n).map(|v| (v % 2) as u8).collect();
        let mut bis = Bisection::recompute(&g, part_of);
        let target = [32i64, 32i64];
        fm_refine(&g, &mut bis, target, 1.05, 12);
        assert!(bis.part_weights[0] as f64 <= 32.0 * 1.05 + 1.0);
        assert!(bis.part_weights[1] as f64 <= 32.0 * 1.05 + 1.0);
    }

    #[test]
    fn fm_noop_on_empty_graph() {
        let g = Graph::from_adjacency(vec![0], vec![]).unwrap();
        let mut bis = Bisection::recompute(&g, vec![]);
        assert_eq!(fm_refine(&g, &mut bis, [0, 0], 1.05, 4), 0);
    }
}
