//! Multilevel hypergraph partitioning with the cut-net objective — the
//! stand-in for PaToH used by the paper's HP reordering.
//!
//! The structure mirrors the graph partitioner: heavy-connectivity
//! matching coarsens the hypergraph, greedy growing produces an initial
//! bisection of the coarsest level, and FM refinement with per-net
//! side-counts improves the cut during uncoarsening. Recursive bisection
//! extends to k parts.

use crate::rng::SplitMix;
use sparsegraph::Hypergraph;
use std::borrow::Cow;

/// Nets larger than this are ignored during matching and receive no
/// incremental gain updates during FM (they are almost always cut and
/// their pins' gains are insensitive to single moves). PaToH applies
/// similar large-net thresholds.
const BIG_NET: usize = 256;

/// Partitioning objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HyperObjective {
    /// Minimise total weight of nets spanning >1 part (PaToH "cut-net",
    /// the metric chosen in §3.3 of the paper).
    CutNet,
    /// Minimise `Σ (λ−1)·w` (PaToH "connectivity", i.e. communication
    /// volume).
    Connectivity,
}

/// Configuration for [`partition_hypergraph`].
#[derive(Debug, Clone)]
pub struct HypergraphPartitionConfig {
    /// Number of parts.
    pub num_parts: usize,
    /// Allowed imbalance factor.
    pub ubfactor: f64,
    /// Objective function.
    pub objective: HyperObjective,
    /// Coarsening stops below this many vertices.
    pub coarsen_to: usize,
    /// Initial-partition trials on the coarsest hypergraph.
    pub initial_trials: usize,
    /// FM passes per level.
    pub fm_passes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HypergraphPartitionConfig {
    fn default() -> Self {
        HypergraphPartitionConfig {
            num_parts: 2,
            ubfactor: 1.05,
            objective: HyperObjective::CutNet,
            coarsen_to: 120,
            initial_trials: 6,
            fm_passes: 6,
            seed: 0x9A70,
        }
    }
}

impl HypergraphPartitionConfig {
    /// A `k`-way configuration with default knobs.
    pub fn k(num_parts: usize) -> Self {
        HypergraphPartitionConfig {
            num_parts,
            ..Default::default()
        }
    }
}

/// Internal mutable hypergraph used across coarsening levels.
#[derive(Debug, Clone)]
struct WorkHg {
    xpins: Vec<usize>,
    pins: Vec<u32>,
    xnets: Vec<usize>,
    nets: Vec<u32>,
    vwgt: Vec<i64>,
    nwgt: Vec<i64>,
}

impl WorkHg {
    fn from_hypergraph(h: &Hypergraph) -> WorkHg {
        let nv = h.num_vertices();
        let nn = h.num_nets();
        let mut xpins = Vec::with_capacity(nn + 1);
        xpins.push(0);
        let mut pins = Vec::with_capacity(h.num_pins());
        for j in 0..nn {
            pins.extend_from_slice(h.net_pins(j));
            xpins.push(pins.len());
        }
        let mut xnets = Vec::with_capacity(nv + 1);
        xnets.push(0);
        let mut nets = Vec::with_capacity(h.num_pins());
        for v in 0..nv {
            nets.extend_from_slice(h.vertex_nets(v));
            xnets.push(nets.len());
        }
        WorkHg {
            xpins,
            pins,
            xnets,
            nets,
            vwgt: (0..nv).map(|v| h.vertex_weight(v)).collect(),
            nwgt: (0..nn).map(|j| h.net_weight(j)).collect(),
        }
    }

    fn num_vertices(&self) -> usize {
        self.vwgt.len()
    }

    fn num_nets(&self) -> usize {
        self.nwgt.len()
    }

    fn net_pins(&self, j: usize) -> &[u32] {
        &self.pins[self.xpins[j]..self.xpins[j + 1]]
    }

    fn vertex_nets(&self, v: usize) -> &[u32] {
        &self.nets[self.xnets[v]..self.xnets[v + 1]]
    }

    fn total_vertex_weight(&self) -> i64 {
        self.vwgt.iter().sum()
    }

    /// Rebuild the vertex→nets incidence from the net→pins arrays.
    fn rebuild_vertex_nets(&mut self) {
        let nv = self.num_vertices();
        let mut count = vec![0usize; nv + 1];
        for &p in &self.pins {
            count[p as usize + 1] += 1;
        }
        for v in 0..nv {
            count[v + 1] += count[v];
        }
        let xnets = count.clone();
        let mut nets = vec![0u32; self.pins.len()];
        let mut next: Vec<usize> = count[..nv].to_vec();
        for j in 0..self.num_nets() {
            for &p in &self.pins[self.xpins[j]..self.xpins[j + 1]] {
                nets[next[p as usize]] = j as u32;
                next[p as usize] += 1;
            }
        }
        self.xnets = xnets;
        self.nets = nets;
    }
}

/// One coarsening level.
struct HgLevel {
    hg: WorkHg,
    coarse_of: Vec<u32>,
}

/// Heavy-connectivity matching: match each vertex with the unmatched
/// co-pin vertex sharing the largest total net weight.
fn match_vertices(hg: &WorkHg, rng: &mut SplitMix) -> Vec<u32> {
    let n = hg.num_vertices();
    let mut match_of: Vec<u32> = (0..n as u32).collect();
    let mut matched = vec![false; n];
    let mut visit: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut visit);
    // Sparse counter of shared weight with candidate partners.
    let mut shared: Vec<i64> = vec![0; n];
    let mut touched: Vec<u32> = Vec::new();
    for &v in &visit {
        let v = v as usize;
        if matched[v] {
            continue;
        }
        touched.clear();
        for &j in hg.vertex_nets(v) {
            let pins = hg.net_pins(j as usize);
            if pins.len() > BIG_NET {
                continue;
            }
            let w = hg.nwgt[j as usize];
            for &u in pins {
                let u = u as usize;
                if u == v || matched[u] {
                    continue;
                }
                if shared[u] == 0 {
                    touched.push(u as u32);
                }
                shared[u] += w;
            }
        }
        let mut best: Option<(usize, i64)> = None;
        for &u in &touched {
            let u = u as usize;
            let s = shared[u];
            let better = match best {
                None => true,
                Some((bu, bs)) => s > bs || (s == bs && hg.vwgt[u] < hg.vwgt[bu]),
            };
            if better {
                best = Some((u, s));
            }
            shared[u] = 0;
        }
        if let Some((u, _)) = best {
            matched[v] = true;
            matched[u] = true;
            match_of[v] = u as u32;
            match_of[u] = v as u32;
        }
    }
    match_of
}

/// Contract the hypergraph along a matching. Pins are deduplicated per
/// net; nets reduced to a single pin are dropped.
fn contract_hg(hg: &WorkHg, match_of: &[u32]) -> HgLevel {
    let n = hg.num_vertices();
    let mut coarse_of = vec![u32::MAX; n];
    let mut nc = 0u32;
    for v in 0..n {
        if coarse_of[v] != u32::MAX {
            continue;
        }
        coarse_of[v] = nc;
        coarse_of[match_of[v] as usize] = nc;
        nc += 1;
    }
    let ncv = nc as usize;
    let mut vwgt = vec![0i64; ncv];
    for v in 0..n {
        vwgt[coarse_of[v] as usize] += hg.vwgt[v];
    }
    let mut xpins = vec![0usize];
    let mut pins: Vec<u32> = Vec::with_capacity(hg.pins.len());
    let mut nwgt: Vec<i64> = Vec::new();
    let mut mark = vec![u64::MAX; ncv];
    let mut stamp = 0u64;
    for j in 0..hg.num_nets() {
        stamp += 1;
        let start = pins.len();
        for &p in hg.net_pins(j) {
            let c = coarse_of[p as usize];
            if mark[c as usize] != stamp {
                mark[c as usize] = stamp;
                pins.push(c);
            }
        }
        if pins.len() - start <= 1 {
            pins.truncate(start); // single-pin net: drop
        } else {
            xpins.push(pins.len());
            nwgt.push(hg.nwgt[j]);
        }
    }
    let mut coarse = WorkHg {
        xpins,
        pins,
        xnets: Vec::new(),
        nets: Vec::new(),
        vwgt,
        nwgt,
    };
    coarse.rebuild_vertex_nets();
    HgLevel {
        hg: coarse,
        coarse_of,
    }
}

/// Net side-counts for a bisection.
fn side_counts(hg: &WorkHg, part_of: &[u8]) -> Vec<[u32; 2]> {
    let mut counts = vec![[0u32; 2]; hg.num_nets()];
    for j in 0..hg.num_nets() {
        for &p in hg.net_pins(j) {
            counts[j][part_of[p as usize] as usize] += 1;
        }
    }
    counts
}

/// Objective value of a bisection from side counts.
fn objective_value(hg: &WorkHg, counts: &[[u32; 2]], obj: HyperObjective) -> i64 {
    let mut total = 0i64;
    for j in 0..hg.num_nets() {
        let [a, b] = counts[j];
        if a > 0 && b > 0 {
            total += hg.nwgt[j]; // cut-net and conn-1 agree for 2 parts
        }
    }
    let _ = obj; // identical for bisection; kept for API symmetry
    total
}

/// Gain of moving vertex `v` to the other side, from net side counts.
fn move_gain(hg: &WorkHg, counts: &[[u32; 2]], part_of: &[u8], v: usize) -> i64 {
    let side = part_of[v] as usize;
    hg.vertex_nets(v)
        .iter()
        .map(|&j| net_gain(counts[j as usize], side, hg.nwgt[j as usize]))
        .sum()
}

/// Contribution of a net with side counts `counts` and weight `weight`
/// to the move gain of one of its pins on side `side`.
#[inline]
fn net_gain(counts: [u32; 2], side: usize, weight: i64) -> i64 {
    let cf = counts[side];
    let ct = counts[1 - side];
    if cf == 1 && ct > 0 {
        weight // net becomes internal to the other side
    } else if ct == 0 && cf > 1 {
        -weight // net becomes newly cut
    } else {
        0
    }
}

/// Greedy growing initial bisection on the coarsest hypergraph.
fn initial_bisection(
    hg: &WorkHg,
    target: [i64; 2],
    trials: usize,
    obj: HyperObjective,
    rng: &mut SplitMix,
) -> Vec<u8> {
    let n = hg.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut best: Option<(Vec<u8>, i64, f64)> = None;
    for _ in 0..trials.max(1) {
        let mut part_of = vec![1u8; n];
        let mut w0 = 0i64;
        let mut queue = std::collections::VecDeque::new();
        let mut seen = vec![false; n];
        let start = rng.next_below(n);
        queue.push_back(start as u32);
        seen[start] = true;
        let mut seed_next = start;
        while w0 < target[0] {
            let v = match queue.pop_front() {
                Some(v) => v as usize,
                None => {
                    // Disconnected: reseed from the next unseen vertex.
                    let mut found = None;
                    for off in 0..n {
                        let u = (seed_next + off) % n;
                        if !seen[u] {
                            found = Some(u);
                            break;
                        }
                    }
                    match found {
                        Some(u) => {
                            seen[u] = true;
                            seed_next = u + 1;
                            u
                        }
                        None => break,
                    }
                }
            };
            part_of[v] = 0;
            w0 += hg.vwgt[v];
            for &j in hg.vertex_nets(v) {
                let pins = hg.net_pins(j as usize);
                if pins.len() > BIG_NET {
                    continue;
                }
                for &u in pins {
                    if !seen[u as usize] {
                        seen[u as usize] = true;
                        queue.push_back(u);
                    }
                }
            }
        }
        let counts = side_counts(hg, &part_of);
        let cut = objective_value(hg, &counts, obj);
        let w0f = part_of
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p == 0)
            .map(|(v, _)| hg.vwgt[v])
            .sum::<i64>() as f64;
        let imb = (w0f / target[0].max(1) as f64)
            .max((hg.total_vertex_weight() as f64 - w0f) / target[1].max(1) as f64);
        let better = match &best {
            None => true,
            Some((_, bcut, bimb)) => match (imb <= 1.05, *bimb <= 1.05) {
                (true, false) => true,
                (false, true) => false,
                _ => cut < *bcut,
            },
        };
        if better {
            best = Some((part_of, cut, imb));
        }
    }
    best.expect("at least one trial").0
}

/// Hypergraph FM state carried across passes: side counts, move gains
/// and the cut, kept exact for the current `part_of` between passes.
struct HgGains {
    counts: Vec<[u32; 2]>,
    gain: Vec<i64>,
    cut: i64,
    /// Undo log of the current pass's moves: (vertex, gain before the
    /// move) for each vertex a move changed, oldest first.
    undo: Vec<(u32, i64)>,
    /// Pins whose gain the current move changed (scratch of `flip`).
    touched: Vec<u32>,
    is_touched: Vec<bool>,
}

impl HgGains {
    fn new(hg: &WorkHg, part_of: &[u8], obj: HyperObjective) -> HgGains {
        let counts = side_counts(hg, part_of);
        let cut = objective_value(hg, &counts, obj);
        let gain = (0..hg.num_vertices())
            .map(|v| move_gain(hg, &counts, part_of, v))
            .collect();
        HgGains {
            counts,
            gain,
            cut,
            undo: Vec::new(),
            touched: Vec::new(),
            is_touched: vec![false; hg.num_vertices()],
        }
    }

    /// Whether the carried state equals a from-scratch recompute.
    fn is_exact(&self, hg: &WorkHg, part_of: &[u8], obj: HyperObjective) -> bool {
        let fresh = HgGains::new(hg, part_of, obj);
        self.counts == fresh.counts && self.gain == fresh.gain && self.cut == fresh.cut
    }

    /// Move one pin of net `j` from side `from` to the other side,
    /// keeping the cut exact. Returns the net's counts before the move.
    #[inline]
    fn move_pin(&mut self, j: usize, from: usize, weight: i64) -> [u32; 2] {
        let before = self.counts[j];
        self.counts[j][from] -= 1;
        self.counts[j][1 - from] += 1;
        let after = self.counts[j];
        let was_cut = before[0] > 0 && before[1] > 0;
        let is_cut = after[0] > 0 && after[1] > 0;
        self.cut += (is_cut as i64 - was_cut as i64) * weight;
        before
    }

    /// Move `v` to the other side. Side counts and the cut stay exact.
    /// On nets of at most [`BIG_NET`] pins every pin's gain (`v`'s and
    /// locked pins' included) moves by its O(1) delta, logged in
    /// `undo`, and `changed(u, gain)` then reports each other pin whose
    /// gain moved, once, with its final gain. Bigger nets only have
    /// their counts moved: `big(j, counts)` reports each with its counts
    /// before the move, and their pins' gains are left for the caller
    /// to settle.
    fn flip(
        &mut self,
        hg: &WorkHg,
        part_of: &mut [u8],
        v: usize,
        mut changed: impl FnMut(usize, i64),
        mut big: impl FnMut(usize, [u32; 2]),
    ) {
        let from = part_of[v] as usize;
        let to = 1 - from;
        part_of[v] = to as u8;
        self.undo.push((v as u32, self.gain[v]));
        for &j in hg.vertex_nets(v) {
            let j = j as usize;
            let w = hg.nwgt[j];
            let before = self.move_pin(j, from, w);
            let after = self.counts[j];
            let pins = hg.net_pins(j);
            if pins.len() > BIG_NET {
                big(j, before);
                continue;
            }
            self.gain[v] += net_gain(after, to, w) - net_gain(before, from, w);
            // Every other pin's contribution depends only on its side.
            let delta = [0, 1].map(|side| net_gain(after, side, w) - net_gain(before, side, w));
            if delta == [0, 0] {
                continue;
            }
            for &u in pins {
                let u = u as usize;
                let d = delta[part_of[u] as usize];
                if u != v && d != 0 {
                    if !self.is_touched[u] {
                        self.is_touched[u] = true;
                        self.touched.push(u as u32);
                        self.undo.push((u as u32, self.gain[u]));
                    }
                    self.gain[u] += d;
                }
            }
        }
        for &u in &self.touched {
            self.is_touched[u as usize] = false;
            changed(u as usize, self.gain[u as usize]);
        }
        self.touched.clear();
    }

    /// Take back the moves of `rolled` (latest first) and restore the
    /// gains logged since `mark`, the log length before the first of
    /// them.
    fn roll_back(&mut self, hg: &WorkHg, part_of: &mut [u8], rolled: &[u32], mark: usize) {
        for &v in rolled.iter().rev() {
            let v = v as usize;
            let from = part_of[v] as usize;
            part_of[v] = 1 - part_of[v];
            for &j in hg.vertex_nets(v) {
                self.move_pin(j as usize, from, hg.nwgt[j as usize]);
            }
        }
        for &(u, g) in self.undo[mark..].iter().rev() {
            self.gain[u as usize] = g;
        }
        self.undo.truncate(mark);
    }
}

/// FM refinement for hypergraph bisections.
///
/// Side counts, gains, part weights and the cut are computed once per
/// call and carried across passes, and a pass heapifies the vertices
/// once. Moves update the gains of small nets' pins by O(1) deltas and
/// log them, so a rollback restores the logged gains instead of
/// recomputing anything. Nets above [`BIG_NET`] pins get no gain
/// updates inside a pass, so their pins' gains go stale until it ends;
/// after the rollback only the pins of the big nets the pass touched
/// are settled, which makes every gain exact again without a rebuild.
fn fm_refine_hg(
    hg: &WorkHg,
    part_of: &mut [u8],
    target: [i64; 2],
    ubfactor: f64,
    max_passes: usize,
    obj: HyperObjective,
) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = hg.num_vertices();
    if n == 0 {
        return;
    }
    let max_allowed = [
        ((target[0] as f64) * ubfactor).ceil() as i64,
        ((target[1] as f64) * ubfactor).ceil() as i64,
    ];
    let mut st = HgGains::new(hg, part_of, obj);
    let mut part_w = [0i64; 2];
    for v in 0..n {
        part_w[part_of[v] as usize] += hg.vwgt[v];
    }
    let mut locked = vec![false; n];
    let mut kept = vec![false; n];
    let mut moves: Vec<u32> = Vec::new();
    // Undo-log length before each move of the pass.
    let mut marks: Vec<usize> = Vec::new();
    // Big nets the pass touched, with their side counts at its start.
    let mut big_touched = vec![false; hg.num_nets()];
    let mut big_start: Vec<(u32, [u32; 2])> = Vec::new();

    for _ in 0..max_passes {
        let start_cut = st.cut;
        let mut heap: BinaryHeap<(i64, Reverse<u32>)> = BinaryHeap::from(
            (0..n)
                .map(|v| (st.gain[v], Reverse(v as u32)))
                .collect::<Vec<_>>(),
        );
        moves.clear();
        marks.clear();
        let mut cur_cut = start_cut;
        let mut best_cut = start_cut;
        let mut best_len = 0usize;
        let mut best_feasible = part_w[0] <= max_allowed[0] && part_w[1] <= max_allowed[1];
        let mut bad_streak = 0usize;

        while let Some((gtop, Reverse(v))) = heap.pop() {
            let v = v as usize;
            if locked[v] || gtop != st.gain[v] {
                continue;
            }
            let from = part_of[v] as usize;
            let to = 1 - from;
            let wv = hg.vwgt[v];
            let feasible_after = part_w[to] + wv <= max_allowed[to];
            let overflow_now = (part_w[0] - max_allowed[0]).max(part_w[1] - max_allowed[1]);
            let overflow_after =
                ((part_w[from] - wv) - max_allowed[from]).max((part_w[to] + wv) - max_allowed[to]);
            if !feasible_after && overflow_after >= overflow_now {
                continue;
            }
            locked[v] = true;
            part_w[from] -= wv;
            part_w[to] += wv;
            cur_cut -= st.gain[v];
            moves.push(v as u32);
            marks.push(st.undo.len());
            st.flip(
                hg,
                part_of,
                v,
                |u, g| {
                    if !locked[u] {
                        heap.push((g, Reverse(u as u32)));
                    }
                },
                |j, before| {
                    if !big_touched[j] {
                        big_touched[j] = true;
                        big_start.push((j as u32, before));
                    }
                },
            );
            let now_feasible = part_w[0] <= max_allowed[0] && part_w[1] <= max_allowed[1];
            let improves = match (now_feasible, best_feasible) {
                (true, false) => true,
                (false, true) => false,
                _ => cur_cut < best_cut,
            };
            if improves {
                best_cut = cur_cut;
                best_len = moves.len();
                best_feasible = now_feasible;
                bad_streak = 0;
            } else {
                bad_streak += 1;
                if bad_streak > 100 {
                    break;
                }
            }
        }
        for &v in &moves[best_len..] {
            let v = v as usize;
            let from = part_of[v] as usize;
            part_w[from] -= hg.vwgt[v];
            part_w[1 - from] += hg.vwgt[v];
        }
        if let Some(&mark) = marks.get(best_len) {
            st.roll_back(hg, part_of, &moves[best_len..], mark);
        }
        st.undo.clear();
        // Settle the touched big nets: replace each pin's contribution
        // from the pass start with the current one.
        for &v in &moves[..best_len] {
            kept[v as usize] = true;
        }
        for &(j, start) in &big_start {
            let j = j as usize;
            big_touched[j] = false;
            let (now, w) = (st.counts[j], hg.nwgt[j]);
            for &u in hg.net_pins(j) {
                let u = u as usize;
                let side = part_of[u] as usize;
                let start_side = side ^ kept[u] as usize;
                st.gain[u] += net_gain(now, side, w) - net_gain(start, start_side, w);
            }
        }
        big_start.clear();
        for &v in &moves {
            locked[v as usize] = false;
            kept[v as usize] = false;
        }
        debug_assert!(st.is_exact(hg, part_of, obj));
        debug_assert_eq!(part_w, {
            let mut fresh = [0i64; 2];
            for v in 0..n {
                fresh[part_of[v] as usize] += hg.vwgt[v];
            }
            fresh
        });
        if best_len == 0 || best_cut >= start_cut {
            break;
        }
    }
}

/// Multilevel bisection of a working hypergraph.
fn multilevel_bisect_hg(
    hg: &WorkHg,
    target: [i64; 2],
    cfg: &HypergraphPartitionConfig,
    seed: u64,
) -> Vec<u8> {
    let mut rng = SplitMix::new(seed);
    // Coarsen.
    let mut levels: Vec<HgLevel> = Vec::new();
    loop {
        let current = levels.last().map_or(hg, |l| &l.hg);
        if current.num_vertices() <= cfg.coarsen_to {
            break;
        }
        let m = match_vertices(current, &mut rng);
        let level = contract_hg(current, &m);
        if level.hg.num_vertices() as f64 / current.num_vertices() as f64 > 0.95 {
            break;
        }
        levels.push(level);
    }
    let coarsest: &WorkHg = levels.last().map(|l| &l.hg).unwrap_or(hg);
    let mut part = initial_bisection(
        coarsest,
        target,
        cfg.initial_trials,
        cfg.objective,
        &mut rng,
    );
    fm_refine_hg(
        coarsest,
        &mut part,
        target,
        cfg.ubfactor,
        cfg.fm_passes,
        cfg.objective,
    );
    for li in (0..levels.len()).rev() {
        let fine: &WorkHg = if li == 0 { hg } else { &levels[li - 1].hg };
        let coarse_of = &levels[li].coarse_of;
        let mut fine_part = vec![0u8; fine.num_vertices()];
        for v in 0..fine.num_vertices() {
            fine_part[v] = part[coarse_of[v] as usize];
        }
        part = fine_part;
        fm_refine_hg(
            fine,
            &mut part,
            target,
            cfg.ubfactor,
            cfg.fm_passes,
            cfg.objective,
        );
    }
    part
}

/// Reusable global-id scratch for [`sub_hypergraph`], sized to the full
/// hypergraph once per [`partition_hypergraph`] call. Between calls
/// every `local_of` entry is `u32::MAX` and every `net_seen` entry is
/// `false`.
struct SubScratch {
    local_of: Vec<u32>,
    net_seen: Vec<bool>,
}

/// Sub-hypergraph induced on a vertex subset: nets are restricted to
/// surviving pins and dropped if ≤1 pin remains. Only the nets incident
/// to the subset are visited, in net order, so the cost is that of the
/// subset's pins rather than of the whole hypergraph.
fn sub_hypergraph(hg: &WorkHg, vertices: &[u32], scratch: &mut SubScratch) -> WorkHg {
    let SubScratch { local_of, net_seen } = scratch;
    let mut incident: Vec<u32> = Vec::new();
    for (l, &v) in vertices.iter().enumerate() {
        local_of[v as usize] = l as u32;
        for &j in hg.vertex_nets(v as usize) {
            if !net_seen[j as usize] {
                net_seen[j as usize] = true;
                incident.push(j);
            }
        }
    }
    incident.sort_unstable();
    let mut xpins = vec![0usize];
    let mut pins: Vec<u32> = Vec::new();
    let mut nwgt: Vec<i64> = Vec::new();
    for &j in &incident {
        let j = j as usize;
        net_seen[j] = false;
        let start = pins.len();
        for &p in hg.net_pins(j) {
            let l = local_of[p as usize];
            if l != u32::MAX {
                pins.push(l);
            }
        }
        if pins.len() - start <= 1 {
            pins.truncate(start);
        } else {
            xpins.push(pins.len());
            nwgt.push(hg.nwgt[j]);
        }
    }
    for &v in vertices {
        local_of[v as usize] = u32::MAX;
    }
    let vwgt: Vec<i64> = vertices.iter().map(|&v| hg.vwgt[v as usize]).collect();
    let mut sub = WorkHg {
        xpins,
        pins,
        xnets: Vec::new(),
        nets: Vec::new(),
        vwgt,
        nwgt,
    };
    sub.rebuild_vertex_nets();
    sub
}

/// Recursive-bisection k-way hypergraph partitioning.
///
/// Returns the part id of every vertex. With the column-net model and
/// cut-net objective this reproduces the PaToH configuration of the
/// paper's HP reordering (§3.3).
pub fn partition_hypergraph(h: &Hypergraph, cfg: &HypergraphPartitionConfig) -> Vec<u32> {
    let hg = WorkHg::from_hypergraph(h);
    let n = hg.num_vertices();
    let k = cfg.num_parts.max(1);
    if k == 1 || n == 0 {
        return vec![0u32; n];
    }
    let mut rec = Recursion {
        hg_full: &hg,
        cfg,
        part_of: vec![0u32; n],
        scratch: SubScratch {
            local_of: vec![u32::MAX; n],
            net_seen: vec![false; hg.num_nets()],
        },
    };
    let vertices: Vec<u32> = (0..n as u32).collect();
    rec.recurse(&vertices, 0, k, cfg.seed);
    rec.part_of
}

/// State shared by every bisection of the recursion.
struct Recursion<'a> {
    hg_full: &'a WorkHg,
    cfg: &'a HypergraphPartitionConfig,
    part_of: Vec<u32>,
    scratch: SubScratch,
}

impl Recursion<'_> {
    /// Recursively bisect the sub-hypergraph induced by `vertices` into
    /// parts `base..base+k`.
    fn recurse(&mut self, vertices: &[u32], base: u32, k: usize, seed: u64) {
        if k == 1 || vertices.len() <= 1 {
            for &v in vertices {
                self.part_of[v as usize] = base;
            }
            return;
        }
        let sub = if vertices.len() == self.hg_full.num_vertices() {
            Cow::Borrowed(self.hg_full)
        } else {
            Cow::Owned(sub_hypergraph(self.hg_full, vertices, &mut self.scratch))
        };
        let k0 = k / 2;
        let k1 = k - k0;
        let total = sub.total_vertex_weight();
        let t0 = (total as f64 * k0 as f64 / k as f64).round() as i64;
        let target = [t0, total - t0];
        let bis = multilevel_bisect_hg(&sub, target, self.cfg, seed);
        drop(sub);
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (local, &global) in vertices.iter().enumerate() {
            if bis[local] == 0 {
                left.push(global);
            } else {
                right.push(global);
            }
        }
        self.recurse(&left, base, k0, seed.wrapping_mul(0x9E37).wrapping_add(3));
        self.recurse(
            &right,
            base + k0 as u32,
            k1,
            seed.wrapping_mul(0x9E37).wrapping_add(4),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::{CooMatrix, CsrMatrix};

    /// A banded matrix whose column-net hypergraph has an obvious
    /// low-cut split (contiguous blocks).
    fn banded(n: usize, half_bw: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let lo = i.saturating_sub(half_bw);
            let hi = (i + half_bw + 1).min(n);
            for j in lo..hi {
                coo.push(i, j, 1.0);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn bisection_of_banded_matrix_has_low_cut() {
        let a = banded(200, 2);
        let h = Hypergraph::column_net(&a);
        let cfg = HypergraphPartitionConfig::k(2);
        let parts = partition_hypergraph(&h, &cfg);
        let parts_u32: Vec<u32> = parts.clone();
        let cut = h.cut_net(&parts_u32);
        // A contiguous split cuts about 2*half_bw = 4 nets (plus slack).
        assert!(cut <= 20, "cut-net {cut} too high for a banded matrix");
        // Balance.
        let w0 = parts.iter().filter(|&&p| p == 0).count();
        assert!((80..=120).contains(&w0), "part 0 size {w0}");
    }

    #[test]
    fn four_way_partition_covers_all_parts() {
        let a = banded(400, 3);
        let h = Hypergraph::column_net(&a);
        let cfg = HypergraphPartitionConfig::k(4);
        let parts = partition_hypergraph(&h, &cfg);
        let mut sizes = [0usize; 4];
        for &p in &parts {
            assert!(p < 4);
            sizes[p as usize] += 1;
        }
        for &s in &sizes {
            assert!(s >= 60, "part size {s} too small for 400/4");
        }
    }

    #[test]
    fn single_part_is_trivial() {
        let a = banded(50, 1);
        let h = Hypergraph::column_net(&a);
        let cfg = HypergraphPartitionConfig::k(1);
        let parts = partition_hypergraph(&h, &cfg);
        assert!(parts.iter().all(|&p| p == 0));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = banded(150, 2);
        let h = Hypergraph::column_net(&a);
        let cfg = HypergraphPartitionConfig::k(4);
        assert_eq!(
            partition_hypergraph(&h, &cfg),
            partition_hypergraph(&h, &cfg)
        );
    }

    #[test]
    fn fm_never_worsens_cut() {
        let a = banded(120, 2);
        let h = Hypergraph::column_net(&a);
        let hg = WorkHg::from_hypergraph(&h);
        // Start from a deliberately bad interleaved split.
        let mut part: Vec<u8> = (0..hg.num_vertices()).map(|v| (v % 2) as u8).collect();
        let counts = side_counts(&hg, &part);
        let before = objective_value(&hg, &counts, HyperObjective::CutNet);
        let total = hg.total_vertex_weight();
        fm_refine_hg(
            &hg,
            &mut part,
            [total / 2, total - total / 2],
            1.05,
            8,
            HyperObjective::CutNet,
        );
        let counts = side_counts(&hg, &part);
        let after = objective_value(&hg, &counts, HyperObjective::CutNet);
        assert!(after <= before, "FM worsened cut: {before} -> {after}");
        assert!(
            after < before / 2,
            "FM should fix interleaving: {before} -> {after}"
        );
    }

    /// A unit-weight working hypergraph from explicit pin lists.
    fn work_hg(n: usize, nets: &[Vec<u32>]) -> WorkHg {
        let mut xpins = vec![0usize];
        let mut pins = Vec::new();
        for net in nets {
            pins.extend_from_slice(net);
            xpins.push(pins.len());
        }
        let mut hg = WorkHg {
            xpins,
            pins,
            xnets: Vec::new(),
            nets: Vec::new(),
            vwgt: vec![1; n],
            nwgt: vec![1; nets.len()],
        };
        hg.rebuild_vertex_nets();
        hg
    }

    /// FM from a bisection whose two big nets (above `BIG_NET` pins)
    /// have a single pin on the minority side, among random small nets:
    /// kept moves cross the big nets' cut thresholds, so their pins'
    /// stale in-pass gains must be settled at the end of each pass. FM
    /// debug-asserts after every pass that all gains, side counts and
    /// the cut equal a from-scratch recompute.
    #[test]
    fn fm_settles_big_net_gains() {
        let n = 400;
        let mut rng = SplitMix::new(0xB16);
        let mut crossed = 0;
        for _ in 0..12 {
            let mut nets: Vec<Vec<u32>> = Vec::new();
            for _ in 0..700 {
                let mut net: Vec<u32> = Vec::new();
                for _ in 0..2 + rng.next_below(4) {
                    let p = rng.next_below(n) as u32;
                    if !net.contains(&p) {
                        net.push(p);
                    }
                }
                if net.len() > 1 {
                    nets.push(net);
                }
            }
            let small = nets.len();
            for _ in 0..2 {
                let mut net: Vec<u32> = (0..300).collect();
                net.push(300 + rng.next_below(100) as u32);
                nets.push(net);
            }
            assert!(nets[small..].iter().all(|net| net.len() > BIG_NET));
            let hg = work_hg(n, &nets);
            let start: Vec<u8> = (0..n).map(|v| (v >= 300) as u8).collect();
            let mut part = start.clone();
            fm_refine_hg(&hg, &mut part, [300, 100], 1.05, 6, HyperObjective::CutNet);
            let moved_big_pin = nets[small..]
                .iter()
                .flatten()
                .any(|&v| part[v as usize] != start[v as usize]);
            crossed += moved_big_pin as usize;
        }
        assert!(crossed > 0, "no kept move crossed a big net");
    }

    #[test]
    fn contraction_preserves_weight_and_reduces_size() {
        let a = banded(300, 2);
        let h = Hypergraph::column_net(&a);
        let hg = WorkHg::from_hypergraph(&h);
        let mut rng = SplitMix::new(5);
        let m = match_vertices(&hg, &mut rng);
        let level = contract_hg(&hg, &m);
        assert_eq!(level.hg.total_vertex_weight(), hg.total_vertex_weight());
        assert!(level.hg.num_vertices() < hg.num_vertices());
        // Dual incidence is consistent.
        for v in 0..level.hg.num_vertices() {
            for &j in level.hg.vertex_nets(v) {
                assert!(level.hg.net_pins(j as usize).contains(&(v as u32)));
            }
        }
    }
}
