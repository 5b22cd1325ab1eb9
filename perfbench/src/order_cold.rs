//! `order_cold`: the paper's own pipeline on a fixed subset of the medium
//! corpus. Each matrix is crossed with Original and the six study
//! orderings; each (matrix, ordering) pair is ordered, permuted, planned
//! for the three kernels at two threads, multiplied and checked, and
//! AMD/ND pairs are factored symbolically. Whole passes over the subset
//! repeat until the run's time is up.

use crate::layers;
use crate::report::Outcome;
use crate::stats::{geomean, median, quiet_low, same_vector, summarize, Rng};
use crate::trace::Tracer;
use crate::Run;
use reorder::{Amd, Gp, Gray, Hp, Nd, Original, Rcm, ReorderAlgorithm, ReorderExec};
use sparsemat::{CsrMatrix, Permutation};
use spmv::{Kernel, KernelKind, ThreadTeam};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Threads of the SpMV kernels.
const SPMV_THREADS: usize = 2;
/// GP parts: the paper partitions into one part per core, here one per
/// SpMV thread.
const GP_PARTS: usize = SPMV_THREADS;
/// HP parts, as the medium corpus is studied.
const HP_PARTS: usize = 64;
/// Timed calls per (pair, kernel), and per pair in the interleaved
/// Original-vs-ordering comparison.
const REPS: usize = 15;

/// The orderings of the study, Original first.
const ORDERINGS: [&str; 7] = ["original", "rcm", "amd", "nd", "gp", "hp", "gray"];

fn algorithm(name: &str) -> Box<dyn ReorderAlgorithm> {
    match name {
        "original" => Box::new(Original),
        "rcm" => Box::new(Rcm::default()),
        "amd" => Box::new(Amd::default()),
        "nd" => Box::new(Nd::default()),
        "gp" => Box::new(Gp::new(GP_PARTS)),
        "hp" => Box::new(Hp::new(HP_PARTS)),
        "gray" => Box::new(Gray::default()),
        _ => unreachable!("unknown ordering {name}"),
    }
}

/// Span name of each ordering's `compute_on` call.
fn span_of(name: &str) -> &'static str {
    match name {
        "original" => "reorder.original",
        "rcm" => "reorder.rcm",
        "amd" => "reorder.amd",
        "nd" => "reorder.nd",
        "gp" => "reorder.gp",
        "hp" => "reorder.hp",
        _ => "reorder.gray",
    }
}

/// The subset: one or more matrices of every family of the medium
/// corpus, scrambled and partially ordered ones included, with the
/// orderings each runs. HP costs about ten times the others, so it runs
/// on the four smallest; AMD and ND on `mixed_density` take seconds,
/// so that matrix runs the remaining orderings.
const SUBSET: [(&str, &[&str]); 10] = [
    ("mesh2d_small(HV15R-regime)", &ORDERINGS),
    ("mesh3d_small", &ORDERINGS),
    ("circuit_small", &ORDERINGS),
    ("genome_c", &ORDERINGS),
    (
        "band_narrow",
        &["original", "rcm", "amd", "nd", "gp", "gray"],
    ),
    (
        "road_partial",
        &["original", "rcm", "amd", "nd", "gp", "gray"],
    ),
    (
        "random_er_d4",
        &["original", "rcm", "amd", "nd", "gp", "gray"],
    ),
    ("rmat_d6", &["original", "rcm", "amd", "nd", "gp", "gray"]),
    (
        "blocks_scrambled",
        &["original", "rcm", "amd", "nd", "gp", "gray"],
    ),
    ("mixed_density", &["original", "rcm", "gp", "gray"]),
];

struct Input {
    orderings: &'static [&'static str],
    a: Arc<CsrMatrix>,
    x: Vec<f64>,
    y: Vec<f64>,
}

/// The subset's matrices, as the corpus defines them, with a seeded
/// input vector each.
fn setup(seed: u64) -> Vec<Input> {
    let specs = corpus::standard_corpus(corpus::CorpusSize::Medium);
    let mut rng = Rng::new(seed);
    SUBSET
        .iter()
        .map(|&(name, orderings)| {
            let spec = specs
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} is not in the medium corpus"));
            let a = spec.build();
            let x = rng.vector(a.ncols());
            let y = a.spmv_dense(&x);
            Input {
                orderings,
                a: Arc::new(a),
                x,
                y,
            }
        })
        .collect()
}

/// Per (matrix, ordering) measurements gathered over the passes.
#[derive(Default)]
struct PairStats {
    nnz: usize,
    /// Cold request latency, one entry per pass.
    latency_ms: Vec<f64>,
    compute_s: Vec<f64>,
    /// Median seconds per call, one entry per pass, per kernel.
    exec_s: BTreeMap<&'static str, Vec<f64>>,
    /// Original / ordering time of the interleaved 1d calls, per pass.
    speedup: Vec<f64>,
    factor_nnz: Option<usize>,
    reordered: Option<Arc<CsrMatrix>>,
}

fn is_permutation(p: &Permutation, n: usize) -> bool {
    let mut seen = vec![false; n];
    p.len() == n
        && p.order()
            .iter()
            .all(|&v| (v as usize) < n && !std::mem::replace(&mut seen[v as usize], true))
}

pub fn run(cfg: &Run) -> Outcome {
    let mut out = Outcome::default();
    let mut inputs = Vec::new();
    let setup_s = layers::repeat_setup(|| inputs = setup(cfg.seed));
    out.set_noted(
        "setup_s",
        median(&setup_s),
        setup_s.len(),
        format!("median of {} corpus generations", setup_s.len()),
    );

    let team = ThreadTeam::new(SPMV_THREADS);
    let reorder_threads = engine::EngineConfig::default().reorder_threads;
    let reorder_team = (reorder_threads > 1).then(|| ThreadTeam::new(reorder_threads));
    let rx = match &reorder_team {
        Some(t) => ReorderExec::on_team(t),
        None => ReorderExec::sequential(),
    };
    let mut tr = Tracer::new(cfg.traced);
    let mut pairs: BTreeMap<(usize, &'static str), PairStats> = BTreeMap::new();
    let mut request = 0u64;
    let mut passes = 0usize;

    let mut visit: Vec<usize> = (0..inputs.len()).collect();
    let mut rng = Rng::new(cfg.seed ^ 0x0DE2);
    let started = Instant::now();
    let mut last_pass = 0.0;
    while passes == 0 || started.elapsed().as_secs_f64() + last_pass <= cfg.seconds {
        let pass_started = Instant::now();
        // Each pass visits the matrices in a seeded order.
        for i in (1..visit.len()).rev() {
            visit.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        for &mi in &visit {
            let input = &inputs[mi];
            let n = input.a.nrows();
            // 1d kernels of this matrix, for the interleaved comparison.
            let mut interleaved: Vec<(&'static str, Arc<dyn Kernel>, Vec<f64>)> = Vec::new();
            for &name in input.orderings {
                request += 1;
                let stats = pairs.entry((mi, name)).or_default();
                stats.nnz = input.a.nnz();
                let root = tr.open("order_cold.request", request, None);
                let t0 = Instant::now();
                let span = tr.open(span_of(name), request, root);
                let result = algorithm(name).compute_on(&input.a, &rx);
                tr.close(span);
                let t1 = Instant::now();
                let result = match result {
                    Ok(r) if is_permutation(&r.perm, n) => r,
                    _ => {
                        tr.close(root);
                        out.tally(false);
                        out.wrong += 1;
                        continue;
                    }
                };
                let span = tr.open("sparsemat.permute", request, root);
                let b = result.apply_on(&input.a, rx.exec());
                tr.close(span);
                let Ok(b) = b.map(Arc::new) else {
                    tr.close(root);
                    out.tally(false);
                    continue;
                };
                let span = tr.open("spmv.plan", request, root);
                let k1 = KernelKind::OneD.plan(&b, SPMV_THREADS);
                tr.close(span);
                let xp = result.permute_input(&input.x);
                let mut yp = vec![0.0; n];
                let span = tr.open("spmv.1d", request, root);
                k1.execute(&team, &xp, &mut yp);
                tr.close(span);
                let y = result.unpermute_output(&yp);
                tr.close(root);
                stats.latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                let mut ok = same_vector(&y, &input.y);
                stats.compute_s.push((t1 - t0).as_secs_f64());

                for kind in KernelKind::all() {
                    let kernel = if kind == KernelKind::OneD {
                        Arc::clone(&k1)
                    } else {
                        let span = tr.open("spmv.plan", request, None);
                        let k = kind.plan(&b, SPMV_THREADS);
                        tr.close(span);
                        k
                    };
                    let mut calls = Vec::with_capacity(REPS);
                    for _ in 0..REPS {
                        let span = tr.open(layers::kernel_span(kind), request, None);
                        let t = Instant::now();
                        kernel.execute(&team, &xp, &mut yp);
                        calls.push(t.elapsed().as_secs_f64());
                        tr.close(span);
                    }
                    ok &= same_vector(&result.unpermute_output(&yp), &input.y);
                    stats
                        .exec_s
                        .entry(kind.name())
                        .or_default()
                        .push(median(&calls));
                }
                if passes == 0 && (name == "amd" || name == "nd") {
                    let span = tr.open("cholesky.symbolic", request, None);
                    stats.factor_nnz = Some(cholesky::nnz_of_factor(&b));
                    tr.close(span);
                }
                if passes == 0 && cfg.traced {
                    stats.reordered = Some(Arc::clone(&b));
                }
                if !ok {
                    out.wrong += 1;
                }
                out.tally(ok);
                interleaved.push((name, k1, xp));
            }
            // The paper's quantity: Original vs each ordering, 1d kernel,
            // calls interleaved so drift hits every ordering alike.
            let mut calls: Vec<Vec<f64>> = vec![Vec::with_capacity(REPS); interleaved.len()];
            for _ in 0..REPS {
                for ((_, kernel, xp), c) in interleaved.iter().zip(&mut calls) {
                    let mut yp = vec![0.0; n];
                    let t = Instant::now();
                    kernel.execute(&team, xp, &mut yp);
                    c.push(t.elapsed().as_secs_f64());
                }
            }
            let base = median(&calls[0]);
            for ((name, _, _), c) in interleaved.iter().zip(&calls) {
                if let Some(stats) = pairs.get_mut(&(mi, *name)) {
                    stats.speedup.push(base / median(c));
                }
            }
        }
        passes += 1;
        last_pass = pass_started.elapsed().as_secs_f64();
    }
    let measured_s = started.elapsed().as_secs_f64();

    // Each pair's quiet quartile over the passes (its fastest when there
    // are four or fewer): the host slows for minutes at a time, and a
    // pass it slowed then decides no pair's figure.
    let pair_ms: Vec<f64> = pairs
        .values()
        .filter(|p| !p.latency_ms.is_empty())
        .map(|p| quiet_low(&p.latency_ms))
        .collect();
    let lat = summarize(&pair_ms);
    let lat_note = format!("cold requests, each pair's quiet quartile over {passes} passes");
    out.set_noted("latency_p50_ms", lat.p50, lat.n, lat_note.clone());
    out.set_noted(
        "latency_p99_ms",
        lat.tail,
        lat.n,
        format!("p{:.1} of pairs; {lat_note}", 100.0 * lat.tail_q),
    );
    let busy_s: f64 = pair_ms.iter().sum::<f64>() / 1e3;
    out.set_noted(
        "throughput_per_s",
        pair_ms.len() as f64 / busy_s,
        pair_ms.len(),
        "cold requests completed per second by one caller".into(),
    );

    let reordered = |name: &str, p: &PairStats| name != "original" && !p.compute_s.is_empty();
    let rates: Vec<f64> = pairs
        .iter()
        .filter(|((_, name), p)| reordered(name, p))
        .map(|(_, p)| p.nnz as f64 / median(&p.compute_s) / 1e6)
        .collect();
    out.set("order_mnnz_per_s", geomean(&rates), rates.len());
    let mut gflops: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for p in pairs.values() {
        for (kernel, secs) in &p.exec_s {
            gflops
                .entry(kernel)
                .or_default()
                .push(2.0 * p.nnz as f64 / median(secs) / 1e9);
        }
    }
    let all: Vec<f64> = gflops.values().flatten().copied().collect();
    out.set("spmv_gflops", geomean(&all), all.len());
    let speedups: Vec<f64> = pairs
        .iter()
        .filter(|((_, name), p)| reordered(name, p) && !p.speedup.is_empty())
        .map(|(_, p)| median(&p.speedup))
        .collect();
    out.set("spmv_speedup", geomean(&speedups), speedups.len());
    let fills: Vec<f64> = pairs
        .values()
        .filter_map(|p| p.factor_nnz.map(|f| f as f64 / p.nnz as f64))
        .collect();
    out.set("fill_ratio", geomean(&fills), fills.len());

    if cfg.traced {
        per_layer(&mut out, &inputs, &pairs, &gflops, &rx, &tr, passes);
        layers::common(&mut out, &tr, measured_s, None);
    }
    out
}

/// The per-layer figures of a traced run.
fn per_layer(
    out: &mut Outcome,
    inputs: &[Input],
    pairs: &BTreeMap<(usize, &'static str), PairStats>,
    gflops: &BTreeMap<&str, Vec<f64>>,
    rx: &ReorderExec<'_>,
    tr: &Tracer,
    passes: usize,
) {
    let self_times = tr.self_times();
    let busy = |span: &str| -> (f64, usize) {
        self_times.get(span).map_or((0.0, 0), |d| {
            (
                d.iter().map(|t| t.as_secs_f64()).sum::<f64>() / passes as f64,
                d.len(),
            )
        })
    };
    for (metric, span) in [
        ("reorder.rcm.busy_s", "reorder.rcm"),
        ("reorder.amd.busy_s", "reorder.amd"),
        ("reorder.nd.busy_s", "reorder.nd"),
        ("reorder.gp.busy_s", "reorder.gp"),
        ("reorder.hp.busy_s", "reorder.hp"),
        ("reorder.gray.busy_s", "reorder.gray"),
        ("sparsemat.permute.busy_s", "sparsemat.permute"),
        ("spmv.plan.busy_s", "spmv.plan"),
        ("spmv.1d.busy_s", "spmv.1d"),
        ("spmv.2d.busy_s", "spmv.2d"),
        ("spmv.merge.busy_s", "spmv.merge"),
    ] {
        let (v, n) = busy(span);
        out.set_noted(metric, v, n, "seconds per pass".into());
    }
    for kind in KernelKind::all() {
        let g = gflops.get(kind.name()).map_or(&[][..], Vec::as_slice);
        out.set(layers::gflops_metric(kind), geomean(g), g.len());
    }

    let mut permute_bytes = 0.0;
    let mut call_bytes = Vec::new();
    let (mut rounds, mut pivots, mut bandwidth) = (0u64, 0u64, 0usize);
    let mut offdiag: BTreeMap<&str, usize> = BTreeMap::new();
    let mut factor: BTreeMap<&str, usize> = BTreeMap::new();
    for (&(mi, name), p) in pairs {
        let a = &inputs[mi].a;
        permute_bytes += layers::permute_bytes(a);
        call_bytes.push(layers::spmv_bytes(a));
        if let Some(f) = p.factor_nnz {
            *factor.entry(name).or_default() += f;
        }
        let Some(b) = &p.reordered else { continue };
        match name {
            "rcm" => bandwidth += spfeatures::bandwidth(b),
            "gp" | "hp" => {
                *offdiag.entry(name).or_default() += spfeatures::off_diagonal_nnz(b, SPMV_THREADS)
            }
            "amd" => {
                let g = reorder::build_ordering_graph(a, rx).expect("square corpus matrix");
                let (_, stats) = reorder::amd_order_on(&g, true, Amd::default().round_slack, rx);
                rounds += stats.rounds;
                pivots += stats.pivots;
            }
            _ => {}
        }
    }
    out.set("sparsemat.permute.bytes", permute_bytes, pairs.len());
    out.set(
        "spmv.bytes_per_call",
        call_bytes.iter().sum::<f64>() / call_bytes.len().max(1) as f64,
        call_bytes.len(),
    );
    out.set("reorder.amd.rounds", rounds as f64, 1);
    out.set(
        "reorder.amd.pivots_per_round",
        pivots as f64 / rounds.max(1) as f64,
        1,
    );
    out.set("reorder.rcm.bandwidth", bandwidth as f64, 1);
    out.set(
        "reorder.gp.offdiag_nnz",
        offdiag.get("gp").copied().unwrap_or(0) as f64,
        1,
    );
    out.set(
        "reorder.hp.offdiag_nnz",
        offdiag.get("hp").copied().unwrap_or(0) as f64,
        1,
    );
    out.set(
        "cholesky.factor_nnz.amd",
        factor.get("amd").copied().unwrap_or(0) as f64,
        1,
    );
    out.set(
        "cholesky.factor_nnz.nd",
        factor.get("nd").copied().unwrap_or(0) as f64,
        1,
    );
    paper_row(out, inputs, pairs);
}

/// The paper-level row: measured speedup per ordering × kernel next to
/// archsim's prediction for the machine entry closest to this host, and
/// their rank agreement over every (matrix, ordering) pair.
fn paper_row(
    out: &mut Outcome,
    inputs: &[Input],
    pairs: &BTreeMap<(usize, &'static str), PairStats>,
) {
    let machine = layers::closest_machine(SPMV_THREADS);
    let opts = archsim::SimOptions {
        cache_scale: 1.0 / 16.0,
    };
    let predict = |a: &CsrMatrix, kind: KernelKind| match kind {
        KernelKind::TwoD => archsim::simulate_spmv_2d_opt(a, &machine, &opts).seconds,
        _ => archsim::simulate_spmv_1d_opt(a, &machine, &opts).seconds,
    };
    let mut measured_1d = Vec::new();
    let mut predicted_1d = Vec::new();
    println!(
        "paper row: measured speedup vs Original (geomean over matrices) | archsim \"{}\" at {} threads",
        machine.name, SPMV_THREADS
    );
    for &name in &ORDERINGS[1..] {
        let mut cells = Vec::new();
        for kind in KernelKind::all() {
            let mut measured = Vec::new();
            let mut predicted = Vec::new();
            for mi in 0..inputs.len() {
                let (Some(base), Some(p)) = (pairs.get(&(mi, "original")), pairs.get(&(mi, name)))
                else {
                    continue;
                };
                let (Some(tb), Some(tp)) =
                    (base.exec_s.get(kind.name()), p.exec_s.get(kind.name()))
                else {
                    continue;
                };
                let m = if kind == KernelKind::OneD {
                    median(&p.speedup)
                } else {
                    median(tb) / median(tp)
                };
                measured.push(m);
                if kind != KernelKind::Merge {
                    if let (Some(rb), Some(rp)) = (&base.reordered, &p.reordered) {
                        let s = predict(rb, kind) / predict(rp, kind);
                        predicted.push(s);
                        if kind == KernelKind::OneD {
                            measured_1d.push(m);
                            predicted_1d.push(s);
                        }
                    }
                }
            }
            cells.push(if predicted.is_empty() {
                format!("{} {:.3}x", kind.name(), geomean(&measured))
            } else {
                format!(
                    "{} {:.3}x (predicted {:.3}x)",
                    kind.name(),
                    geomean(&measured),
                    geomean(&predicted)
                )
            });
        }
        println!("  {name:>5}: {}", cells.join(" | "));
    }
    let rho = spfeatures::spearman(&measured_1d, &predicted_1d).unwrap_or(0.0);
    out.set_noted(
        "archsim.rank_agreement",
        rho,
        measured_1d.len(),
        "Spearman, measured vs predicted 1d speedup over (matrix, ordering) pairs".into(),
    );
}
