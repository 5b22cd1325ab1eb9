//! `delta_fresh`: the warm tier under writes. One closed-loop mutator
//! thread (pausing `THINK` between deltas) repeatedly clones the current version of a multi-component
//! matrix, applies a `corpus::mutation_trace` batch, requests an answer
//! for the descendant (RCM for the meshes, AMD for the roads) and waits
//! for it; one open-loop reader thread requests answers at a fixed rate
//! for the current versions and a few static keys. Reads and the fresh
//! descendants share the tier's dispatcher.

use crate::layers;
use crate::report::Outcome;
use crate::serve::{self, settle, Key, Replay, Sample};
use crate::stats::{median, quiet_high, same_vector, summarize, summarize_windows, Rng};
use crate::trace::Tracer;
use crate::Run;
use engine::{AlgoSpec, MatrixHandle};
use servetier::SpmvRequest;
use sparsemat::{CsrMatrix, EdgeOp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The readers' offered rate, requests per second.
const READ_RATE: f64 = 1000.0;
/// Every read's deadline, after its due time: far above any latency the
/// tier gives here, so that only a stall of the host longer than that
/// expires a read.
const DEADLINE: Duration = Duration::from_millis(1000);
/// Components of each multi-component matrix.
const COMPONENTS: usize = 64;
/// The mutator's pause after each fresh answer, so that writes occupy
/// a share of the dispatcher rather than all of it.
const THINK: Duration = Duration::from_millis(20);
/// Deltas per window of the `throughput_per_s` quiet quartile.
const FRESH_WINDOW: usize = 50;
/// Symmetric edge edits per delta batch.
const EDGES: usize = 4;
/// Static keys the readers request besides the current versions.
const STATIC_KEYS: usize = 6;
/// Deltas per chain in the single-thread replay of a traced run.
const REPLAY_DELTAS: usize = 30;
/// Reads the replay walks after each replayed delta.
const REPLAY_READS: usize = 8;

/// The two mutated chains: scrambled meshes under RCM and scrambled
/// road networks under AMD, each a disjoint union of `COMPONENTS` parts.
fn chains(rng: &mut Rng) -> Vec<Key> {
    let meshes = corpus::disjoint_meshes(COMPONENTS, 14, 12, rng.next_u64());
    let road_seed = rng.next_u64();
    let roads: Vec<CsrMatrix> = (0..COMPONENTS as u64)
        .map(|r| {
            corpus::scramble(
                &corpus::road(13, 12, road_seed ^ r),
                road_seed.wrapping_add(r),
            )
        })
        .collect();
    vec![
        Key::new(meshes, AlgoSpec::Rcm, rng),
        Key::new(corpus::disjoint_union(&roads), AlgoSpec::Amd, rng),
    ]
}

fn static_keys(rng: &mut Rng) -> Vec<Key> {
    corpus::standard_corpus(corpus::CorpusSize::Small)
        .into_iter()
        .step_by(5)
        .take(STATIC_KEYS)
        .map(|spec| Key::new(spec.build(), AlgoSpec::Rcm, rng))
        .collect()
}

/// The next mutation batch for `key`, or `None` when the trace
/// generator has no edit left to make.
fn next_batch(key: &Key, seed: u64) -> Option<Vec<EdgeOp>> {
    corpus::mutation_trace(key.handle.matrix(), 1, EDGES, seed).pop()
}

/// Clone `key`'s matrix and apply `batch`: the descendant and the time
/// `apply_delta` took.
fn descend(key: &Key, batch: &[EdgeOp]) -> Option<(CsrMatrix, Duration)> {
    let mut child = (**key.handle.matrix()).clone();
    let t = Instant::now();
    child.apply_delta(batch).ok()?;
    Some((child, t.elapsed()))
}

/// What the mutator measured.
#[derive(Default)]
struct Writes {
    fresh_ms: Vec<f64>,
    apply_delta_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    wrong: u64,
}

pub fn run(cfg: &Run) -> Outcome {
    let mut out = Outcome::default();
    let mut state = None;
    let mut warm_ok = true;
    let setup_s = layers::repeat_setup(|| {
        drop(state.take());
        let mut rng = Rng::new(cfg.seed);
        let chains = chains(&mut rng);
        let statics = static_keys(&mut rng);
        let tier = serve::tier();
        for key in chains.iter().chain(&statics) {
            warm_ok &= serve::serve_checked(&tier, key);
        }
        state = Some((chains, statics, tier));
    });
    let (chains, statics, tier) = state.expect("set-up ran");
    out.tally(warm_ok);
    out.wrong += u64::from(!warm_ok);
    out.set_noted(
        "setup_s",
        median(&setup_s),
        setup_s.len(),
        format!("median of {} generations + tier warm-ups", setup_s.len()),
    );

    let mut tr = Tracer::new(cfg.traced);
    let current = Mutex::new(chains.clone());
    let stop = AtomicBool::new(false);
    let budget = Duration::from_secs_f64(cfg.seconds);
    let started = Instant::now();
    let (writes, reads) = std::thread::scope(|scope| {
        let mutator = scope.spawn(|| {
            let mut w = Writes::default();
            let mut tr = Tracer::new(cfg.traced);
            let mut step = 0u64;
            while started.elapsed() < budget {
                let c = step as usize % chains.len();
                step += 1;
                let parent = current.lock().expect("version lock")[c].clone();
                let seed = cfg.seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let Some(batch) = next_batch(&parent, seed) else {
                    continue;
                };
                let t0 = Instant::now();
                let root = tr.open("delta.fresh", step, None);
                let span = tr.open("sparsemat.apply_delta", step, root);
                let descendant = descend(&parent, &batch);
                tr.close(span);
                let Some((child, apply)) = descendant else {
                    tr.close(root);
                    w.attempted += 1;
                    w.failed += 1;
                    continue;
                };
                let handle = MatrixHandle::from_matrix(child);
                let request = SpmvRequest {
                    matrix: handle.clone(),
                    ..parent.request(None)
                };
                let span = tr.open("servetier.serve", step, root);
                let answer = tier.serve(request);
                tr.close(span);
                tr.close(root);
                let fresh = t0.elapsed();
                w.attempted += 1;
                let key = Key::with_x(handle, parent.algo, Arc::clone(&parent.x));
                match answer {
                    Ok(r) if same_vector(&r.y, &key.y) => {
                        w.fresh_ms.push(fresh.as_secs_f64() * 1e3);
                        w.apply_delta_us.push(apply.as_secs_f64() * 1e6);
                        current.lock().expect("version lock")[c] = key;
                    }
                    Ok(_) => {
                        w.failed += 1;
                        w.wrong += 1;
                    }
                    Err(_) => w.failed += 1,
                }
                std::thread::sleep(THINK);
            }
            stop.store(true, Ordering::SeqCst);
            (w, tr)
        });
        let reader = scope.spawn(|| {
            let mut tr = Tracer::new(cfg.traced);
            let reads = read_loop(cfg.seed, &tier, &current, &statics, &stop, &mut tr);
            (reads, tr)
        });
        let (writes, writer_spans) = mutator.join().expect("mutator thread");
        let (reads, reader_spans) = reader.join().expect("reader thread");
        tr.absorb(writer_spans);
        tr.absorb(reader_spans);
        (writes, reads)
    });
    let measured_s = started.elapsed().as_secs_f64();

    for s in &reads {
        out.tally(s.ok());
        out.wrong += u64::from(s.wrong);
    }
    out.attempted += writes.attempted;
    out.failed += writes.failed;
    out.wrong += writes.wrong;

    let latencies: Vec<f64> = reads.iter().map(|s| s.latency_ms).collect();
    let (lat, windows) = summarize_windows(&latencies);
    let note = format!("readers at {READ_RATE} req/s offered, from due time");
    out.set_noted(
        "latency_p50_ms",
        lat.p50,
        lat.n,
        format!("quiet quartile of {windows} window medians, {note}"),
    );
    out.set_noted(
        "latency_p99_ms",
        lat.tail,
        lat.n,
        format!(
            "quiet quartile of {windows} window p{:.1}s, {note}",
            100.0 * lat.tail_q
        ),
    );
    let fresh = summarize(&writes.fresh_ms);
    // Per window of consecutive deltas, so a burst of host noise moves
    // a few windows' rates and not the quiet quartile.
    let rates: Vec<f64> = writes
        .fresh_ms
        .chunks(FRESH_WINDOW)
        .filter(|w| w.len() == FRESH_WINDOW || writes.fresh_ms.len() < FRESH_WINDOW)
        .map(|w| w.len() as f64 * 1e3 / w.iter().sum::<f64>())
        .collect();
    out.set_noted(
        "throughput_per_s",
        quiet_high(&rates),
        fresh.n,
        format!(
            "descendants made fresh per second of writer time, quiet quartile of {} windows",
            rates.len()
        ),
    );
    out.set("fresh_p50_ms", fresh.p50, fresh.n);
    out.set_noted(
        "fresh_p99_ms",
        fresh.tail,
        fresh.n,
        format!("p{:.1}", 100.0 * fresh.tail_q),
    );

    let samples: Vec<&Sample> = reads.iter().collect();
    serve::lateness(&mut out, &samples);
    if cfg.traced {
        serve::tier_layers(&mut out, &samples);
        serve::stats_layers(&mut out, &tier, writes.attempted);
        out.set(
            "sparsemat.apply_delta_us",
            median(&writes.apply_delta_us),
            writes.apply_delta_us.len(),
        );
        drop(tier);
        replay(cfg.seed, &chains, &statics, &mut out, &mut tr);
        layers::common(
            &mut out,
            &tr,
            measured_s,
            Some(Duration::from_secs_f64(1.0 / READ_RATE)),
        );
    }
    out
}

/// The open-loop reader: one request per due time, over the current
/// versions and the static keys; waits for each answer before the next
/// submission, so a read stuck behind fresh work delays the following
/// ones, which their due-time latencies and the lateness report show.
fn read_loop(
    seed: u64,
    tier: &servetier::ServeTier,
    current: &Mutex<Vec<Key>>,
    statics: &[Key],
    stop: &AtomicBool,
    tr: &mut Tracer,
) -> Vec<Sample> {
    serve::precise_sleeps();
    let mut rng = Rng::new(seed ^ 0x4EAD);
    let interval = Duration::from_secs_f64(1.0 / READ_RATE);
    let start = Instant::now();
    let mut samples = Vec::new();
    for i in 0u64.. {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let due = start + interval.mul_f64(i as f64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let versions = current.lock().expect("version lock").clone();
        let pick = (rng.next_u64() % (versions.len() + statics.len()) as u64) as usize;
        let key = versions
            .get(pick)
            .unwrap_or_else(|| &statics[pick - versions.len()]);
        let t = Instant::now();
        let span = tr.open("servetier.submit", i, None);
        let ticket = tier.submit(key.request(Some(due + DEADLINE)));
        tr.close(span);
        let submit_us = t.elapsed().as_secs_f64() * 1e6;
        samples.push(settle(ticket, key, due, t, submit_us));
        tr.record("request", i, due, Instant::now());
    }
    samples
}

/// Single-thread replay of the workload's mix: each delta's descendant
/// walks the chain (a lineage splice in `Engine::get`), then a few reads
/// of the current versions and static keys walk it warm.
fn replay(seed: u64, chains: &[Key], statics: &[Key], out: &mut Outcome, tr: &mut Tracer) {
    let mut replay = Replay::new();
    let mut warm = Tracer::new(false);
    for key in chains.iter().chain(statics) {
        replay.request(key, 0, &mut warm);
    }
    let mut fresh_tr = Tracer::new(true);
    let mut reads_tr = Tracer::new(true);
    let mut read_keys = Vec::new();
    let mut versions = chains.to_vec();
    let mut rng = Rng::new(seed ^ 0x4E91A7);
    let mut id = 0u64;
    for step in 0..REPLAY_DELTAS * versions.len() {
        let c = step % versions.len();
        let Some((child, _)) = next_batch(&versions[c], rng.next_u64())
            .and_then(|batch| descend(&versions[c], &batch))
        else {
            continue;
        };
        let key = Key::with_x(
            MatrixHandle::from_matrix(child),
            versions[c].algo,
            Arc::clone(&versions[c].x),
        );
        id += 1;
        let ok = replay.request(&key, id, &mut fresh_tr);
        out.tally(ok);
        out.wrong += u64::from(!ok);
        versions[c] = key;
        for _ in 0..REPLAY_READS {
            let pick = (rng.next_u64() % (versions.len() + statics.len()) as u64) as usize;
            let key = versions
                .get(pick)
                .unwrap_or_else(|| &statics[pick - versions.len()])
                .clone();
            id += 1;
            let ok = replay.request(&key, id, &mut reads_tr);
            out.tally(ok);
            out.wrong += u64::from(!ok);
            read_keys.push(key);
        }
    }
    let refs: Vec<&Key> = read_keys.iter().collect();
    serve::replay_layers(out, &reads_tr, &refs, &replay);
    // Fresh descendants are where the ordering splices and the
    // permutations happen.
    let fresh = fresh_tr.self_times();
    let secs = |step: &str| -> Vec<f64> {
        fresh
            .get(step)
            .map(|d| d.iter().map(|t| t.as_secs_f64()).collect())
            .unwrap_or_default()
    };
    let get = secs("engine.get");
    out.set("engine.get_ms.fresh", median(&get) * 1e3, get.len());
    let permute = secs("sparsemat.permute");
    out.set(
        "sparsemat.permute.busy_s",
        permute.iter().sum(),
        permute.len(),
    );
    tr.absorb(fresh_tr);
    tr.absorb(reads_tr);
}
