//! Serving-side machinery shared by `serve_hot` and `delta_fresh`: keys
//! with their reference answers, the tier as configured, the open-loop
//! generator and the single-thread layer replay.

use crate::report::Outcome;
use crate::stats::{median, same_vector, summarize, window_rates, Rng, Rung, WINDOW};
use crate::trace::Tracer;
use engine::{AlgoSpec, Engine, EngineConfig, MatrixHandle};
use policy::PolicyEngine;
use reorder::ReorderResult;
use servetier::{ServeTier, SpmvRequest, TierConfig, TierTicket};
use sparsemat::CsrMatrix;
use spmv::{KernelKind, ThreadTeam};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::Registry;

/// The tenant every request names (the default tier's only tenant).
const TENANT: &str = "default";

/// A (matrix version, ordering) the benchmark requests, with a fixed
/// input vector and the reference answer `y = A x` in caller space.
#[derive(Clone)]
pub struct Key {
    pub handle: MatrixHandle,
    pub algo: AlgoSpec,
    pub x: Arc<Vec<f64>>,
    pub y: Arc<Vec<f64>>,
}

impl Key {
    pub fn new(matrix: CsrMatrix, algo: AlgoSpec, rng: &mut Rng) -> Key {
        let x = rng.vector(matrix.ncols());
        Key::with_x(MatrixHandle::from_matrix(matrix), algo, Arc::new(x))
    }

    pub fn with_x(handle: MatrixHandle, algo: AlgoSpec, x: Arc<Vec<f64>>) -> Key {
        let y = Arc::new(handle.matrix().spmv_dense(&x));
        Key { handle, algo, x, y }
    }

    pub fn request(&self, deadline: Option<Instant>) -> SpmvRequest {
        SpmvRequest {
            tenant: TENANT.into(),
            matrix: self.handle.clone(),
            algo: self.algo,
            kernel: KernelKind::OneD,
            x: Arc::clone(&self.x),
            priority: 0,
            deadline,
        }
    }
}

/// The tier under test: `TierConfig::default()`, reporting into a
/// registry of its own so repeated set-ups do not share counters.
pub fn tier() -> ServeTier {
    ServeTier::new(TierConfig {
        registry: Some(Registry::new_arc()),
        ..TierConfig::default()
    })
}

/// Serve `key` without a deadline and check the answer.
pub fn serve_checked(tier: &ServeTier, key: &Key) -> bool {
    tier.serve(key.request(None))
        .is_ok_and(|r| same_vector(&r.y, &key.y))
}

/// One answered (or refused) request.
pub struct Sample {
    /// Due time to the tier finishing the answer (the submission instant
    /// plus the tier's reported queue wait and service time); `+inf` when
    /// shed, expired, failed or wrong.
    pub latency_ms: f64,
    pub wrong: bool,
    pub queue_wait_ms: f64,
    pub service_ms: f64,
    /// How far after its due time the request was submitted.
    pub late_ms: f64,
    pub submit_us: f64,
    /// From the tier finishing the answer to the waiting thread holding
    /// it (0 when refused).
    pub deliver_us: f64,
}

impl Sample {
    pub fn ok(&self) -> bool {
        self.latency_ms.is_finite()
    }
}

/// Wait for a ticket submitted at `submitted` and turn its answer into a
/// [`Sample`]. The latency ends when the tier has the answer, not when
/// the waiting thread wakes to take it: that wake-up is reported apart
/// (`servetier.deliver_us`), so the scheduler's delay in waking the
/// benchmark's own collecting thread does not pass for tier latency.
pub fn settle(
    ticket: TierTicket,
    key: &Key,
    due: Instant,
    submitted: Instant,
    submit_us: f64,
) -> Sample {
    let result = ticket.wait();
    let delivered = Instant::now();
    let mut s = Sample {
        latency_ms: f64::INFINITY,
        wrong: false,
        queue_wait_ms: 0.0,
        service_ms: 0.0,
        late_ms: submitted.saturating_duration_since(due).as_secs_f64() * 1e3,
        submit_us,
        deliver_us: 0.0,
    };
    // Sheds, expiries and engine errors keep the infinite latency; the
    // tier's own counters say which it was.
    if let Ok(r) = result {
        s.queue_wait_ms = r.queue_wait.as_secs_f64() * 1e3;
        s.service_ms = r.service.as_secs_f64() * 1e3;
        let answered = submitted + r.queue_wait + r.service;
        s.deliver_us = delivered.saturating_duration_since(answered).as_secs_f64() * 1e6;
        if same_vector(&r.y, &key.y) {
            s.latency_ms = answered.saturating_duration_since(due).as_secs_f64() * 1e3;
        } else {
            s.wrong = true;
        }
    }
    s
}

/// Ask the kernel to end this thread's sleeps on time. The default timer
/// slack (50 us) would make every due time late by about that much, and
/// due times are what latencies count from. Affects the calling thread
/// only, so the tier's threads keep their defaults.
pub fn precise_sleeps() {
    #[cfg(target_os = "linux")]
    {
        const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
        extern "C" {
            fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
        }
        // SAFETY: PR_SET_TIMERSLACK reads one unsigned long argument and
        // changes only the calling thread's timer slack.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
        }
    }
}

/// The result of one open-loop phase at a fixed offered rate.
pub struct Phase {
    /// Requests in submission order.
    pub samples: Vec<Sample>,
    pub rate: f64,
    /// The generator fell so far behind that it stopped offering load
    /// before the phase's last due time.
    pub cut_short: bool,
}

impl Phase {
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok()).count() as u64
    }

    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_ms).collect()
    }

    /// The rung this phase makes on the knee ladder. Each field is the
    /// median over consecutive windows of [`WINDOW`] due times, so one
    /// stall of the host fails a window and not the rung, while a backlog
    /// that grows fails every window. A window delivers the answers
    /// completed inside its stretch of the schedule, over its length.
    pub fn rung(&self) -> Rung {
        let windows = (self.samples.len() / WINDOW).max(1);
        let size = self.samples.len() / windows;
        let length = size as f64 / self.rate;
        let mut answered = vec![0usize; windows];
        for (i, s) in self.samples.iter().enumerate().filter(|(_, s)| s.ok()) {
            let at = i as f64 / self.rate + s.latency_ms / 1e3;
            if let Some(w) = answered.get_mut((at / length) as usize) {
                *w += 1;
            }
        }
        let delivered: Vec<f64> = answered.iter().map(|&n| n as f64 / length).collect();
        let chunks = || self.samples.chunks(size.max(1)).take(windows);
        let failed: Vec<f64> = chunks()
            .map(|c| c.iter().filter(|s| !s.ok()).count() as f64)
            .collect();
        let tails: Vec<f64> = chunks()
            .map(|c| summarize(&c.iter().map(|s| s.latency_ms).collect::<Vec<_>>()).tail)
            .collect();
        Rung {
            offered: self.rate,
            delivered: median(&delivered),
            failed: median(&failed) as u64,
            tail_ms: median(&tails),
            cut_short: self.cut_short,
        }
    }

    /// Count every request of the phase into `out`.
    pub fn tally(&self, out: &mut Outcome) {
        for s in &self.samples {
            out.tally(s.ok());
            out.wrong += u64::from(s.wrong);
        }
    }
}

/// Requests an open-loop generator keeps outstanding at most: half the
/// admission queue's default capacity, so a backlog makes the generator
/// late (which due-time latencies count) rather than making the tier
/// shed.
const MAX_OUTSTANDING: usize = 128;

/// Offer `keys[seq[i]]` at `rate` requests per second, open loop: one
/// thread submits each request at its due time whatever the backlog (up
/// to [`MAX_OUTSTANDING`]), the calling thread waits for the answers in
/// order and checks them. Each request's deadline is its due time plus
/// `deadline`. With `give_up`, the generator stops offering load once it
/// is that late, and the phase is cut short.
pub fn open_loop(
    tier: &ServeTier,
    keys: &[Key],
    seq: &[usize],
    rate: f64,
    deadline: Duration,
    give_up: Option<Duration>,
    tr: &mut Tracer,
) -> Phase {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(1);
    let (tx, rx) =
        mpsc::sync_channel::<(usize, Instant, TierTicket, Instant, f64)>(MAX_OUTSTANDING);
    let mut samples = Vec::with_capacity(seq.len());
    let traced = tr.enabled();
    let (submitter_spans, cut_short) = std::thread::scope(|scope| {
        let submitter = scope.spawn(move || {
            precise_sleeps();
            let mut str_ = Tracer::new(traced);
            let mut cut_short = false;
            for (i, &k) in seq.iter().enumerate() {
                let due = start + interval.mul_f64(i as f64);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let t = Instant::now();
                if give_up.is_some_and(|g| t.saturating_duration_since(due) > g) {
                    cut_short = true;
                    break;
                }
                let span = str_.open("servetier.submit", i as u64, None);
                let ticket = tier.submit(keys[k].request(Some(due + deadline)));
                str_.close(span);
                let submit_us = t.elapsed().as_secs_f64() * 1e6;
                if tx.send((k, due, ticket, t, submit_us)).is_err() {
                    break;
                }
            }
            (str_, cut_short)
        });
        for (i, (k, due, ticket, submitted, submit_us)) in rx.iter().enumerate() {
            let s = settle(ticket, &keys[k], due, submitted, submit_us);
            tr.record("request", i as u64, due, Instant::now());
            samples.push(s);
        }
        submitter.join().expect("submitter thread")
    });
    tr.absorb(submitter_spans);
    Phase {
        samples,
        rate,
        cut_short,
    }
}

/// Keep `concurrency` requests in flight for `duration`, closed loop:
/// one thread submits `keys[seq[i]]` whenever fewer are outstanding, the
/// calling thread waits for the answers in order and checks them. No
/// deadline and a window below the admission queue's capacity, so nothing
/// is shed: the answers per second measure what the tier can deliver.
/// Returns the samples and the answer rates over consecutive windows of
/// [`WINDOW`] answers (one rate over the whole phase when it is shorter).
pub fn closed_loop(
    tier: &ServeTier,
    keys: &[Key],
    seq: &[usize],
    concurrency: usize,
    duration: Duration,
) -> (Vec<Sample>, Vec<f64>) {
    let (tx, rx) = mpsc::sync_channel::<(usize, Instant, TierTicket)>(concurrency);
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut answered_s = Vec::new();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for &k in seq {
                if started.elapsed() >= duration {
                    break;
                }
                let t = Instant::now();
                let ticket = tier.submit(keys[k].request(None));
                if tx.send((k, t, ticket)).is_err() {
                    break;
                }
            }
        });
        for (k, submitted, ticket) in rx.iter() {
            let s = settle(ticket, &keys[k], submitted, submitted, 0.0);
            if s.ok() {
                answered_s.push(started.elapsed().as_secs_f64());
            }
            samples.push(s);
        }
    });
    let mut rates = window_rates(&answered_s, WINDOW);
    if rates.is_empty() {
        rates = window_rates(&answered_s, answered_s.len().saturating_sub(1).max(1));
    }
    (samples, rates)
}

/// Report how late the generator submitted, and flag a run where its
/// p99 exceeds 1 ms (latencies count from due times, so they include
/// the lag either way).
pub fn lateness(out: &mut Outcome, samples: &[&Sample]) {
    let late: Vec<f64> = samples.iter().map(|s| s.late_ms).collect();
    let l = summarize(&late);
    let behind = l.tail > 1.0;
    if behind {
        println!(
            "warning: the load generator fell behind, {:.2} ms late at p99",
            l.tail
        );
    }
    out.set_noted(
        "loadgen.late_ms.p99",
        l.tail,
        l.n,
        if behind { "fell behind" } else { "kept up" }.into(),
    );
}

/// Report the tier-side figures of the answered requests.
pub fn tier_layers(out: &mut Outcome, phase_samples: &[&Sample]) {
    let served: Vec<&&Sample> = phase_samples.iter().filter(|s| s.ok()).collect();
    let queue: Vec<f64> = served.iter().map(|s| s.queue_wait_ms).collect();
    let service: Vec<f64> = served.iter().map(|s| s.service_ms).collect();
    let submit: Vec<f64> = phase_samples.iter().map(|s| s.submit_us).collect();
    let q = summarize(&queue);
    let v = summarize(&service);
    out.set("servetier.queue_wait_ms.p50", q.p50, q.n);
    out.set_noted(
        "servetier.queue_wait_ms.p99",
        q.tail,
        q.n,
        format!("p{:.1}", 100.0 * q.tail_q),
    );
    out.set("servetier.service_ms.p50", v.p50, v.n);
    out.set_noted(
        "servetier.service_ms.p99",
        v.tail,
        v.n,
        format!("p{:.1}", 100.0 * v.tail_q),
    );
    out.set("servetier.submit_us", median(&submit), submit.len());
    let deliver: Vec<f64> = served.iter().map(|s| s.deliver_us).collect();
    out.set_noted(
        "servetier.deliver_us",
        median(&deliver),
        deliver.len(),
        "median, answer ready to the waiting thread holding it".into(),
    );
}

/// Tier and engine statistics, summed over shards.
pub fn stats_layers(out: &mut Outcome, tier: &ServeTier, descendants: u64) {
    let stats = tier.stats();
    let sum = |f: &dyn Fn(&servetier::ShardStats) -> f64| stats.shards.iter().map(f).sum::<f64>();
    let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    let hits = sum(&|s| s.engine.cache.hits as f64);
    let misses = sum(&|s| s.engine.cache.misses as f64);
    out.set(
        "engine.hit_ratio",
        ratio(hits, misses),
        (hits + misses) as usize,
    );
    let ph = sum(&|s| s.engine.plans.hits as f64);
    let pm = sum(&|s| s.engine.plans.misses as f64);
    out.set("engine.plans.hit_ratio", ratio(ph, pm), (ph + pm) as usize);
    out.set("engine.compute_s", sum(&|s| s.engine.compute_seconds), 1);
    out.set(
        "engine.jobs_executed",
        sum(&|s| s.engine.jobs_executed as f64),
        1,
    );
    let splices = sum(&|s| s.engine.delta_splices as f64);
    out.set(
        "engine.delta.splice_ratio",
        if descendants > 0 {
            splices / descendants as f64
        } else {
            0.0
        },
        descendants as usize,
    );
    let pre_h = sum(&|s| s.prepared_hits as f64);
    let pre_m = sum(&|s| s.prepared_misses as f64);
    out.set(
        "servetier.prepared.hit_ratio",
        ratio(pre_h, pre_m),
        (pre_h + pre_m) as usize,
    );
    out.set(
        "servetier.shed.queue_full",
        sum(&|s| s.shed_queue_full as f64),
        1,
    );
    out.set("servetier.shed.expired", sum(&|s| s.shed_expired as f64), 1);
    // Ordering time per algorithm, from the engines' own histograms.
    for (metric, hist) in [
        ("reorder.rcm.busy_s", "reorder.rcm"),
        ("reorder.amd.busy_s", "reorder.amd"),
        ("reorder.gray.busy_s", "reorder.gray"),
    ] {
        let h = tier.registry().find_histogram(hist);
        out.set_noted(
            metric,
            h.as_ref().map_or(0.0, |h| h.sum_seconds()),
            h.map_or(0, |h| h.count() as usize),
            "engine compute, set-up included".into(),
        );
    }
}

/// A prepared-cache key: (content hash, ordering).
type PreparedKey = (u128, AlgoSpec);
/// A reordered matrix and the ordering that made it.
type Prepared = (MatrixHandle, ReorderResult);

/// The chain `servetier` walks for one request, replayed on one thread
/// against an engine and a prepared cache of the tier's default sizes,
/// with a span around every layer call.
pub struct Replay {
    engine: Engine,
    policy: PolicyEngine,
    team: ThreadTeam,
    /// Reordered matrices, least recently used first.
    prepared: Vec<(PreparedKey, Arc<Prepared>)>,
    capacity: usize,
    /// Computed bytes moved by the permutations of prepared misses.
    permute_bytes: f64,
}

/// Steps of the replayed chain, in order.
const REPLAY_STEPS: [&str; 7] = [
    "policy.decide",
    "engine.get",
    "sparsemat.permute",
    "spmv.plan",
    "answer.permute_input",
    "spmv.1d",
    "answer.unpermute",
];

impl Replay {
    pub fn new() -> Replay {
        let defaults = TierConfig::default();
        let registry = Registry::new_arc();
        Replay {
            engine: Engine::new(EngineConfig {
                registry: Some(Arc::clone(&registry)),
                ..EngineConfig::default()
            }),
            policy: PolicyEngine::new(policy::PolicyConfig {
                registry: Some(registry),
                ..defaults.policy
            }),
            team: ThreadTeam::new(defaults.spmv_threads),
            prepared: Vec::new(),
            capacity: defaults.prepared_capacity,
            permute_bytes: 0.0,
        }
    }

    /// Walk the chain for `key`, recording spans under one root; returns
    /// whether the answer matched.
    pub fn request(&mut self, key: &Key, id: u64, tr: &mut Tracer) -> bool {
        let m = &key.handle;
        let hash = m.content_hash();
        let root = tr.open("replay.request", id, None);
        let span = tr.open(REPLAY_STEPS[0], id, root);
        let cached = self.engine.peek_cached(m, key.algo).is_some();
        let algo = self.policy.decide(m.matrix(), hash, key.algo, cached).algo;
        tr.close(span);
        let span = tr.open(REPLAY_STEPS[1], id, root);
        let ordering = self.engine.get(m, algo);
        tr.close(span);
        let Ok(ordering) = ordering else {
            tr.close(root);
            return false;
        };
        let prepared = match self.prepared.iter().position(|(k, _)| *k == (hash, algo)) {
            Some(i) => {
                let entry = self.prepared.remove(i);
                let p = Arc::clone(&entry.1);
                self.prepared.push(entry);
                p
            }
            None => {
                self.permute_bytes += crate::layers::permute_bytes(m.matrix());
                let span = tr.open(REPLAY_STEPS[2], id, root);
                let b = ordering.apply_on(m.matrix(), team::Exec::Team(self.engine.reorder_team()));
                tr.close(span);
                let Ok(b) = b else {
                    tr.close(root);
                    return false;
                };
                let p = Arc::new((MatrixHandle::from_matrix(b), ordering.to_reorder_result()));
                if self.prepared.len() == self.capacity {
                    self.prepared.remove(0);
                }
                self.prepared.push(((hash, algo), Arc::clone(&p)));
                p
            }
        };
        let (handle, result) = &*prepared;
        let span = tr.open(REPLAY_STEPS[3], id, root);
        let kernel = self.engine.plan(handle, KernelKind::OneD, self.team.size());
        tr.close(span);
        let span = tr.open(REPLAY_STEPS[4], id, root);
        let xp = result.permute_input(&key.x);
        let mut yp = vec![0.0; handle.matrix().nrows()];
        tr.close(span);
        let span = tr.open(REPLAY_STEPS[5], id, root);
        kernel.execute(&self.team, &xp, &mut yp);
        tr.close(span);
        let span = tr.open(REPLAY_STEPS[6], id, root);
        let y = result.unpermute_output(&yp);
        tr.close(span);
        tr.close(root);
        same_vector(&y, &key.y)
    }
}

/// Per-layer figures from a replay trace: median self time per step
/// (0 for requests that skipped it), and the tier's service time the
/// steps do not account for.
pub fn replay_layers(out: &mut Outcome, replay_tr: &Tracer, keys: &[&Key], replay: &Replay) {
    let requests = keys.len();
    let times = replay_tr.self_times();
    let per_request = |step: &str| -> Vec<f64> {
        let mut v: Vec<f64> = times
            .get(step)
            .map(|d| d.iter().map(|t| t.as_secs_f64() * 1e6).collect())
            .unwrap_or_default();
        v.resize(requests.max(v.len()), 0.0);
        v
    };
    let total = |step: &str| per_request(step).iter().sum::<f64>() / 1e6;
    out.set(
        "policy.decide_us",
        median(&per_request("policy.decide")),
        requests,
    );
    out.set(
        "engine.get_us.hit",
        median(&per_request("engine.get")),
        requests,
    );
    out.set(
        "sparsemat.permute.busy_s",
        total("sparsemat.permute"),
        requests,
    );
    out.set("spmv.plan.busy_s", total("spmv.plan"), requests);
    out.set("spmv.1d.busy_s", total("spmv.1d"), requests);
    let flops: f64 = keys
        .iter()
        .map(|k| 2.0 * k.handle.matrix().nnz() as f64)
        .sum();
    out.set("spmv.1d.gflops", flops / total("spmv.1d") / 1e9, requests);
    let bytes: f64 = keys
        .iter()
        .map(|k| crate::layers::spmv_bytes(k.handle.matrix()))
        .sum();
    out.set(
        "spmv.bytes_per_call",
        bytes / requests.max(1) as f64,
        requests,
    );
    out.set("sparsemat.permute.bytes", replay.permute_bytes, requests);
    let steps_us: f64 = REPLAY_STEPS.iter().map(|s| median(&per_request(s))).sum();
    let service_us = out.get("servetier.service_ms.p50").unwrap_or(0.0) * 1e3;
    let cells: Vec<String> = REPLAY_STEPS
        .iter()
        .map(|s| format!("{s} {:.2}", median(&per_request(s))))
        .collect();
    println!(
        "replay of {requests} requests, median self time us: {} | sum {steps_us:.2} vs service p50 {service_us:.2}",
        cells.join(", ")
    );
    out.set_noted(
        "servetier.overhead_us",
        service_us - steps_us,
        requests,
        "service p50 minus the replayed steps' median self times".into(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(rate: f64, latency_ms: impl Fn(usize) -> f64) -> Phase {
        let samples = (0..5000)
            .map(|i| Sample {
                latency_ms: latency_ms(i),
                wrong: false,
                queue_wait_ms: 0.0,
                service_ms: 0.0,
                late_ms: 0.0,
                submit_us: 0.0,
                deliver_us: 0.0,
            })
            .collect();
        Phase {
            samples,
            rate,
            cut_short: false,
        }
    }

    #[test]
    fn a_phase_that_keeps_up_delivers_its_rate() {
        let r = phase(1000.0, |_| 0.5).rung();
        assert!(r.passes(20.0), "{r:?}");
        assert!((r.delivered - 1000.0).abs() < 5.0);
    }

    #[test]
    fn one_stalled_window_does_not_fail_the_rung() {
        // Window 2 of 5 stalls: every request in it fails.
        let r = phase(1000.0, |i| {
            if (2000..3000).contains(&i) {
                f64::INFINITY
            } else {
                0.5
            }
        })
        .rung();
        assert_eq!(r.failed, 0);
        assert!(r.passes(20.0), "{r:?}");
    }

    #[test]
    fn a_growing_backlog_fails_the_rung() {
        // Answers fall behind by 5% of elapsed time: 5% overload.
        let r = phase(1000.0, |i| 0.05 * i as f64).rung();
        assert!(r.delivered < 0.99 * 1000.0, "{r:?}");
        assert!(!r.passes(20.0));
    }
}
