//! `serve_hot`: open-loop Zipf traffic against a warm tier. The keys are
//! the small corpus × {Original, RCM, AMD, Gray}; every key is served
//! once during set-up, so orderings and plans come from cache and the
//! time goes to admission, dispatch, permute-in/unpermute-out and small
//! SpMVs. A fixed-rate phase gives the latency figures and a closed-loop
//! phase the capacity, the two alternating in rounds; an ascending rate
//! ladder then gives the knee.

use crate::layers;
use crate::report::Outcome;
use crate::serve::{self, open_loop, Key, Phase, Replay};
use crate::stats::{knee, median, quiet_high, summarize_windows, Rng, Zipf};
use crate::trace::Tracer;
use crate::Run;
use engine::AlgoSpec;
use std::time::{Duration, Instant};

/// The fixed offered rate, requests per second.
const FIXED_RATE: f64 = 4000.0;
/// The knee ladder's offered rates, ascending.
const LADDER: [f64; 9] = [
    6000.0, 6500.0, 7000.0, 7500.0, 8000.0, 8500.0, 9000.0, 9500.0, 10000.0,
];
/// The knee's latency limit on the tail, milliseconds.
const LIMIT_MS: f64 = 20.0;
/// Every request's deadline, after its due time: far above any latency
/// the tier gives at these rates, so that only a host stall of a second
/// expires a request (stalls of 100 ms do occur on a shared 2-vCPU VM).
const DEADLINE: Duration = Duration::from_millis(1000);
/// A ladder rung stops offering load once its generator is this late:
/// past the knee the backlog grows until requests would expire, and the
/// rung has failed by then anyway (its tail is over [`LIMIT_MS`]).
const GIVE_UP: Duration = Duration::from_millis(250);
/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 1.1;
/// Shares of the run spent at the fixed rate and at saturation; the
/// ladder gets the rest.
const FIXED_SHARE: f64 = 0.6;
const SATURATION_SHARE: f64 = 0.15;
/// The fixed-rate and saturation shares alternate in this many rounds,
/// so that a few seconds of host noise cannot cover all of either.
const ROUNDS: usize = 6;
/// Requests kept in flight at saturation (below the admission queue's
/// default capacity of 256, so nothing is shed).
const SATURATION_WINDOW: usize = 32;
/// Requests the single-thread replay walks.
const REPLAY_REQUESTS: usize = 3000;

const ALGOS: [AlgoSpec; 4] = [
    AlgoSpec::Original,
    AlgoSpec::Rcm,
    AlgoSpec::Amd,
    AlgoSpec::Gray,
];

/// Keys in popularity order (rank `r` is `keys[r]`): the small corpus
/// as defined, with a seeded input vector per matrix.
fn keys(seed: u64) -> Vec<Key> {
    let mut rng = Rng::new(seed);
    let mut keys = Vec::new();
    for spec in corpus::standard_corpus(corpus::CorpusSize::Small) {
        let base = Key::new(spec.build(), ALGOS[0], &mut rng);
        keys.extend(ALGOS.iter().map(|&algo| Key {
            algo,
            ..base.clone()
        }));
    }
    keys
}

fn sequence(n: usize, keys: usize, rng: &mut Rng) -> Vec<usize> {
    let zipf = Zipf::new(keys, ZIPF_S);
    (0..n).map(|_| zipf.sample(rng)).collect()
}

pub fn run(cfg: &Run) -> Outcome {
    let mut out = Outcome::default();
    let mut state = None;
    let mut warm_ok = true;
    let setup_s = layers::repeat_setup(|| {
        drop(state.take());
        let keys = keys(cfg.seed);
        let tier = serve::tier();
        // Least popular first, so the Zipf head ends most recently used.
        for key in keys.iter().rev() {
            warm_ok &= serve::serve_checked(&tier, key);
        }
        state = Some((keys, tier));
    });
    let (keys, tier) = state.expect("set-up ran");
    out.tally(warm_ok);
    out.wrong += u64::from(!warm_ok);
    out.set_noted(
        "setup_s",
        median(&setup_s),
        setup_s.len(),
        format!(
            "median of {} corpus generations + tier warm-ups",
            setup_s.len()
        ),
    );

    let mut tr = Tracer::new(cfg.traced);
    let mut rng = Rng::new(cfg.seed ^ 0x5E_4E_40);
    let started = Instant::now();
    let fixed_n = (FIXED_RATE * FIXED_SHARE * cfg.seconds) as usize;
    let fixed_seq = sequence(fixed_n, keys.len(), &mut rng);
    let mut fixed = Phase {
        samples: Vec::with_capacity(fixed_n),
        rate: FIXED_RATE,
        cut_short: false,
    };
    let saturation_s = cfg.seconds * SATURATION_SHARE / ROUNDS as f64;
    let mut saturation = Vec::new();
    let mut capacity_rates = Vec::new();
    for chunk in fixed_seq.chunks(fixed_n.div_ceil(ROUNDS).max(1)) {
        let phase = open_loop(&tier, &keys, chunk, FIXED_RATE, DEADLINE, None, &mut tr);
        fixed.samples.extend(phase.samples);
        let seq = sequence((20_000.0 * saturation_s) as usize, keys.len(), &mut rng);
        let (samples, rates) = serve::closed_loop(
            &tier,
            &keys,
            &seq,
            SATURATION_WINDOW,
            Duration::from_secs_f64(saturation_s),
        );
        saturation.extend(samples);
        capacity_rates.extend(rates);
    }
    fixed.tally(&mut out);
    for s in &saturation {
        out.tally(s.ok());
        out.wrong += u64::from(s.wrong);
    }
    let capacity = quiet_high(&capacity_rates);

    let rung_s = cfg.seconds * (1.0 - FIXED_SHARE - SATURATION_SHARE) / LADDER.len() as f64;
    let mut rungs = Vec::new();
    for &rate in &LADDER {
        let seq = sequence((rate * rung_s) as usize, keys.len(), &mut rng);
        let phase = open_loop(
            &tier,
            &keys,
            &seq,
            rate,
            DEADLINE,
            Some(GIVE_UP),
            &mut Tracer::new(false),
        );
        let rung = phase.rung();
        println!(
            "ladder {rate} req/s over {} requests{}: median window delivered {:.1}/s, failed {}, p99 {:.3} ms; {} failed in all",
            phase.samples.len(),
            if phase.cut_short { " (cut short)" } else { "" },
            rung.delivered,
            rung.failed,
            rung.tail_ms,
            phase.failed()
        );
        rungs.push(rung);
        phase.tally(&mut out);
        if !rung.passes(LIMIT_MS) {
            break;
        }
    }
    let measured_s = started.elapsed().as_secs_f64();

    let (lat, windows) = summarize_windows(&fixed.latencies());
    let note = format!("at {FIXED_RATE} req/s offered, from due time");
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
    let knee_rps = knee(&rungs, LIMIT_MS).unwrap_or(0.0);
    let knee_note = format!(
        "highest ladder rate with no failures, delivered >= 0.99 offered, tail <= {LIMIT_MS} ms"
    );
    out.set_noted("knee_rps", knee_rps, rungs.len(), knee_note);
    out.set_noted(
        "throughput_per_s",
        capacity,
        saturation.len(),
        format!(
            "correct answers per second with {SATURATION_WINDOW} requests in flight, quiet quartile of {} windows",
            capacity_rates.len()
        ),
    );

    let samples: Vec<&serve::Sample> = fixed.samples.iter().collect();
    serve::lateness(&mut out, &samples);
    if cfg.traced {
        serve::tier_layers(&mut out, &samples);
        serve::stats_layers(&mut out, &tier, 0);
        drop(tier);
        let mut replay = Replay::new();
        let mut warm = Tracer::new(false);
        for (i, key) in keys.iter().enumerate().rev() {
            replay.request(key, i as u64, &mut warm);
        }
        let mut replay_tr = Tracer::new(true);
        let prefix = &fixed_seq[..fixed_seq.len().min(REPLAY_REQUESTS)];
        for (i, &k) in prefix.iter().enumerate() {
            let ok = replay.request(&keys[k], i as u64, &mut replay_tr);
            out.tally(ok);
            out.wrong += u64::from(!ok);
        }
        let requests: Vec<&Key> = prefix.iter().map(|&k| &keys[k]).collect();
        serve::replay_layers(&mut out, &replay_tr, &requests, &replay);
        tr.absorb(replay_tr);
        layers::common(
            &mut out,
            &tr,
            measured_s,
            Some(Duration::from_secs_f64(1.0 / FIXED_RATE)),
        );
    }
    out
}
