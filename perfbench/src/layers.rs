//! Per-layer measurements every workload shares: repeated set-up, the
//! team dispatch probe, computed byte counts, the archsim machine entry
//! and the tracing overhead.

use crate::report::Outcome;
use crate::trace::{span_cost, Tracer};
use sparsemat::CsrMatrix;
use spmv::{KernelKind, ThreadTeam};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Run `setup` [`SETUPS`] times and return each duration in seconds.
pub fn repeat_setup(mut setup: impl FnMut()) -> Vec<f64> {
    (0..SETUPS)
        .map(|_| {
            let t = Instant::now();
            setup();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

pub fn kernel_span(kind: KernelKind) -> &'static str {
    match kind {
        KernelKind::OneD => "spmv.1d",
        KernelKind::TwoD => "spmv.2d",
        KernelKind::Merge => "spmv.merge",
    }
}

pub fn gflops_metric(kind: KernelKind) -> &'static str {
    match kind {
        KernelKind::OneD => "spmv.1d.gflops",
        KernelKind::TwoD => "spmv.2d.gflops",
        KernelKind::Merge => "spmv.merge.gflops",
    }
}

/// Bytes a permutation reads and writes (computed, not measured): the
/// CSR arrays of the source and of the copy.
pub fn permute_bytes(a: &CsrMatrix) -> f64 {
    2.0 * (a.nnz() as f64 * 12.0 + (a.nrows() + 1) as f64 * 8.0)
}

/// Bytes one SpMV streams at minimum (computed): values and column
/// indices, row pointers, `x` once and `y` once.
pub fn spmv_bytes(a: &CsrMatrix) -> f64 {
    a.nnz() as f64 * 12.0 + (a.nrows() + 1) as f64 * 8.0 + (a.ncols() + a.nrows()) as f64 * 8.0
}

/// The archsim machine entry nearest this host in L2 size per core,
/// simulated at `threads` threads of one socket.
pub fn closest_machine(threads: usize) -> archsim::Machine {
    let host_l2_kib = crate::host::cache_kib(2).unwrap_or(1024) as f64;
    let mut m = archsim::machines()
        .into_iter()
        .min_by(|a, b| {
            let d = |m: &archsim::Machine| (m.l2_kib as f64 / host_l2_kib).ln().abs();
            d(a).total_cmp(&d(b))
        })
        .expect("archsim has machine entries");
    m.sockets = 1;
    m.threads = threads;
    m
}

/// Time `ThreadTeam::run` with an empty body: spaced `interval` apart
/// like light-load arrivals (lanes have parked), and back to back.
fn team_dispatch(out: &mut Outcome, interval: Duration) {
    const CALLS: usize = 400;
    let team = ThreadTeam::new(2);
    let body = |_: usize| {};
    let mut idle = Vec::with_capacity(CALLS);
    for _ in 0..CALLS {
        std::thread::sleep(interval);
        let t = Instant::now();
        team.run(&body);
        idle.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut busy = Vec::with_capacity(CALLS);
    for _ in 0..CALLS {
        let t = Instant::now();
        team.run(&body);
        busy.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.set_noted(
        "team.dispatch_us.idle",
        crate::stats::median(&idle),
        CALLS,
        format!("median, calls {} us apart", interval.as_micros()),
    );
    out.set_noted(
        "team.dispatch_us.busy",
        crate::stats::median(&busy),
        CALLS,
        "median, back to back".into(),
    );
}

/// Figures every traced run reports: the team dispatch probe (spaced
/// like the workload's arrivals, or 250 us without arrivals), the host
/// calibration and the share of the measured time spent tracing.
pub fn common(out: &mut Outcome, tr: &Tracer, measured_s: f64, arrival: Option<Duration>) {
    team_dispatch(out, arrival.unwrap_or(Duration::from_micros(250)));
    out.set("host.calibration_ms", crate::host::calibrate(), 1);
    let overhead = tr.len() as f64 * span_cost().as_secs_f64() / measured_s;
    out.set_noted(
        "trace.overhead_frac",
        overhead,
        tr.len(),
        format!(
            "{} spans over {} requests x measured cost per span / measured time",
            tr.len(),
            tr.requests()
        ),
    );
}
