//! The repository's benchmark: one command that runs a workload against
//! the library and the serving tier from outside, checks every output,
//! and prints the end-to-end metrics (or, traced, the per-layer ones).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload order_cold|serve_hot|delta_fresh --seed N --seconds S --trace 0|1
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and which
//! layer is expected to move which end-to-end number.

mod delta_fresh;
mod host;
mod layers;
mod order_cold;
mod report;
mod serve;
mod serve_hot;
mod stats;
mod trace;

/// One run's settings.
pub struct Run {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub traced: bool,
}

const USAGE: &str =
    "usage: perfbench --workload order_cold|serve_hot|delta_fresh --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<(String, Run), String> {
    let mut workload = None;
    let mut run = Run {
        seed: 1,
        seconds: 10.0,
        traced: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => run.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                run.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(run.seconds > 0.0 && run.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok((workload.ok_or("--workload is required")?, run))
}

fn main() {
    let (workload, run) = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    type Workload = fn(&Run) -> report::Outcome;
    let workloads: [(&str, Workload); 3] = [
        ("order_cold", order_cold::run),
        ("serve_hot", serve_hot::run),
        ("delta_fresh", delta_fresh::run),
    ];
    let Some(&(_, body)) = workloads.iter().find(|(name, _)| *name == workload) else {
        eprintln!("perfbench: unknown workload {workload}\n{USAGE}");
        std::process::exit(2);
    };
    println!("{}", host::Fingerprint::probe());
    println!(
        "workload {workload}: seed {} seconds {} trace {}",
        run.seed, run.seconds, run.traced as u8
    );
    let cpu = host::CpuTimes::read();
    let outcome = body(&run);
    if let (Some(before), Some(after)) = (cpu, host::CpuTimes::read()) {
        println!(
            "host: the hypervisor took {:.1}% of CPU time during the run",
            100.0 * before.steal_since(after)
        );
    }
    outcome.print(run.traced);
}
