//! The repository benchmark: three closed-loop workloads against the public
//! API of `pram-sssp`, every answer checked against exact Dijkstra.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <build-gnm|rows-road|p2p-road|all> --seed <n> \
//!     --seconds <n> --trace <0|1>
//! ```
//!
//! Each workload prints a record line (instance, pool size, commit), one
//! line per metric with its unit and sample count, and, as the last line
//! of standard output, one JSON object `{correct, attempted, failed,
//! metrics}`. `--trace 0` reports the end-to-end metrics, measured with
//! no hook installed; `--trace 1` repeats that run, then installs a
//! `pram::phase` hook and reports the per-layer metrics (construction
//! phases, query-engine ledgers, cache and landmark tiers, exact
//! baselines, the `nproc`-thread executor) and the tracing overhead.
//! Timed work runs on a one-thread executor, set explicitly; no ambient
//! thread setting is read. The metric names and units are the
//! ones `BENCHMARK.json` lists. `--workload all` runs the three in one
//! process and prefixes each metric with its workload.
//!
//! `cargo test --manifest-path perfbench/Cargo.toml` is the benchmark's
//! self-test: every workload at a tiny size reports every declared metric,
//! checks clean, and repeats its counts and answer fingerprint exactly.
//!
//! Why these workloads:
//! * `build-gnm` — the construction instance (gnm, m = 2n, hop cap 32):
//!   set-up is dominated by the ruling-set recursion, and its shallow rows
//!   (β = 32) should not move when only the query engine changes;
//! * `rows-road` — a 96×96 road grid without a hop cap (β in the
//!   thousands): every row is hundreds of thin-frontier Bellman–Ford
//!   rounds, the query-side cost the exploration engine pays;
//! * `p2p-road` — the same oracle behind the LRU cache and the landmark
//!   plane: hits, certified answers and early-exit fallbacks, the serving
//!   tiers; `rows-road` is its no-cache counterpart.

mod alloc;
mod closed_loop;
mod report;
mod trace;
mod workload;

use pram_sssp::pram::Executor;
use report::{Report, Value};
use workload::{Spec, WORKLOADS};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad("a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let known = args.workload == "all" || WORKLOADS.contains(&args.workload.as_str());
    if !known {
        return Err(format!(
            "--workload must be one of {} or all, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn number(v: Value) -> String {
    match v {
        Value::Count(c) => c.to_string(),
        Value::Real(x) => {
            assert!(x.is_finite(), "metrics are finite");
            format!("{x}")
        }
    }
}

fn print_report(r: &Report) {
    println!("# {}", r.record);
    for m in &r.metrics {
        println!(
            "{:<10} {:<32} {:>20} {:<6} (n = {})",
            r.workload,
            m.name,
            number(m.value),
            m.unit,
            m.samples
        );
    }
    let frac = r.failed as f64 / r.attempted.max(1) as f64;
    println!(
        "{:<10} fail_frac = {frac} ({} of {} answers failed)",
        r.workload, r.failed, r.attempted
    );
    for note in &r.notes {
        println!("{:<10} note: {note}", r.workload);
    }
}

/// The result line. With one workload the metrics keep their names; with
/// `all` they are prefixed by the workload.
fn result_json(reports: &[Report]) -> String {
    let prefix = reports.len() > 1;
    let metrics: Vec<String> = reports
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(move |m| {
                let name = if prefix {
                    format!("{}.{}", r.workload, m.name)
                } else {
                    m.name.to_string()
                };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    number(m.value),
                    m.unit
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        reports.iter().all(|r| r.failed == 0),
        reports.iter().map(|r| r.attempted).sum::<u64>(),
        reports.iter().map(|r| r.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    // The timed work runs on a one-thread pool. On a shared host with
    // few cores, rounds that wait on every core measure when the host
    // schedules those cores: at two threads on two cores, one workload's
    // throughput spread 3x across seeds, at one thread within 20%. The
    // traced run measures the `nproc`-thread pool as a layer of its own.
    let exec = Executor::new(1);
    let reports: Vec<Report> = names
        .iter()
        .map(|name| {
            let spec = Spec::full(name).expect("workload names are validated");
            let r = report::run(&spec, args.seed, args.seconds, args.trace, &exec);
            print_report(&r);
            r
        })
        .collect();
    println!("{}", result_json(&reports));
}
