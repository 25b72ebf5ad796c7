//! The metrics: their declared names and units, and one workload run
//! turned into a report.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` makes the same
//! run, then installs the phase hook and reports the per-layer metrics:
//! construction spans and counts from one more set-up, query-engine
//! ledgers, cache and landmark tiers, the exact baselines on the same
//! sources and pairs, and the `nproc`-thread pool against the one-thread
//! pool the timed work runs on. Layers the workload's own loop does not exercise are
//! measured by one-pass probes on the same oracle, so every workload
//! reports every metric.

use crate::closed_loop::{closed_loop, LoopOut, OpRecord, Tier};
use crate::trace::{self, SpanStats};
use crate::workload::{self, Op, Spec, Stack, BATCH};
use pram_sssp::hopset::ruling::LevelStat;
use pram_sssp::pgraph::VId;
use pram_sssp::pram::Executor;
use pram_sssp::sssp::delta_stepping::{default_delta, delta_stepping_on};
use pram_sssp::sssp::{DistanceOracle, LandmarkPlane, Oracle};
use std::sync::Arc;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("par.threads", "count"),
    ("par.build_s", "s"),
    ("par.row_us", "us"),
    ("par.row_speedup", "ratio"),
    ("gen_s", "s"),
    ("phase.detect_s", "s"),
    ("phase.detect.count", "count"),
    ("phase.supercluster_s", "s"),
    ("phase.supercluster.count", "count"),
    ("phase.interconnect_s", "s"),
    ("phase.interconnect.count", "count"),
    ("phase.overlay-csr_s", "s"),
    ("phase.overlay-csr.count", "count"),
    ("phase.oracle-assembly_s", "s"),
    ("phase.oracle-assembly.count", "count"),
    ("phase.unscoped_s", "s"),
    ("phase.supercluster_share", "ratio"),
    ("build.work", "count"),
    ("build.depth", "count"),
    ("hopset.edges", "count"),
    ("hopset.scales", "count"),
    ("query_hops", "count"),
    ("ruling.levels", "count"),
    ("ruling.sources", "count"),
    ("ruling.candidates", "count"),
    ("ruling.knocked_out", "count"),
    ("ruling.knockout_rate", "ratio"),
    ("row.work", "count"),
    ("row.depth", "count"),
    ("batch.work", "count"),
    ("batch_row_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("landmark.answers", "count"),
    ("landmark.fallbacks", "count"),
    ("landmark.answer_rate", "ratio"),
    ("gate.rejections", "count"),
    ("tier.hit_p50_us", "us"),
    ("tier.landmark_p50_us", "us"),
    ("tier.fallback_p50_us", "us"),
    ("tier.fallback_tail_us", "us"),
    ("landmark.certify_us", "us"),
    ("landmark.build_s", "s"),
    ("landmark.build_work", "count"),
    ("baseline.dijkstra_row_us", "us"),
    ("baseline.delta_stepping_row_us", "us"),
    ("baseline.dijkstra_to_us", "us"),
    ("ratio.row_vs_dijkstra", "ratio"),
    ("ratio.fallback_vs_dijkstra_to", "ratio"),
    ("trace.overhead_s", "s"),
    ("check.fail_frac", "ratio"),
    ("check.max_stretch", "ratio"),
    ("answers.fnv64", "hash"),
];

/// Δ-stepping rows timed per traced run.
const DELTA_ROWS: usize = 8;
/// Rows timed on both executors per traced run.
const PAR_ROWS: usize = 16;

/// One measured value with its sample count.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Value,
    pub samples: usize,
}

/// Counts print as integers, so exact repeats stay exact in JSON.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    Count(u64),
    Real(f64),
}

/// Everything one workload run reports.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    /// The run's record line: instance, pool and commit.
    pub record: String,
    /// Notes printed with the metrics.
    pub notes: Vec<String>,
    pub attempted: u64,
    /// Answers that were errors, refusals or outside their stretch bound.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn put(&mut self, name: &str, value: Value, samples: usize) {
        let &(name, unit) = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .expect("every reported metric is declared");
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    fn real(&mut self, name: &str, value: f64, samples: usize) {
        self.put(name, Value::Real(value), samples);
    }

    fn count(&mut self, name: &str, value: u64) {
        self.put(name, Value::Count(value), 1);
    }

    /// Fold a probe's answers into the run's check.
    fn absorb(&mut self, probe: &LoopOut) {
        self.attempted += probe.attempted;
        self.failed += probe.failed;
    }
}

/// What the untraced part of a run measured.
struct Untraced {
    stack: Stack,
    setup_s: Vec<f64>,
    out: LoopOut,
}

/// `spec.setups` set-ups, each followed by its share of the closed loop's
/// `seconds`. Spreading the timed passes over the whole run, rather than
/// timing them in one stretch after the set-ups, averages over more of the
/// host's slow and fast spells: on the shared 2-CPU host this was tuned on,
/// passes of one workload took from 0.8x to 1.2x their mean time, in spells
/// of tens of seconds.
fn untraced(spec: &Spec, seed: u64, seconds: f64, exec: &Executor) -> Untraced {
    crate::alloc::reset_peak();
    let setups = spec.setups.max(1);
    let mut setup_s = Vec::with_capacity(setups);
    let mut out = LoopOut::new();
    let mut stack = None;
    for _ in 0..setups {
        // The previous set-up is freed first, so the heap peak is one
        // set-up's.
        drop(stack.take());
        let (s, times, _) = workload::setup(spec, seed, exec, false);
        setup_s.push(times.total());
        let oracle = &s.oracle;
        let n = oracle.graph().num_vertices();
        let served = s.plane.as_ref().map(|p| workload::serve(oracle, p));
        let mix = |pass| workload::mix(spec, n, seed, pass);
        closed_loop(
            &mut out,
            oracle,
            served.as_ref(),
            mix,
            seconds / setups as f64,
        );
        drop(served);
        stack = Some(s);
    }
    Untraced {
        stack: stack.expect("at least one set-up"),
        setup_s,
        out,
    }
}

/// Run one workload; with `traced`, report the per-layer metrics instead
/// of the end-to-end ones.
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool, exec: &Executor) -> Report {
    let u = untraced(spec, seed, seconds, exec);
    let (oracle, out) = (&u.stack.oracle, &u.out);
    let g = oracle.graph();
    let mut report = Report {
        workload: spec.name,
        record: format!(
            "workload={} seed={} nproc={} threads={} n={} m={} H={} beta={} commit={}",
            spec.name,
            seed,
            nproc(),
            exec.threads(),
            g.num_vertices(),
            g.num_edges(),
            oracle.hopset_size(),
            oracle.query_hops(),
            commit()
        ),
        notes: Vec::new(),
        attempted: out.attempted,
        failed: out.failed,
        metrics: Vec::new(),
    };
    if traced {
        layers(&mut report, spec, seed, exec, &u);
    } else {
        end_to_end(&mut report, spec, &u);
    }
    report
}

/// Latency and throughput pool every request of the run: the median and
/// the workload's tail percentile over all of them, and answers per second
/// of time spent answering.
fn end_to_end(report: &mut Report, spec: &Spec, u: &Untraced) {
    let out = &u.out;
    // A batch is one request but `BATCH` answers: it counts towards
    // throughput, not towards the per-request latency.
    let lat_us: Vec<f64> = out
        .records
        .iter()
        .filter(|r| !r.batch)
        .map(|r| r.secs * 1e6)
        .collect();
    let samples = lat_us.len();
    let (tail, beyond) = percentile(lat_us.clone(), spec.tail_per_mille);
    let answers: usize = out.records.iter().map(|r| r.answers).sum();
    let busy_s: f64 = out.records.iter().map(|r| r.secs).sum();
    report.real("setup_s", median(u.setup_s.clone()), u.setup_s.len());
    report.real("peak_heap_mb", crate::alloc::peak_mb(), 1);
    report.real("latency_p50_us", median(lat_us), samples);
    report.real("latency_tail_us", tail, samples);
    report.real("ops_per_s", ratio(answers as f64, busy_s), answers);
    report.notes.push(format!(
        "{} passes, {samples} requests; latency_tail_us is p{}, {beyond} requests beyond it",
        out.passes,
        spec.tail_per_mille as f64 / 10.0,
    ));
}

/// The per-layer metrics of a traced run.
fn layers(report: &mut Report, spec: &Spec, seed: u64, exec: &Executor, u: &Untraced) {
    let (stack, out) = (&u.stack, &u.out);
    let oracle = &stack.oracle;
    let g = oracle.graph();

    // The first pass's row sources, in request order.
    let mut row_sources: Vec<VId> = Vec::new();
    for op in &out.first {
        if let Op::Row(s) | Op::Hot(s) = *op {
            if !row_sources.contains(&s) {
                row_sources.push(s);
            }
        }
    }

    // The parallel executor: a set-up on an `nproc`-thread pool, and
    // the first pass's row sources on both pools, interleaved. The pools
    // must agree bit for bit (the executor's contract); a row that does
    // not counts as failed.
    let par = Executor::new(nproc());
    let (par_stack, par_times, _) = workload::setup(spec, seed, &par, false);
    let (mut one_us, mut par_us) = (Vec::new(), Vec::new());
    for &s in row_sources.iter().take(PAR_ROWS) {
        let t = Instant::now();
        let one_row = oracle.distances_from(s);
        one_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let par_row = par_stack.oracle.distances_from(s);
        par_us.push(t.elapsed().as_secs_f64() * 1e6);
        let same = match (one_row, par_row) {
            (Ok(a), Ok(b)) => a
                .iter()
                .map(|x| x.to_bits())
                .eq(b.iter().map(|x| x.to_bits())),
            _ => false,
        };
        report.attempted += 1;
        report.failed += u64::from(!same);
    }
    drop(par_stack);
    report.count("par.threads", par.threads() as u64);
    report.real("par.build_s", par_times.build_s, 1);
    let (one_row_us, par_row_us) = (median(one_us), median(par_us.clone()));
    report.real("par.row_us", par_row_us, par_us.len());
    report.real(
        "par.row_speedup",
        ratio(one_row_us, par_row_us),
        par_us.len(),
    );

    // Construction: one more set-up, with the phase hook installed.
    trace::install();
    let (traced, times, spans) = workload::setup(spec, seed, exec, true);
    drop(traced);
    report.real("gen_s", times.gen_s, 1);
    construction(report, oracle, &spans);

    // Query engine: the row explorations of the loop's first pass, and the
    // loop's batches or else one probe batch over its row sources.
    let rows: Vec<&OpRecord> = out.records.iter().filter(|r| r.explored_row).collect();
    let first: Vec<&&OpRecord> = rows.iter().filter(|r| r.pass == 0).collect();
    report.real(
        "row.work",
        ratio(
            first.iter().map(|r| r.work as f64).sum(),
            first.len() as f64,
        ),
        first.len(),
    );
    report.count(
        "row.depth",
        first.iter().map(|r| r.depth).max().unwrap_or(0),
    );
    let mut probe = LoopOut::new();
    let batches = if out.records.iter().any(|r| r.batch) {
        out
    } else {
        let batch = Op::Batch(row_sources.iter().copied().take(BATCH).collect());
        closed_loop(&mut probe, oracle, None, |_| vec![batch.clone()], 0.0);
        report.absorb(&probe);
        &probe
    };
    let batches: Vec<&OpRecord> = batches.records.iter().filter(|r| r.batch).collect();
    let first_batches: Vec<&&OpRecord> = batches.iter().filter(|r| r.pass == 0).collect();
    report.real(
        "batch.work",
        ratio(
            first_batches.iter().map(|r| r.work as f64).sum(),
            first_batches.len() as f64,
        ),
        first_batches.len(),
    );
    let answers: usize = batches.iter().map(|r| r.answers).sum();
    report.real(
        "batch_row_us",
        ratio(batches.iter().map(|r| r.secs * 1e6).sum(), answers as f64),
        answers,
    );

    // Serving tiers: the loop's own, or one pass of a serving mix through
    // a cache and plane built on this oracle.
    let mut probe = LoopOut::new();
    let (serving, plane, plane_s) = match &stack.plane {
        Some(plane) => (out, Arc::clone(plane), times.plane_s),
        None => {
            let (plane, plane_s) = workload::build_plane(oracle);
            let served = workload::serve(oracle, &plane);
            let n = g.num_vertices();
            let mix = |pass| workload::serve_mix(n, spec.probe_ops, seed, pass);
            closed_loop(&mut probe, oracle, Some(&served), mix, 0.0);
            report.absorb(&probe);
            (&probe, plane, plane_s)
        }
    };
    let fallback_p50 = tiers(report, serving);
    landmarks(report, &plane, plane_s, &serving.first);

    // Exact baselines on the same sources and pairs.
    let dijkstra_row = median(out.dijkstra_row_us.clone());
    let dijkstra_to = median(serving.dijkstra_to_us.clone());
    let delta = default_delta(g);
    let ds_us: Vec<f64> = row_sources
        .iter()
        .take(DELTA_ROWS)
        .map(|&s| {
            let t = Instant::now();
            std::hint::black_box(delta_stepping_on(exec, g, s, delta));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let ds_n = ds_us.len();
    report.real(
        "baseline.dijkstra_row_us",
        dijkstra_row,
        out.dijkstra_row_us.len(),
    );
    report.real("baseline.delta_stepping_row_us", median(ds_us), ds_n);
    report.real(
        "baseline.dijkstra_to_us",
        dijkstra_to,
        serving.dijkstra_to_us.len(),
    );
    let row_us = median(rows.iter().map(|r| r.secs * 1e6).collect());
    report.real(
        "ratio.row_vs_dijkstra",
        ratio(row_us, dijkstra_row),
        rows.len(),
    );
    report.real(
        "ratio.fallback_vs_dijkstra_to",
        ratio(fallback_p50, dijkstra_to),
        serving.dijkstra_to_us.len(),
    );

    // Tracing overhead (the traced set-up against the untraced median),
    // the check, the fingerprint.
    report.real(
        "trace.overhead_s",
        times.total() - median(u.setup_s.clone()),
        1,
    );
    let (attempted, failed) = (report.attempted, report.failed);
    report.real(
        "check.fail_frac",
        ratio(failed as f64, attempted as f64),
        attempted as usize,
    );
    report.real("check.max_stretch", out.max_stretch, out.attempted as usize);
    // The top 53 bits, so the JSON number is exact; the notes carry all 64.
    report.count("answers.fnv64", out.fnv >> 11);
    report
        .notes
        .push(format!("answers.fnv64 = {:016x} (first pass)", out.fnv));
}

/// Phase self times and counts, construction ledger, hopset shape and the
/// ruling-set trace.
fn construction(report: &mut Report, oracle: &Oracle, spans: &[SpanStats]) {
    let span = |name: &str| spans.iter().find(|s| s.name == name);
    let self_s = |name: &str| span(name).map_or(0.0, |s| s.self_s);
    for name in [
        "detect",
        "supercluster",
        "interconnect",
        "overlay-csr",
        "oracle-assembly",
    ] {
        report.real(&format!("phase.{name}_s"), self_s(name), 1);
        report.count(
            &format!("phase.{name}.count"),
            span(name).map_or(0, |s| s.count),
        );
    }
    // The benchmark's root span around `Oracle::build`: what the build
    // spends outside the library's scopes.
    report.real("phase.unscoped_s", self_s("build"), 1);
    let total: f64 = spans.iter().map(|s| s.self_s).sum();
    report.real(
        "phase.supercluster_share",
        ratio(self_s("supercluster"), total),
        1,
    );

    let built = oracle.built().expect("the plain pipeline is pinned");
    report.count("build.work", built.ledger.work());
    report.count("build.depth", built.ledger.depth());
    report.count("hopset.edges", oracle.hopset_size() as u64);
    report.count("hopset.scales", built.scales.len() as u64);
    report.count("query_hops", oracle.query_hops() as u64);
    let levels: Vec<&LevelStat> = built
        .scales
        .iter()
        .flat_map(|s| &s.phases)
        .flat_map(|p| &p.ruling_trace.levels)
        .collect();
    let sum = |f: fn(&LevelStat) -> usize| levels.iter().map(|l| f(l) as u64).sum::<u64>();
    let candidates = sum(|l| l.candidates);
    let knocked_out = sum(|l| l.knocked_out);
    report.count("ruling.levels", levels.len() as u64);
    report.count("ruling.sources", sum(|l| l.sources));
    report.count("ruling.candidates", candidates);
    report.count("ruling.knocked_out", knocked_out);
    report.real(
        "ruling.knockout_rate",
        ratio(knocked_out as f64, candidates as f64),
        1,
    );
}

/// Cache counters of the first pass and per-tier latency; returns the
/// fallback tier's median.
fn tiers(report: &mut Report, serving: &LoopOut) -> f64 {
    let stats = serving.stats.expect("serving loops record cache counters");
    report.count("cache.hits", stats.hits);
    report.count("cache.misses", stats.misses);
    report.count("cache.evictions", stats.evictions);
    report.count("landmark.answers", stats.landmark_answers);
    report.count("landmark.fallbacks", stats.fallbacks);
    let consulted = stats.landmark_answers + stats.fallbacks;
    report.real(
        "landmark.answer_rate",
        ratio(stats.landmark_answers as f64, consulted as f64),
        consulted as usize,
    );
    report.count("gate.rejections", stats.rejections);
    let tier_us = |t: Tier| -> Vec<f64> {
        serving
            .records
            .iter()
            .filter(|r| r.tier == t)
            .map(|r| r.secs * 1e6)
            .collect()
    };
    for (name, tier) in [
        ("tier.hit_p50_us", Tier::Hit),
        ("tier.landmark_p50_us", Tier::Landmark),
    ] {
        let us = tier_us(tier);
        let n = us.len();
        report.real(name, median(us), n);
    }
    let fallback = tier_us(Tier::Fallback);
    let n = fallback.len();
    let p50 = median(fallback.clone());
    report.real("tier.fallback_p50_us", p50, n);
    report.real("tier.fallback_tail_us", percentile(fallback, 900).0, n);
    p50
}

/// The landmark plane: direct `certify` calls over the mix's pairs, and
/// its build.
fn landmarks(report: &mut Report, plane: &LandmarkPlane, plane_s: f64, ops: &[Op]) {
    let pairs: Vec<(VId, VId)> = ops
        .iter()
        .filter_map(|op| match *op {
            Op::Dist(u, v) => Some((u, v)),
            _ => None,
        })
        .collect();
    let t = Instant::now();
    let certified = pairs
        .iter()
        .filter(|&&(u, v)| std::hint::black_box(plane.certify(u, v)).is_some())
        .count();
    report.real(
        "landmark.certify_us",
        ratio(t.elapsed().as_secs_f64() * 1e6, pairs.len() as f64),
        pairs.len(),
    );
    report.notes.push(format!(
        "direct certify: {certified} of {} pairs certified",
        pairs.len()
    ));
    report.real("landmark.build_s", plane_s, 1);
    report.count("landmark.build_work", plane.build_cost().work());
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median of a sample (0 when empty).
fn median(xs: Vec<f64>) -> f64 {
    let xs = sorted(xs);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// The `per_mille`-th percentile (nearest rank) and how many samples lie
/// beyond it; 0 for no samples.
fn percentile(xs: Vec<f64>, per_mille: usize) -> (f64, usize) {
    let xs = sorted(xs);
    let n = xs.len();
    if n == 0 {
        return (0.0, 0);
    }
    let rank = (n * per_mille).div_ceil(1000).max(1);
    (xs[rank - 1], n - rank)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The host's core count, the size of the parallel pool.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The checked-out commit, read from `.git` when the run starts in a git
/// work tree; `unknown` in an exported tree.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// Metrics that do not depend on timing: they must repeat exactly.
    fn counted(r: &Report) -> Vec<(&'static str, Value)> {
        r.metrics
            .iter()
            .filter(|m| {
                matches!(m.unit, "count" | "hash")
                    || matches!(
                        m.name,
                        "ruling.knockout_rate"
                            | "landmark.answer_rate"
                            | "check.fail_frac"
                            | "check.max_stretch"
                    )
            })
            .map(|m| (m.name, m.value))
            .collect()
    }

    fn fnv(r: &Report) -> Value {
        r.metrics
            .iter()
            .find(|m| m.name == "answers.fnv64")
            .expect("traced runs report the fingerprint")
            .value
    }

    fn names(r: &Report) -> Vec<(&'static str, &'static str)> {
        r.metrics.iter().map(|m| (m.name, m.unit)).collect()
    }

    #[test]
    fn tiny_runs_are_complete_correct_and_repeatable() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let declared = std::fs::read_to_string(manifest).expect("BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            declared.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares a metric the benchmark does not report"
        );

        let exec = Executor::new(1);
        for name in WORKLOADS {
            assert!(declared.contains(&format!("{{\"name\": \"{name}\", \"why\"")));
            let spec = Spec::tiny(name).expect("known workload");
            // Zero seconds: exactly one pass, so every count is fixed.
            let plain = run(&spec, 7, 0.0, false, &exec);
            assert_eq!(names(&plain), END_TO_END.to_vec(), "{name}");
            let a = run(&spec, 7, 0.0, true, &exec);
            let b = run(&spec, 7, 0.0, true, &exec);
            let other = run(&spec, 8, 0.0, true, &exec);
            assert_eq!(names(&a), PER_LAYER.to_vec(), "{name}");
            for r in [&plain, &a, &b, &other] {
                assert_eq!(r.failed, 0, "{name}: {r:?}");
                assert!(r.attempted > 0, "{name}");
            }
            assert_eq!(
                counted(&a),
                counted(&b),
                "{name}: counts differ between runs"
            );
            assert_ne!(
                fnv(&a),
                fnv(&other),
                "{name}: the seed does not reach the answers"
            );
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(percentile(xs(100), 900), (90.0, 10));
        assert_eq!(percentile(xs(1000), 990), (990.0, 10));
        assert_eq!(percentile(xs(5), 990), (5.0, 0));
        assert_eq!(percentile(Vec::new(), 900), (0.0, 0));
        assert_eq!(median(xs(4)), 2.5);
    }
}
