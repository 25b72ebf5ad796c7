//! The workloads: what each one runs, its inputs and its set-up.
//!
//! Every input is a pure function of the workload seed: the graph comes
//! from the `pgraph::gen` generators, the request sequence from SplitMix64.
//! The program under test only ever sees the generated inputs.

use crate::trace::{self, SpanStats};
use pram_sssp::pgraph::{gen, Graph, VId};
use pram_sssp::pram::Executor;
use pram_sssp::sssp::{
    CacheConfig, CachedOracle, FillPolicy, LandmarkConfig, LandmarkPlane, Oracle, Pipeline,
};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["build-gnm", "rows-road", "p2p-road"];

/// Sources per `distances_multi` batch.
pub const BATCH: usize = 8;
/// Rows the serving cache holds.
const CAPACITY: usize = 8;
/// Hot sources of the serving mix: a few more than the cache holds, so
/// the LRU evicts.
const HOT: usize = 10;
/// Landmarks of the serving plane and its answer budget δ.
const LANDMARKS: usize = 16;
const DELTA: f64 = 1.0;

/// The graph family of a workload.
#[derive(Clone, Copy, Debug)]
pub enum Instance {
    /// `gnm_connected(n, 2n)`, weights in [1, 8].
    Gnm { n: usize },
    /// `road_grid(side, side)`, weights in [1, 10].
    Road { side: usize },
}

/// The request mix of one pass of the timed loop.
#[derive(Clone, Copy, Debug)]
pub enum Mix {
    /// `rows` single-source rows cycling over `distinct` sources, with
    /// `batches` 8-source `distances_multi` requests spread among them.
    Rows {
        rows: usize,
        distinct: usize,
        batches: usize,
    },
    /// `ops` requests through the cache and landmark tiers: 20% hot
    /// `row()`, 30% hot-source `distance()`, 50% cold `distance()`.
    Serve { ops: usize },
}

/// One workload: the instance, the oracle configuration and the mix.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub instance: Instance,
    pub eps: f64,
    pub kappa: usize,
    pub hop_cap: Option<usize>,
    pub mix: Mix,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// The percentile `latency_tail_us` reports, in tenths of a percent:
    /// the highest with at least ten requests beyond it among the requests
    /// of a run, which makes two passes or more at full size. Fixed per
    /// workload, so a faster or slower run does not switch percentiles.
    pub tail_per_mille: usize,
    /// Size of the serving mix a traced run replays on workloads whose
    /// own mix does not go through the cache.
    pub probe_ops: usize,
}

impl Spec {
    /// The benchmark's workloads at full size.
    pub fn full(name: &str) -> Option<Spec> {
        let gnm = Spec {
            name: "build-gnm",
            instance: Instance::Gnm { n: 16_384 },
            eps: 0.5,
            kappa: 8,
            hop_cap: Some(32),
            mix: Mix::Rows {
                rows: 64,
                distinct: 32,
                batches: 0,
            },
            setups: 3,
            tail_per_mille: 900,
            probe_ops: 400,
        };
        let road = Spec {
            name: "rows-road",
            instance: Instance::Road { side: 96 },
            eps: 0.25,
            kappa: 4,
            hop_cap: None,
            mix: Mix::Rows {
                rows: 30,
                distinct: 30,
                batches: 1,
            },
            setups: 3,
            tail_per_mille: 900,
            probe_ops: 400,
        };
        match name {
            "build-gnm" => Some(gnm),
            "rows-road" => Some(road),
            "p2p-road" => Some(Spec {
                name: "p2p-road",
                mix: Mix::Serve { ops: 500 },
                tail_per_mille: 990,
                ..road
            }),
            _ => None,
        }
    }

    /// The same workloads on tiny instances (the self-test).
    #[cfg(test)]
    pub fn tiny(name: &str) -> Option<Spec> {
        let full = Spec::full(name)?;
        Some(Spec {
            instance: match full.instance {
                Instance::Gnm { .. } => Instance::Gnm { n: 256 },
                Instance::Road { .. } => Instance::Road { side: 12 },
            },
            mix: match full.mix {
                Mix::Rows { batches, .. } => Mix::Rows {
                    rows: 12,
                    distinct: 6,
                    batches,
                },
                Mix::Serve { .. } => Mix::Serve { ops: 60 },
            },
            setups: 2,
            probe_ops: 40,
            ..full
        })
    }
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// SplitMix64: the request-sequence generator.
struct Rng(u64);

impl Rng {
    /// The request stream of one pass. Salted, so it is not the graph
    /// generator's stream (which takes the same seed).
    fn new(seed: u64, pass: usize) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0000_0000 ^ Rng(pass as u64).next())
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn vertex(&mut self, n: usize) -> VId {
        self.below(n) as VId
    }

    /// `k` distinct vertices, in draw order.
    fn distinct(&mut self, n: usize, k: usize) -> Vec<VId> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::with_capacity(k);
        while out.len() < k.min(n) {
            let v = self.vertex(n);
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }
}

/// One request of the closed loop.
#[derive(Clone, Debug)]
pub enum Op {
    /// `Oracle::distances_from`.
    Row(VId),
    /// `Oracle::distances_multi`.
    Batch(Vec<VId>),
    /// `CachedOracle::row`.
    Hot(VId),
    /// `CachedOracle::distance`.
    Dist(VId, VId),
}

fn rows_mix(n: usize, rows: usize, distinct: usize, batches: usize, rng: &mut Rng) -> Vec<Op> {
    let sources = rng.distinct(n, distinct);
    // Batches sit at even gaps between the rows.
    let gap = rows / (batches + 1);
    let mut ops = Vec::with_capacity(rows + batches);
    for i in 1..=rows {
        ops.push(Op::Row(sources[(i - 1) % sources.len()]));
        if gap > 0 && i % gap == 0 && i / gap <= batches {
            let batch = (0..BATCH)
                .map(|_| sources[rng.below(sources.len())])
                .collect();
            ops.push(Op::Batch(batch));
        }
    }
    ops
}

/// The serving mix. Its shape is fixed: request `i` is a hot `row()` when
/// `i % 10` is 0 or 5, a hot-source `distance()` when it is 1, 3 or 7, and a
/// cold `distance()` otherwise, and the hot slots requests name follow one
/// fixed sequence. The seed picks the graph, the hot vertices behind the
/// slots and the cold pairs. A fixed shape fixes how often the LRU misses,
/// so seeds differ in which rows are explored, not in how many.
pub fn serve_mix(n: usize, ops: usize, seed: u64, pass: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, pass);
    let hot = rng.distinct(n, HOT);
    let mut slots = Rng(0x510E_5EED);
    (0..ops)
        .map(|i| match i % 10 {
            0 | 5 => Op::Hot(hot[slots.below(HOT)]),
            1 | 3 | 7 => Op::Dist(hot[slots.below(HOT)], rng.vertex(n)),
            _ => Op::Dist(rng.vertex(n), rng.vertex(n)),
        })
        .collect()
}

/// Pass `pass` of the workload's request mix. Every pass draws fresh
/// sources: a row's cost depends on where its source sits, so a run
/// averages over as many sources as it has time for.
pub fn mix(spec: &Spec, n: usize, seed: u64, pass: usize) -> Vec<Op> {
    match spec.mix {
        Mix::Rows {
            rows,
            distinct,
            batches,
        } => rows_mix(n, rows, distinct, batches, &mut Rng::new(seed, pass)),
        Mix::Serve { ops } => serve_mix(n, ops, seed, pass),
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// What a set-up produces: the oracle and, for serving, the landmark plane.
pub struct Stack {
    pub oracle: Arc<Oracle>,
    pub plane: Option<Arc<LandmarkPlane>>,
}

#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub gen_s: f64,
    pub build_s: f64,
    pub plane_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.gen_s + self.build_s + self.plane_s
    }
}

fn generate(instance: Instance, seed: u64) -> Graph {
    match instance {
        Instance::Gnm { n } => gen::gnm_connected(n, 2 * n, seed, 1.0, 8.0),
        Instance::Road { side } => gen::road_grid(side, side, seed, 1.0, 10.0),
    }
}

fn build_oracle(spec: &Spec, g: Graph, exec: &Executor) -> Oracle {
    let mut b = Oracle::builder(g)
        .eps(spec.eps)
        .kappa(spec.kappa)
        .pipeline(Pipeline::Plain)
        .executor(exec.clone());
    if let Some(cap) = spec.hop_cap {
        b = b.hop_cap(cap);
    }
    b.build().expect("workload parameters are valid")
}

pub fn build_plane(oracle: &Arc<Oracle>) -> (Arc<LandmarkPlane>, f64) {
    let t = Instant::now();
    let plane = LandmarkPlane::build(oracle, &LandmarkConfig::new(LANDMARKS, DELTA))
        .expect("landmark configuration is valid");
    (Arc::new(plane), t.elapsed().as_secs_f64())
}

/// Generation, `Oracle::build` and (serving only) the landmark plane. With
/// `spans`, the build runs inside a root span and its phases are returned.
pub fn setup(
    spec: &Spec,
    seed: u64,
    exec: &Executor,
    spans: bool,
) -> (Stack, SetupTimes, Vec<SpanStats>) {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let g = generate(spec.instance, seed);
    times.gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (oracle, phases) = if spans {
        trace::collect("build", || build_oracle(spec, g, exec))
    } else {
        (build_oracle(spec, g, exec), Vec::new())
    };
    times.build_s = t.elapsed().as_secs_f64();
    let oracle = Arc::new(oracle);
    let plane = match spec.mix {
        Mix::Serve { .. } => {
            let (plane, secs) = build_plane(&oracle);
            times.plane_s = secs;
            Some(plane)
        }
        Mix::Rows { .. } => None,
    };
    (Stack { oracle, plane }, times, phases)
}

/// The serving stack: an LRU row cache with landmark-only p2p fill.
pub fn serve(oracle: &Arc<Oracle>, plane: &Arc<LandmarkPlane>) -> CachedOracle<Arc<Oracle>> {
    let cfg = CacheConfig::new(CAPACITY)
        .policy(FillPolicy::LandmarkOnly)
        .landmark_plane(Arc::clone(plane));
    CachedOracle::with_config(Arc::clone(oracle), cfg).expect("cache configuration is valid")
}
