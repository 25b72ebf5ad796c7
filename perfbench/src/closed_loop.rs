//! The closed loop: one client issues each request after the previous one
//! answered, times it alone, and checks it against exact Dijkstra outside
//! the timed interval.

use crate::workload::Op;
use pram_sssp::pgraph::{exact, Graph, VId, Weight, INF};
use pram_sssp::pram::Ledger;
use pram_sssp::sssp::{
    CacheStats, CachedOracle, CachedRow, DistanceOracle, MultiSourceResult, Oracle, SsspError,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Exact answers for every request of a pass, computed before the pass.
/// The Dijkstra timings double as the exact baselines of a traced run.
struct Exact {
    rows: BTreeMap<VId, Vec<Weight>>,
    pairs: BTreeMap<(VId, VId), Weight>,
    /// Dijkstra time per row and per pair, µs.
    row_us: Vec<f64>,
    to_us: Vec<f64>,
}

impl Exact {
    fn for_ops(g: &Graph, ops: &[Op]) -> Exact {
        let mut ex = Exact {
            rows: BTreeMap::new(),
            pairs: BTreeMap::new(),
            row_us: Vec::new(),
            to_us: Vec::new(),
        };
        let need_row = |s: VId, ex: &mut Exact| {
            if !ex.rows.contains_key(&s) {
                let t = Instant::now();
                let row = exact::dijkstra(g, s).dist;
                ex.row_us.push(t.elapsed().as_secs_f64() * 1e6);
                ex.rows.insert(s, row);
            }
        };
        for op in ops {
            match op {
                Op::Row(s) | Op::Hot(s) => need_row(*s, &mut ex),
                Op::Batch(b) => b.iter().for_each(|&s| need_row(s, &mut ex)),
                Op::Dist(..) => {}
            }
        }
        for op in ops {
            if let Op::Dist(u, v) = *op {
                if !ex.rows.contains_key(&u) && !ex.pairs.contains_key(&(u, v)) {
                    let t = Instant::now();
                    let d = exact::dijkstra_to(g, u, v);
                    ex.to_us.push(t.elapsed().as_secs_f64() * 1e6);
                    ex.pairs.insert((u, v), d);
                }
            }
        }
        ex
    }

    fn pair(&self, u: VId, v: VId) -> Weight {
        match self.rows.get(&u) {
            Some(row) => row[v as usize],
            None => self.pairs[&(u, v)],
        }
    }
}

/// Checks answers against `[d, bound·d]` and fingerprints them.
struct Checker<'a> {
    exact: &'a Exact,
    bound: f64,
    attempted: u64,
    failed: u64,
    max_stretch: f64,
    fnv: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl<'a> Checker<'a> {
    fn new(exact: &'a Exact, bound: f64) -> Checker<'a> {
        Checker {
            exact,
            bound,
            attempted: 0,
            failed: 0,
            max_stretch: 1.0,
            fnv: FNV_OFFSET,
        }
    }

    fn hash(&mut self, x: Weight) {
        for b in x.to_bits().to_le_bytes() {
            self.fnv = (self.fnv ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Whether `got` is a sound answer for exact distance `d`.
    fn sound(&mut self, got: Weight, d: Weight) -> bool {
        if d == INF || got == INF {
            return d == got;
        }
        let tol = 1e-9 * d.max(1.0);
        if d > 0.0 {
            self.max_stretch = self.max_stretch.max(got / d);
        }
        got >= d - tol && got <= self.bound * d + tol
    }

    fn row(&mut self, s: VId, got: &[Weight]) {
        let d = &self.exact.rows[&s];
        let mut ok = got.len() == d.len();
        for (&g, &e) in got.iter().zip(d) {
            self.hash(g);
            ok &= self.sound(g, e);
        }
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn pair(&mut self, u: VId, v: VId, got: Weight) {
        self.hash(got);
        let ok = self.sound(got, self.exact.pair(u, v));
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// A request that returned an error: every answer it owed fails.
    fn error(&mut self, answers: usize) {
        self.hash(f64::NAN);
        self.attempted += answers as u64;
        self.failed += answers as u64;
    }
}

// ---------------------------------------------------------------------------
// The loop
// ---------------------------------------------------------------------------

/// Which tier answered a request, from the per-request `stats()` delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Not through the cache.
    Direct,
    Hit,
    /// A `row()` miss: a full-row exploration that fills the cache.
    RowMiss,
    Landmark,
    Fallback,
    /// Refused or failed before any tier answered.
    None,
}

#[derive(Clone, Copy, Debug)]
pub struct OpRecord {
    pub pass: usize,
    pub batch: bool,
    /// The request ran a full-row exploration.
    pub explored_row: bool,
    pub answers: usize,
    pub secs: f64,
    pub tier: Tier,
    pub work: u64,
    pub depth: u64,
}

/// Everything the closed loop observed.
pub struct LoopOut {
    pub records: Vec<OpRecord>,
    pub attempted: u64,
    pub failed: u64,
    pub max_stretch: f64,
    pub passes: usize,
    /// The first pass's requests, answer fingerprint and (cache-fronted
    /// mixes only) cache counters: the parts of a run that repeat exactly.
    pub first: Vec<Op>,
    pub fnv: u64,
    pub stats: Option<CacheStats>,
    /// Exact Dijkstra time per row and per pair, µs.
    pub dijkstra_row_us: Vec<f64>,
    pub dijkstra_to_us: Vec<f64>,
}

enum Answer {
    Row(Vec<Weight>, Ledger),
    Cached(Arc<CachedRow>),
    Batch(MultiSourceResult),
    Dist(Weight),
}

fn call(
    oracle: &Oracle,
    served: Option<&CachedOracle<Arc<Oracle>>>,
    op: &Op,
) -> Result<Answer, SsspError> {
    let served = || served.expect("cache-fronted requests need a cache");
    Ok(match op {
        Op::Row(s) => {
            let (row, ledger) = oracle.distances_from_with_ledger(*s)?;
            Answer::Row(row, ledger)
        }
        Op::Batch(b) => Answer::Batch(oracle.distances_multi(b)?),
        Op::Hot(s) => Answer::Cached(served().row(*s)?.0),
        Op::Dist(u, v) => Answer::Dist(served().distance(*u, *v)?),
    })
}

fn tier_of(before: &CacheStats, after: &CacheStats) -> Tier {
    if after.hits > before.hits {
        Tier::Hit
    } else if after.landmark_answers > before.landmark_answers {
        Tier::Landmark
    } else if after.fallbacks > before.fallbacks {
        Tier::Fallback
    } else if after.misses > before.misses {
        Tier::RowMiss
    } else {
        Tier::None
    }
}

/// One pass over `ops`: time each request alone, then (outside the timed
/// interval) classify, check and fingerprint it.
fn pass(
    oracle: &Oracle,
    served: Option<&CachedOracle<Arc<Oracle>>>,
    ops: &[Op],
    index: usize,
    check: &mut Checker<'_>,
    records: &mut Vec<OpRecord>,
) {
    for op in ops {
        let before = served.map(|s| s.stats());
        let t = Instant::now();
        let res = call(oracle, served, op);
        let secs = t.elapsed().as_secs_f64();
        let tier = match (&before, served) {
            (Some(b), Some(s)) => tier_of(b, &s.stats()),
            _ => Tier::Direct,
        };
        let answers = match op {
            Op::Batch(b) => b.len(),
            _ => 1,
        };
        let mut rec = OpRecord {
            pass: index,
            batch: matches!(op, Op::Batch(_)),
            explored_row: matches!(op, Op::Row(_)) || tier == Tier::RowMiss,
            answers,
            secs,
            tier,
            work: 0,
            depth: 0,
        };
        match (op, res) {
            (_, Err(_)) => check.error(answers),
            (Op::Row(s), Ok(Answer::Row(row, ledger))) => {
                (rec.work, rec.depth) = (ledger.work(), ledger.depth());
                check.row(*s, &row);
            }
            (Op::Hot(s), Ok(Answer::Cached(row))) => {
                (rec.work, rec.depth) = (row.ledger().work(), row.ledger().depth());
                check.row(*s, row.dist());
            }
            (Op::Batch(b), Ok(Answer::Batch(m))) => {
                (rec.work, rec.depth) = (m.ledger.work(), m.ledger.depth());
                for (i, &s) in b.iter().enumerate() {
                    check.row(s, m.dist.row(i));
                }
            }
            (Op::Dist(u, v), Ok(Answer::Dist(d))) => check.pair(*u, *v, d),
            _ => unreachable!("each request kind has one answer kind"),
        }
        records.push(rec);
    }
}

impl LoopOut {
    pub fn new() -> LoopOut {
        LoopOut {
            records: Vec::new(),
            attempted: 0,
            failed: 0,
            max_stretch: 1.0,
            passes: 0,
            first: Vec::new(),
            fnv: 0,
            stats: None,
            dijkstra_row_us: Vec::new(),
            dijkstra_to_us: Vec::new(),
        }
    }
}

/// Run passes `mix(k)`, `mix(k + 1)`, ..., where `k` counts the passes
/// `out` already holds, until `seconds` have elapsed (at least one), and
/// add them to `out`. A cache-fronted loop starts every pass from an empty
/// cache.
pub fn closed_loop(
    out: &mut LoopOut,
    oracle: &Oracle,
    served: Option<&CachedOracle<Arc<Oracle>>>,
    mix: impl Fn(usize) -> Vec<Op>,
    seconds: f64,
) {
    let bound = served.map_or(oracle.stretch_bound(), |s| s.stretch_bound());
    let start = Instant::now();
    loop {
        let ops = mix(out.passes);
        let exact = Exact::for_ops(oracle.graph(), &ops);
        if let Some(s) = served {
            s.clear();
        }
        let mut check = Checker::new(&exact, bound);
        pass(
            oracle,
            served,
            &ops,
            out.passes,
            &mut check,
            &mut out.records,
        );
        out.attempted += check.attempted;
        out.failed += check.failed;
        out.max_stretch = out.max_stretch.max(check.max_stretch);
        if out.passes == 0 {
            out.fnv = check.fnv;
            out.stats = served.map(|s| s.stats());
            out.first = ops;
        }
        out.dijkstra_row_us.extend(exact.row_us);
        out.dijkstra_to_us.extend(exact.to_us);
        out.passes += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            return;
        }
    }
}
