//! Parallel multi-source hop-limited Bellman–Ford over `G ∪ H`.
//!
//! This is the final stage of Theorems 3.8/C.3: "execute a Bellman–Ford
//! exploration from a vertex v ∈ V limited to β hops … O(β·log n) time,
//! O(1) processors per vertex and edge". It is also the engine behind the
//! (1+ε)-SPT of §4 (Algorithm 1, line 3).
//!
//! Implementation notes:
//! * *frontier push*: a round relaxes only out of the vertices whose
//!   distance changed in the previous round (the sources, in round 1).
//!   Every other neighbor's offer was already made and can no longer win
//!   (DESIGN.md §9), so the result is the dense all-vertex pull's, bit for
//!   bit, while executed work follows the changed set;
//! * *determinism*: each vertex keeps the minimum of its offers under a
//!   totally ordered key `(distance, parent id, edge layer, overlay
//!   index)`, which does not depend on the order offers arrive in, so
//!   parent trees are unique regardless of thread count;
//! * *double buffering*: offers read only the previous round's distances;
//!   the round's winners are applied after every push, exactly like the
//!   PRAM's odd/even read/write rounds (§1.5.1);
//! * *accounting*: the [`Ledger`] still charges the paper's
//!   `2|E∪H| + n` per round, so the PRAM claims do not move;
//!   [`BfordScratch::scanned`] reports the adjacency entries actually read.

use crate::pool::Executor;
use crate::Ledger;
use pgraph::{EdgeTag, UnionView, VId, Weight, INF};

/// The parent edge chosen for a vertex by the exploration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParentEdge {
    /// The neighbor the distance came from.
    pub parent: VId,
    /// Weight of the relaxed edge.
    pub weight: Weight,
    /// Which layer the edge belongs to (base graph or overlay index).
    pub tag: EdgeTag,
}

/// Result of [`bellman_ford`].
#[derive(Clone, Debug)]
pub struct BellmanFordResult {
    /// `dist[v]` = minimum weight of a path from the nearest source using at
    /// most `rounds_run` hops (`d^{(h)}` of eq. (1)).
    pub dist: Vec<Weight>,
    /// Parent edge of each vertex (`None` for sources and unreached).
    pub parent: Vec<Option<ParentEdge>>,
    /// Rounds actually executed (≤ the requested hop limit).
    pub rounds_run: usize,
    /// `Some(r)` if no distance changed in round `r` (the exploration
    /// converged to the unbounded shortest paths).
    pub converged_at: Option<usize>,
}

impl BellmanFordResult {
    /// Hop count of the tree path to `v` (follows parents). `None` if
    /// unreached.
    pub fn hops_to(&self, v: VId) -> Option<usize> {
        if self.dist[v as usize] == INF {
            return None;
        }
        let mut h = 0usize;
        let mut cur = v;
        while let Some(pe) = self.parent[cur as usize] {
            h += 1;
            cur = pe.parent;
            debug_assert!(h <= self.dist.len(), "parent cycle");
        }
        Some(h)
    }
}

/// A relaxation offer: the tentative distance and the edge it came over.
type Candidate = (Weight, ParentEdge);

/// Reusable buffers for repeated explorations over graphs of the same
/// size: the `n`-sized arrays (distances, parents, per-round offers and
/// their round stamps) and the frontier lists live here, so a serving
/// batch pays one allocation set for the whole batch instead of one per
/// query ([`bellman_ford_into`]).
#[derive(Clone, Debug, Default)]
pub struct BfordScratch {
    dist: Vec<Weight>,
    parent: Vec<Option<ParentEdge>>,
    offers: Offers,
    /// Vertices whose distance changed in the previous round.
    frontier: Vec<VId>,
    scanned: u64,
}

impl BfordScratch {
    /// Empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// The distance row written by the last exploration run on this
    /// scratch (`d^{(h)}` of eq. (1)).
    #[inline]
    pub fn dist(&self) -> &[Weight] {
        &self.dist
    }

    /// The parent row written by the last exploration.
    #[inline]
    pub fn parent(&self) -> &[Option<ParentEdge>] {
        &self.parent
    }

    /// Adjacency entries read by the last exploration: the degree sum of
    /// every round's frontier. This is executed work, not the charged PRAM
    /// work (the [`Ledger`] keeps charging `2|E∪H| + n` per round).
    #[inline]
    pub fn scanned(&self) -> u64 {
        self.scanned
    }

    fn reset(&mut self, n: usize, sources: &[VId]) {
        self.dist.clear();
        self.dist.resize(n, INF);
        self.parent.clear();
        self.parent.resize(n, None);
        self.offers.reset(n);
        self.frontier.clear();
        self.scanned = 0;
        for &s in sources {
            // Duplicate sources enter the frontier once.
            if self.dist[s as usize] != 0.0 {
                self.dist[s as usize] = 0.0;
                self.frontier.push(s);
            }
        }
    }
}

/// The write side of a round: the best offer each vertex received.
#[derive(Clone, Debug, Default)]
struct Offers {
    /// Best offer to `v`; meaningful only where `fresh[v]` is the current
    /// round number (a stamp, so nothing is cleared between rounds).
    best: Vec<Candidate>,
    fresh: Vec<u32>,
    /// Vertices offered an improvement this round, in first-offer order.
    next: Vec<VId>,
}

impl Offers {
    fn reset(&mut self, n: usize) {
        const UNOFFERED: Candidate = (
            INF,
            ParentEdge {
                parent: 0,
                weight: INF,
                tag: EdgeTag::Base,
            },
        );
        self.best.clear();
        self.best.resize(n, UNOFFERED);
        self.fresh.clear();
        self.fresh.resize(n, 0);
        self.next.clear();
    }

    /// Record offer `c` to `v` in `round` (rounds count from 1): the first
    /// offer claims the slot and queues `v`; later ones keep the
    /// [`min_candidate`].
    #[inline]
    fn offer(&mut self, round: u32, v: VId, c: Candidate) {
        let slot = &mut self.best[v as usize];
        if self.fresh[v as usize] == round {
            *slot = min_candidate(*slot, c);
        } else {
            self.fresh[v as usize] = round;
            *slot = c;
            self.next.push(v);
        }
    }
}

/// Offer every neighbor `v` of the changed vertex `u` the path through `u`
/// when it beats `dist[v]`; returns the number of adjacency entries read.
#[inline]
fn relax_from(
    view: &UnionView<'_>,
    dist: &[Weight],
    u: VId,
    mut sink: impl FnMut(VId, Candidate),
) -> u64 {
    let du = dist[u as usize];
    let mut read = 0u64;
    view.for_each_neighbor(u, |v, w, tag| {
        read += 1;
        let nd = du + w;
        if nd < dist[v as usize] {
            let pe = ParentEdge {
                parent: u,
                weight: w,
                tag,
            };
            sink(v, (nd, pe));
        }
    });
    read
}

/// Result of a target-aware exploration ([`bellman_ford_to`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TargetResult {
    /// `d^{(β)}(S, target)` — bit-identical to the full run's value at the
    /// target (the settle criterion only ever stops rounds that provably
    /// cannot change it).
    pub dist: Weight,
    /// Rounds actually executed (≤ the requested hop limit).
    pub rounds_run: usize,
    /// Whether the run stopped before exhausting the hop budget (the
    /// target settled, or the whole exploration converged).
    pub settled_early: bool,
}

/// The shared round loop. Round `r` relaxes only out of the vertices
/// whose distance changed in round `r − 1` (the sources, for `r = 1`):
/// a neighbor that did not change offers a candidate that is already
/// `≥ dist[v]` in the same f64 arithmetic (its offer was made when it last
/// changed), so skipping it changes no bit of the dense all-vertex pull's
/// result (DESIGN.md §9). Offers read only the previous round's `dist`;
/// the round's winners are applied after every push.
///
/// With `target = Some(t)` it additionally applies the serving-plane settle
/// criterion (DESIGN.md §9): stop after round `r` once `dist[t]` is finite
/// and `min_changed_r ≥ dist[t]`, where `min_changed_r` is the smallest
/// distance written in round `r`. Safety: round `r + 1` relaxes only out
/// of vertices written in round `r`, and edge weights are strictly
/// positive (a `pgraph` construction invariant), so every distance written
/// after round `r` is `> min_changed_r` and can never undercut `dist[t]`.
/// The early answer is the full-β answer bit for bit.
///
/// A frontier of at least `PAR_THRESHOLD` vertices is pushed in contiguous
/// chunks on the pool, each collecting its offers locally; the lists are
/// merged in chunk order through the same [`Offers::offer`], so the merged
/// offers (and the next frontier's order) equal the one-chunk run's.
///
/// Returns `(rounds_run, converged_at, settled_early)`.
fn explore(
    exec: &Executor,
    view: &UnionView<'_>,
    sources: &[VId],
    target: Option<VId>,
    max_hops: usize,
    ledger: &mut Ledger,
    scratch: &mut BfordScratch,
) -> (usize, Option<usize>, bool) {
    let n = view.num_vertices();
    scratch.reset(n, sources);
    if let Some(t) = target {
        // A target at distance 0 (it is a source) can never improve:
        // every candidate is a positive-weight path sum.
        if scratch.dist[t as usize] == 0.0 {
            return (0, None, true);
        }
    }
    let edge_slots = 2 * view.num_edges() as u64;
    let mut rounds_run = 0usize;
    let mut converged_at = None;
    let mut settled = false;
    let BfordScratch {
        dist,
        parent,
        offers,
        frontier,
        scanned,
    } = scratch;

    for round in 1..=max_hops {
        // The charge is the paper's dense round, whatever the frontier.
        ledger.step(edge_slots + n as u64);
        let stamp = u32::try_from(round).expect("hop budget fits the u32 round stamp");
        let prev: &[Weight] = dist;
        if exec.parallel_eligible(frontier.len()) {
            let bounds = exec.chunk_bounds(frontier.len());
            let parts = exec.run_chunks(&bounds, |r| {
                let mut local = Vec::new();
                let mut read = 0u64;
                for &u in &frontier[r] {
                    read += relax_from(view, prev, u, |v, c| local.push((v, c)));
                }
                (local, read)
            });
            for (local, read) in parts {
                *scanned += read;
                for (v, c) in local {
                    offers.offer(stamp, v, c);
                }
            }
        } else {
            for &u in frontier.iter() {
                *scanned += relax_from(view, prev, u, |v, c| offers.offer(stamp, v, c));
            }
        }
        let mut min_changed = INF;
        for &v in &offers.next {
            let (nd, pe) = offers.best[v as usize];
            dist[v as usize] = nd;
            parent[v as usize] = Some(pe);
            if nd < min_changed {
                min_changed = nd;
            }
        }
        std::mem::swap(frontier, &mut offers.next);
        offers.next.clear();
        rounds_run = round;
        if frontier.is_empty() {
            converged_at = Some(round);
            break;
        }
        if let Some(t) = target {
            let dt = dist[t as usize];
            if dt.is_finite() && min_changed >= dt {
                settled = true;
                break;
            }
        }
    }
    (rounds_run, converged_at, settled)
}

/// Run a hop-limited multi-source Bellman–Ford exploration.
///
/// * `exec` — the pool the per-round relaxations run on;
/// * `view` — the graph `G ∪ H` (overlay = hopset);
/// * `sources` — the set `S` (Theorem 3.8's aMSSD sources);
/// * `max_hops` — the hop budget `β`;
/// * `ledger` — charged one step of `O(|E∪H| + n)` work per round.
pub fn bellman_ford(
    exec: &Executor,
    view: &UnionView<'_>,
    sources: &[VId],
    max_hops: usize,
    ledger: &mut Ledger,
) -> BellmanFordResult {
    let mut scratch = BfordScratch::new();
    let (rounds_run, converged_at) =
        bellman_ford_into(exec, view, sources, max_hops, ledger, &mut scratch);
    BellmanFordResult {
        dist: scratch.dist,
        parent: scratch.parent,
        rounds_run,
        converged_at,
    }
}

/// Like [`bellman_ford`], writing into caller-owned [`BfordScratch`]
/// buffers (read the row back with [`BfordScratch::dist`]). A request
/// batch reuses one scratch across all its explorations — the serving
/// path of `sssp::Oracle::distances_multi`. Returns
/// `(rounds_run, converged_at)`; results are bit-identical to
/// [`bellman_ford`].
pub fn bellman_ford_into(
    exec: &Executor,
    view: &UnionView<'_>,
    sources: &[VId],
    max_hops: usize,
    ledger: &mut Ledger,
    scratch: &mut BfordScratch,
) -> (usize, Option<usize>) {
    let (rounds_run, converged_at, _) =
        explore(exec, view, sources, None, max_hops, ledger, scratch);
    (rounds_run, converged_at)
}

/// Point-to-point exploration with early exit: identical rounds to
/// [`bellman_ford`], but the loop stops as soon as the target's label has
/// provably settled (the settle criterion is documented on the internal
/// `explore` loop; DESIGN.md §9 has the
/// proof sketch). The returned distance is **bit-identical** to
/// `bellman_ford(..).dist[target]` — only the number of rounds (and hence
/// the ledger's per-round charge) can shrink.
pub fn bellman_ford_to(
    exec: &Executor,
    view: &UnionView<'_>,
    sources: &[VId],
    target: VId,
    max_hops: usize,
    ledger: &mut Ledger,
) -> TargetResult {
    let mut scratch = BfordScratch::new();
    let (rounds_run, converged_at, settled) = explore(
        exec,
        view,
        sources,
        Some(target),
        max_hops,
        ledger,
        &mut scratch,
    );
    TargetResult {
        dist: scratch.dist[target as usize],
        rounds_run,
        settled_early: settled || converged_at.is_some(),
    }
}

/// Total order on relaxation candidates: distance, then parent id, then base
/// edges before overlay, then overlay index. Deterministic tie-breaking.
#[inline]
fn min_candidate(a: (Weight, ParentEdge), b: (Weight, ParentEdge)) -> (Weight, ParentEdge) {
    let ka = cand_key(&a);
    let kb = cand_key(&b);
    if kb < ka {
        b
    } else {
        a
    }
}

#[inline]
fn cand_key(c: &(Weight, ParentEdge)) -> (u64, VId, u8, u32) {
    let (d, pe) = c;
    let (layer, idx) = match pe.tag {
        EdgeTag::Base => (0u8, 0u32),
        EdgeTag::Extra(i) => (1u8, i),
    };
    (d.to_bits(), pe.parent, layer, idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgraph::exact;
    use pgraph::gen;
    use pgraph::Graph;

    fn exec() -> Executor {
        Executor::shared(2)
    }

    /// What [`dense_reference`] computed, plus the largest number of
    /// vertices changed in one round.
    struct Dense {
        dist: Vec<Weight>,
        parent: Vec<Option<ParentEdge>>,
        rounds_run: usize,
        converged_at: Option<usize>,
        settled: bool,
        max_changed: usize,
    }

    /// The frontier engine's differential reference, the dense pull:
    /// every round, every vertex scans all of its neighbors and keeps the
    /// [`min_candidate`] of the offers that beat its previous-round
    /// distance; updates apply after the scan.
    fn dense_reference(
        view: &UnionView<'_>,
        sources: &[VId],
        target: Option<VId>,
        max_hops: usize,
        ledger: &mut Ledger,
    ) -> Dense {
        let n = view.num_vertices();
        let mut dist = vec![INF; n];
        let mut parent = vec![None; n];
        for &s in sources {
            dist[s as usize] = 0.0;
        }
        let mut out = Dense {
            dist: Vec::new(),
            parent: Vec::new(),
            rounds_run: 0,
            converged_at: None,
            settled: false,
            max_changed: 0,
        };
        if target.is_some_and(|t| dist[t as usize] == 0.0) {
            out.settled = true;
            out.dist = dist;
            out.parent = parent;
            return out;
        }
        for round in 1..=max_hops {
            ledger.step(2 * view.num_edges() as u64 + n as u64);
            let updates: Vec<Option<Candidate>> = (0..n)
                .map(|v| {
                    let mut best: Option<Candidate> = None;
                    view.for_each_neighbor(v as VId, |u, w, tag| {
                        let du = dist[u as usize];
                        if du == INF || du + w >= dist[v] {
                            return;
                        }
                        let pe = ParentEdge {
                            parent: u,
                            weight: w,
                            tag,
                        };
                        let cand = (du + w, pe);
                        best = Some(best.map_or(cand, |cur| min_candidate(cur, cand)));
                    });
                    best
                })
                .collect();
            let mut changed = 0usize;
            let mut min_changed = INF;
            for (v, up) in updates.into_iter().enumerate() {
                if let Some((nd, pe)) = up {
                    dist[v] = nd;
                    parent[v] = Some(pe);
                    changed += 1;
                    min_changed = min_changed.min(nd);
                }
            }
            out.max_changed = out.max_changed.max(changed);
            out.rounds_run = round;
            if changed == 0 {
                out.converged_at = Some(round);
                break;
            }
            if let Some(t) = target {
                let dt = dist[t as usize];
                if dt.is_finite() && min_changed >= dt {
                    out.settled = true;
                    break;
                }
            }
        }
        out.dist = dist;
        out.parent = parent;
        out
    }

    fn assert_same_bits(a: &[Weight], b: &[Weight], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (v, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: dist[{v}]");
        }
    }

    /// Full rows, scratch reuse, and early-exit p2p on every target, each
    /// against the dense reference: distance bits, parents, round counts
    /// and ledgers.
    fn assert_matches_dense(exec: &Executor, view: &UnionView<'_>, sources: &[VId], hops: usize) {
        let what = format!("sources={sources:?} hops={hops} threads={}", exec.threads());
        let mut ld = Ledger::new();
        let dense = dense_reference(view, sources, None, hops, &mut ld);
        let mut lf = Ledger::new();
        let fr = bellman_ford(exec, view, sources, hops, &mut lf);
        assert_same_bits(&fr.dist, &dense.dist, &what);
        assert_eq!(fr.parent, dense.parent, "{what}");
        assert_eq!(fr.rounds_run, dense.rounds_run, "{what}");
        assert_eq!(fr.converged_at, dense.converged_at, "{what}");
        assert_eq!(lf, ld, "{what}");
        for t in 0..view.num_vertices() as VId {
            let mut ldt = Ledger::new();
            let dt = dense_reference(view, sources, Some(t), hops, &mut ldt);
            let mut lt = Ledger::new();
            let p2p = bellman_ford_to(exec, view, sources, t, hops, &mut lt);
            assert_eq!(
                p2p.dist.to_bits(),
                dt.dist[t as usize].to_bits(),
                "{what} t={t}"
            );
            assert_eq!(p2p.rounds_run, dt.rounds_run, "{what} t={t}");
            assert_eq!(
                p2p.settled_early,
                dt.settled || dt.converged_at.is_some(),
                "{what} t={t}"
            );
            assert_eq!(lt, ldt, "{what} t={t}");
        }
    }

    /// Scratch reuse across single sources, each against the dense
    /// reference.
    fn assert_scratch_reuse_matches_dense(exec: &Executor, view: &UnionView<'_>, hops: usize) {
        let mut scratch = BfordScratch::new();
        let n = view.num_vertices() as VId;
        for src in [0, n / 2, n - 1, 1, 0] {
            let mut l = Ledger::new();
            let (rounds, conv) = bellman_ford_into(exec, view, &[src], hops, &mut l, &mut scratch);
            let mut ld = Ledger::new();
            let dense = dense_reference(view, &[src], None, hops, &mut ld);
            let what = format!("src={src} hops={hops}");
            assert_same_bits(scratch.dist(), &dense.dist, &what);
            assert_eq!(scratch.parent(), &dense.parent[..], "{what}");
            assert_eq!(
                (rounds, conv),
                (dense.rounds_run, dense.converged_at),
                "{what}"
            );
            assert_eq!(l, ld, "{what}");
        }
    }

    /// Deterministic pseudo-random overlay: `k` long-range edges, plus a
    /// copy of every 7th base edge at equal weight (a base/overlay tie the
    /// layer key must break).
    fn random_overlay(g: &Graph, k: usize, seed: u64) -> Vec<(VId, VId, Weight)> {
        let n = g.num_vertices() as u64;
        let mut x = seed;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let mut extra = Vec::new();
        while extra.len() < k {
            let (u, v) = ((next() % n) as VId, (next() % n) as VId);
            if u != v {
                extra.push((u, v, 1.0 + (next() % 16) as Weight));
            }
        }
        for u in (0..n as VId).step_by(7) {
            if let Some((v, w)) = g.neighbors(u).next() {
                extra.push((u, v, w));
            }
        }
        extra
    }

    #[test]
    fn hop_limit_respected() {
        // square: 0-1-2-3 light path, 0-3 heavy chord
        let g =
            Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 10.0)]).unwrap();
        let view = UnionView::base_only(&g);
        let mut l = Ledger::new();
        let r1 = bellman_ford(&exec(), &view, &[0], 1, &mut l);
        assert_eq!(r1.dist[3], 10.0);
        let r3 = bellman_ford(&exec(), &view, &[0], 3, &mut l);
        assert_eq!(r3.dist[3], 3.0);
        assert_eq!(r3.hops_to(3), Some(3));
    }

    #[test]
    fn matches_sequential_reference() {
        let g = gen::gnm_connected(100, 300, 9, 1.0, 6.0);
        let view = UnionView::base_only(&g);
        for hops in [1, 2, 5, 100] {
            let mut l = Ledger::new();
            let par = bellman_ford(&exec(), &view, &[0], hops, &mut l);
            let seq = exact::bellman_ford_hops(&view, &[0], hops);
            assert_eq!(par.dist, seq, "hops={hops}");
        }
    }

    #[test]
    fn multi_source() {
        let g = gen::path(9);
        let view = UnionView::base_only(&g);
        let mut l = Ledger::new();
        let r = bellman_ford(&exec(), &view, &[0, 8], 10, &mut l);
        assert_eq!(r.dist[4], 4.0);
        assert_eq!(r.dist[6], 2.0);
    }

    #[test]
    fn convergence_detection() {
        let g = gen::path(5);
        let view = UnionView::base_only(&g);
        let mut l = Ledger::new();
        let r = bellman_ford(&exec(), &view, &[0], 100, &mut l);
        // path of 4 edges converges after round 5 sees no change
        assert_eq!(r.converged_at, Some(5));
        assert_eq!(r.rounds_run, 5);
    }

    #[test]
    fn overlay_edges_take_part_and_are_tagged() {
        let g = gen::path(5); // 0-1-2-3-4
        let extra = vec![(0u32, 4u32, 1.5)];
        let view = UnionView::with_extra(&g, &extra);
        let mut l = Ledger::new();
        let r = bellman_ford(&exec(), &view, &[0], 2, &mut l);
        assert_eq!(r.dist[4], 1.5);
        let pe = r.parent[4].unwrap();
        assert_eq!(pe.tag, EdgeTag::Extra(0));
        assert_eq!(pe.parent, 0);
    }

    #[test]
    fn parent_tree_is_consistent() {
        let g = gen::gnm_connected(80, 240, 4, 1.0, 4.0);
        let view = UnionView::base_only(&g);
        let mut l = Ledger::new();
        let r = bellman_ford(&exec(), &view, &[7], 80, &mut l);
        for v in 0..80u32 {
            if v == 7 {
                assert!(r.parent[v as usize].is_none());
                continue;
            }
            let pe = r.parent[v as usize].expect("connected");
            // dist[v] == dist[parent] + w  (tree realizes the distances)
            let expect = r.dist[pe.parent as usize] + pe.weight;
            assert!((r.dist[v as usize] - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn ledger_charges_per_round() {
        let g = gen::path(4);
        let view = UnionView::base_only(&g);
        let mut l = Ledger::new();
        let r = bellman_ford(&exec(), &view, &[0], 2, &mut l);
        assert_eq!(r.rounds_run, 2);
        assert_eq!(l.depth(), 2);
        assert_eq!(l.work(), 2 * (2 * 3 + 4));
    }

    #[test]
    fn unreachable_stays_infinite() {
        let g = Graph::from_edges(4, [(0, 1, 1.0)]).unwrap();
        let view = UnionView::base_only(&g);
        let mut l = Ledger::new();
        let r = bellman_ford(&exec(), &view, &[0], 10, &mut l);
        assert_eq!(r.dist[2], INF);
        assert_eq!(r.hops_to(2), None);
    }

    /// The settle criterion: early-exit p2p answers are bit-identical to
    /// the full run's target entry, across graphs, sources, targets and
    /// hop budgets.
    #[test]
    fn target_early_exit_bit_identical_to_full_run() {
        for seed in [3u64, 9, 21] {
            let g = gen::gnm_connected(90, 270, seed, 1.0, 8.0);
            let view = UnionView::base_only(&g);
            for hops in [1usize, 3, 8, 90] {
                let mut lf = Ledger::new();
                let full = bellman_ford(&exec(), &view, &[5], hops, &mut lf);
                for target in [0u32, 5, 44, 89] {
                    let mut lt = Ledger::new();
                    let p2p = bellman_ford_to(&exec(), &view, &[5], target, hops, &mut lt);
                    assert_eq!(
                        p2p.dist.to_bits(),
                        full.dist[target as usize].to_bits(),
                        "seed={seed} hops={hops} target={target}"
                    );
                    assert!(p2p.rounds_run <= full.rounds_run);
                }
            }
        }
    }

    /// A nearby target settles long before the hop budget runs out.
    #[test]
    fn target_early_exit_actually_cuts_rounds() {
        let g = gen::path(64); // 0-1-...-63
        let view = UnionView::base_only(&g);
        let mut l = Ledger::new();
        let r = bellman_ford_to(&exec(), &view, &[0], 3, 64, &mut l);
        assert_eq!(r.dist, 3.0);
        assert!(r.settled_early);
        // Settling needs the frontier to pass the target: a handful of
        // rounds, not 64.
        assert!(r.rounds_run < 10, "rounds_run={}", r.rounds_run);
        // The ledger reflects the rounds actually run.
        assert_eq!(l.depth(), r.rounds_run as u64);
    }

    /// target ∈ sources: label 0.0 is final before any round runs.
    #[test]
    fn target_is_source_settles_at_round_zero() {
        let g = gen::path(8);
        let view = UnionView::base_only(&g);
        let mut l = Ledger::new();
        let r = bellman_ford_to(&exec(), &view, &[2], 2, 8, &mut l);
        assert_eq!(r.dist.to_bits(), 0.0f64.to_bits());
        assert_eq!(r.rounds_run, 0);
        assert!(r.settled_early);
        assert_eq!(l.depth(), 0);
    }

    /// An unreachable target never settles early (short of convergence)
    /// and reports INF, like the full run.
    #[test]
    fn unreachable_target_matches_full_run() {
        let g = Graph::from_edges(4, [(0, 1, 1.0)]).unwrap();
        let view = UnionView::base_only(&g);
        let mut l = Ledger::new();
        let r = bellman_ford_to(&exec(), &view, &[0], 3, 10, &mut l);
        assert_eq!(r.dist, INF);
        assert!(r.settled_early); // via whole-exploration convergence
    }

    /// Scratch reuse: back-to-back explorations through one scratch give
    /// the same bits as fresh runs (no state leaks between requests).
    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_runs() {
        let g = gen::gnm_connected(70, 210, 13, 1.0, 6.0);
        let view = UnionView::base_only(&g);
        let mut scratch = BfordScratch::new();
        for src in [0u32, 33, 69, 7] {
            let mut l1 = Ledger::new();
            let (rounds, conv) =
                bellman_ford_into(&exec(), &view, &[src], 70, &mut l1, &mut scratch);
            let mut l2 = Ledger::new();
            let fresh = bellman_ford(&exec(), &view, &[src], 70, &mut l2);
            assert_eq!(rounds, fresh.rounds_run, "src={src}");
            assert_eq!(conv, fresh.converged_at);
            for (a, b) in scratch.dist().iter().zip(&fresh.dist) {
                assert_eq!(a.to_bits(), b.to_bits(), "src={src}");
            }
            assert_eq!(scratch.parent(), &fresh.parent[..]);
            assert_eq!(l1, l2);
        }
    }

    /// The frontier engine against the dense pull on every graph family,
    /// source shape and hop budget the serving plane produces.
    #[test]
    fn frontier_engine_matches_dense_reference() {
        let gnm = gen::gnm_connected(90, 270, 11, 1.0, 6.0);
        let road = gen::road_grid(9, 10, 4, 1.0, 4.0);
        let road_extra = random_overlay(&road, 24, 17);
        // Unit weights: distance ties everywhere, so parents come from
        // the tie-break key.
        let unit = gen::unit_grid(8, 8);
        let unit_extra = random_overlay(&unit, 12, 5);
        let path = gen::path(40);
        let split = Graph::from_edges(
            12,
            [
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 0, 2.5),
                (3, 4, 1.0),
                (4, 5, 1.0),
            ],
        )
        .unwrap();
        let views = [
            UnionView::base_only(&gnm),
            UnionView::with_extra(&road, &road_extra),
            UnionView::with_extra(&unit, &unit_extra),
            UnionView::base_only(&path),
            UnionView::base_only(&split),
        ];
        let exec = exec();
        for view in &views {
            let n = view.num_vertices();
            let last = (n - 1) as VId;
            let source_sets: [&[VId]; 5] = [&[0], &[3, 3], &[0, 1], &[last, 0, 5, 0], &[4, 5, 6]];
            for sources in source_sets {
                for hops in [0, 1, 3, n] {
                    assert_matches_dense(&exec, view, sources, hops);
                }
            }
            for hops in [1, 3, n] {
                assert_scratch_reuse_matches_dense(&exec, view, hops);
            }
        }
    }

    /// Rounds whose changed lists cross `PAR_THRESHOLD` push in chunks on
    /// the pool; the merged result is the dense reference's at every
    /// thread count.
    #[test]
    fn chunked_push_matches_dense_reference_at_every_thread_count() {
        let g = gen::gnm_connected(20_000, 60_000, 5, 1.0, 8.0);
        let extra = random_overlay(&g, 2_000, 9);
        let view = UnionView::with_extra(&g, &extra);
        let sources: Vec<VId> = (0..16).map(|i| i * 1_237).collect();
        for hops in [6, 20_000] {
            let mut ld = Ledger::new();
            let dense = dense_reference(&view, &sources, None, hops, &mut ld);
            assert!(
                dense.max_changed >= crate::pool::PAR_THRESHOLD,
                "instance must cross PAR_THRESHOLD, max changed {}",
                dense.max_changed
            );
            for threads in [1, 2, 4, 8] {
                let exec = Executor::shared(threads);
                let mut l = Ledger::new();
                let r = bellman_ford(&exec, &view, &sources, hops, &mut l);
                let what = format!("hops={hops} threads={threads}");
                assert_same_bits(&r.dist, &dense.dist, &what);
                assert_eq!(r.parent, dense.parent, "{what}");
                assert_eq!(r.rounds_run, dense.rounds_run, "{what}");
                assert_eq!(r.converged_at, dense.converged_at, "{what}");
                assert_eq!(l, ld, "{what}");
                let t = 19_999;
                let mut lt = Ledger::new();
                let mut ldt = Ledger::new();
                let p2p = bellman_ford_to(&exec, &view, &sources, t, hops, &mut lt);
                let dt = dense_reference(&view, &sources, Some(t), hops, &mut ldt);
                assert_eq!(p2p.dist.to_bits(), dt.dist[t as usize].to_bits(), "{what}");
                assert_eq!(p2p.rounds_run, dt.rounds_run, "{what}");
                assert_eq!(lt, ldt, "{what}");
            }
        }
    }

    /// Executed work follows the changed set: on a path every vertex
    /// changes once, so the whole exploration reads each adjacency list
    /// about once. A dense round loop would read `rounds · 2m` entries.
    #[test]
    fn scanned_follows_the_frontier() {
        let g = gen::path(4096);
        let view = UnionView::base_only(&g);
        let m = g.num_edges() as u64;
        let mut scratch = BfordScratch::new();
        let mut l = Ledger::new();
        let (rounds, conv) = bellman_ford_into(&exec(), &view, &[0], 4096, &mut l, &mut scratch);
        assert_eq!(conv, Some(rounds));
        assert!(
            scratch.scanned() <= 2 * (2 * m),
            "scanned {} entries, dense would read {}",
            scratch.scanned(),
            rounds as u64 * 2 * m
        );
        // The ledger still charges the dense PRAM round.
        assert_eq!(l.work(), rounds as u64 * (2 * m + 4096));
    }
}
