//! Algorithm 2: parallel limited BFS explorations in the virtual cluster
//! graph `G̃_i`, simulated by hop- and distance-bounded label propagation in
//! `G_{k-1} = (V, E ∪ H_{k-1})` (Appendix A).
//!
//! Two clusters are neighbors in `G̃_i` iff
//! `d^{(2β+1)}_{G_{k-1}}(C, C') ≤ (1+ε_{k-1})·δ_i`. One *pulse* simulates
//! one hop of `G̃_i`: distribute cluster knowledge to members, propagate
//! `2β+1` steps through `G_{k-1}`, aggregate back into clusters.
//!
//! The two variants the construction uses (Appendix A.3):
//!
//! * [`Explorer::detect_neighbors`] — `d = 1`, `x ≥ 1`: every cluster learns
//!   its `x` nearest neighboring clusters (popularity detection, Lemma A.3,
//!   and the phase-ℓ interconnection);
//! * [`Explorer::bfs`] — `x = 1`, `d ≥ 1`: a multi-source BFS in `G̃_i`
//!   (Lemma A.4 / Corollary A.5) used for supercluster formation and for the
//!   ruling-set knock-outs.
//!
//! Execution: the explorer carries an explicit [`Executor`] handle (the
//! persistent pool of `pram::pool`); every propagation step is one parallel
//! round on it. Callers also pass an [`ExploreScratch`] down with the
//! executor: the label table is a flat [`LabelArena`] (one `n·x` slot
//! buffer + length array — see DESIGN.md §8) and the changed-flag double
//! buffer lives beside it, both reused across pulses, ruling-set levels,
//! and phases. The pulse inner loop allocates **nothing per vertex**: each
//! parallel chunk reuses one candidate buffer plus one
//! [`ReduceScratch`], the reduction works in place — a one-pass minimum
//! selection at `x = 1` (every [`Explorer::bfs`] pulse), the packed-key
//! sort at `x ≥ 2` — and reduced lists are written back into the arena's
//! fixed per-vertex regions. In path-free mode the candidate loop is
//! **column-shaped** (three plain `src`/`dist`/`pw` columns, no
//! per-candidate branch on the label kind) so the relaxation arithmetic
//! autovectorizes; pulse rounds use the executor's autotuned bounds
//! (`round_bounds_auto`), switching to fine chunks + donation when the
//! changed-vertex frontier is skewed.
//!
//! Edge provenance: overlay adjacency entries carry **global** hopset edge
//! ids directly (the scale-block CSRs of `pgraph::OverlayCsrBuilder` tag
//! them so), which is what [`crate::path::MemEdge::Hop`] records — no
//! overlay-to-global side table.
//!
//! Determinism: every per-vertex/per-cluster reduction uses the total order
//! of Algorithm 3 (see [`crate::label::reduce_labels_in_place_scratch`]);
//! propagation is double-buffered (reads see only the previous step — the
//! CREW discipline of §1.5.1), so results are identical for any thread
//! count.
//!
//! Early exit: propagation stops once no label list changes. This computes
//! the fixpoint `d^{(h*)}` for some `h* ≤` the hop budget; allowing *more*
//! hops than `2β+1` only shrinks measured distances, which enlarges `G̃_i`
//! monotonically — every coverage lemma (2.4, A.3, A.4) only needs the
//! paper's `G̃_i` to be a *subgraph* of the one actually used, and the
//! stretch analysis only needs recorded distances to be realizable, which
//! fixpoint distances are. (The hop budget still caps every exploration.)

use crate::label::{
    labels_equal, reduce_labels_columns, reduce_labels_in_place_scratch, Label, LabelArena,
    ReduceScratch,
};
use crate::partition::{ClusterMemory, Partition};
use crate::path::{path_extend, path_splice, path_start, MemEdge, PathHandle};
use pgraph::{EdgeTag, UnionView, VId, Weight};
use pram::{prim, Executor, Ledger};

/// Length sentinel for "vertex not recomputed this step".
const SKIP: u32 = u32::MAX;

/// Caller-owned scratch for the exploration engine: the flat label arena
/// and the double-buffered changed flags. One instance serves any number of
/// [`Explorer::detect_neighbors`] / [`Explorer::bfs`] calls (on graphs of
/// any size — buffers are resized on demand and retain their allocations),
/// so the hot construction loop allocates these once per scale instead of
/// once per pulse.
#[derive(Default)]
pub struct ExploreScratch {
    /// `labels.labels(v)`: up to `x` records sorted by `(dist, src)`.
    labels: LabelArena,
    /// Vertices whose label list changed in the previous step.
    changed: Vec<bool>,
    /// Write buffer for the current step's changed flags.
    next_changed: Vec<bool>,
}

impl ExploreScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear to the all-empty state for `n` lists of capacity `x`, keeping
    /// allocations.
    fn reset(&mut self, n: usize, x: usize) {
        self.labels.reset(n, x);
        self.changed.clear();
        self.changed.resize(n, false);
        self.next_changed.clear();
        self.next_changed.resize(n, false);
    }
}

/// A configured exploration engine for one phase of one scale.
pub struct Explorer<'a> {
    /// The executor the propagation rounds run on.
    pub exec: &'a Executor,
    /// The exploration graph `G_{k-1}`. Overlay entries must carry global
    /// hopset edge ids in their [`EdgeTag::Extra`] tags (scale-block CSRs
    /// and `all_slice()`-derived views both do).
    pub view: &'a UnionView<'a>,
    /// The clusters `P_i`.
    pub part: &'a Partition,
    /// Cluster memory (CP/CD arrays of §4.3).
    pub cm: &'a ClusterMemory,
    /// Distance threshold `(1+ε_{k-1})·δ_i`.
    pub threshold: Weight,
    /// Hop budget per pulse (`2β+1`, capped — see `HopsetParams::hop_limit`).
    pub hop_limit: usize,
    /// Record realized paths (path-reporting mode, §4.3).
    pub record_paths: bool,
}

/// Result of the BFS variant for one cluster.
#[derive(Clone, Debug)]
pub struct Detection {
    /// Cluster index (within `P_i`) of the originating source.
    pub src_cluster: u32,
    /// Center id of the originating source.
    pub src_center: VId,
    /// Pulse at which this cluster was detected (0 for sources themselves).
    pub pulse: usize,
    /// Realized path weight from the source center to this cluster's center.
    pub pw: Weight,
    /// The realized path (source center → this center), when recording.
    pub path: Option<PathHandle>,
}

impl<'a> Explorer<'a> {
    fn mem_edge(&self, tag: EdgeTag) -> MemEdge {
        match tag {
            EdgeTag::Base => MemEdge::Base,
            EdgeTag::Extra(i) => MemEdge::Hop(i),
        }
    }

    /// Charge one propagation step: the paper's accounting is `O(log n)`
    /// depth with `O((|E|+|H_{k-1}|)·x)` processors per step (Lemma A.3).
    fn charge_step(&self, x: usize, ledger: &mut Ledger) {
        let n = self.view.num_vertices() as u64;
        let m = 2 * self.view.num_edges() as u64;
        let logn = pgraph::ceil_log2(self.view.num_vertices().max(2)) as u64;
        ledger.steps(logn.max(1), (m + n) * x as u64);
    }

    /// Seed label for member `v` of cluster `c` given the cluster-level
    /// record `(src_center, dist, pw, path-ending-at-center)`: the member
    /// extends the record by its center → v cluster-memory detour.
    fn seed_member(
        &self,
        v: VId,
        src_center: VId,
        dist: Weight,
        pw: Weight,
        center_path: Option<&PathHandle>,
    ) -> Label {
        let path = if self.record_paths {
            let base = match center_path {
                Some(p) => p.clone(),
                None => path_start(src_center),
            };
            // center → v is the reverse of CP(v) = v → center.
            Some(path_splice(&base, self.cm.path_of(v), true))
        } else {
            None
        };
        Label {
            src: src_center,
            dist,
            pw: pw + self.cm.weight[v as usize],
            path,
        }
    }

    /// Lift a vertex-level label at `v` to cluster level: append the
    /// v → center detour (dist unchanged — cluster distance is the min over
    /// members, Lemma A.3's `m(C)` semantics).
    fn lift_to_cluster(&self, v: VId, label: &Label) -> Label {
        Label {
            src: label.src,
            dist: label.dist,
            pw: label.pw + self.cm.weight[v as usize],
            path: if self.record_paths {
                Some(path_splice(
                    label.path.as_ref().expect("path recorded"),
                    self.cm.path_of(v),
                    false,
                ))
            } else {
                None
            },
        }
    }

    /// One chunk of a propagation step, **path-recording** variant: the
    /// candidate loop materializes full [`Label`] records (each neighbor
    /// relaxation extends a path handle) and reduces them with
    /// [`reduce_labels_in_place_scratch`] through a per-chunk
    /// [`ReduceScratch`].
    fn relax_chunk_paths(
        &self,
        r: std::ops::Range<usize>,
        cur: &LabelArena,
        prev_changed: &[bool],
        x: usize,
    ) -> (Vec<u32>, Vec<Label>) {
        let mut lens: Vec<u32> = Vec::with_capacity(r.len());
        let mut out: Vec<Label> = Vec::new();
        let mut cands: Vec<Label> = Vec::new();
        let mut scratch = ReduceScratch::new();
        for v in r {
            let vid = v as VId;
            let mut any = false;
            self.view.for_each_neighbor(vid, |u, _, _| {
                any |= prev_changed[u as usize];
            });
            if !any {
                lens.push(SKIP);
                continue;
            }
            cands.clear();
            cands.extend_from_slice(cur.labels(v));
            self.view.for_each_neighbor(vid, |u, w, tag| {
                for l in cur.labels(u as usize) {
                    let nd = l.dist + w;
                    if nd > self.threshold {
                        continue;
                    }
                    cands.push(Label {
                        src: l.src,
                        dist: nd,
                        pw: l.pw + w,
                        path: Some(path_extend(
                            l.path.as_ref().expect("path recorded"),
                            vid,
                            self.mem_edge(tag),
                            w,
                        )),
                    });
                }
            });
            reduce_labels_in_place_scratch(&mut cands, x, &mut scratch);
            lens.push(cands.len() as u32);
            out.append(&mut cands);
        }
        (lens, out)
    }

    /// One chunk of a propagation step, **path-free** fast path: the
    /// candidate loop accumulates three plain columns (`src`, `dist`,
    /// `pw`) — no 32-byte record writes, no per-candidate branch on the
    /// label kind (the `record_paths` decision is hoisted to the chunk
    /// dispatch) — and reduces them with [`reduce_labels_columns`].
    /// Survivor lists are ≤ `x` long, so re-materializing them as arena
    /// records afterwards is off the critical loop. Results are pinned
    /// bit-identical to the path-recording variant's `(src, dist, pw)`
    /// projection (`flat_fast_path_matches_path_recording` below).
    fn relax_chunk_flat(
        &self,
        r: std::ops::Range<usize>,
        cur: &LabelArena,
        prev_changed: &[bool],
        x: usize,
    ) -> (Vec<u32>, Vec<Label>) {
        let mut lens: Vec<u32> = Vec::with_capacity(r.len());
        let mut out: Vec<Label> = Vec::new();
        let mut srcs: Vec<VId> = Vec::new();
        let mut dists: Vec<Weight> = Vec::new();
        let mut pws: Vec<Weight> = Vec::new();
        let mut scratch = ReduceScratch::new();
        for v in r {
            let vid = v as VId;
            let mut any = false;
            self.view.for_each_neighbor(vid, |u, _, _| {
                any |= prev_changed[u as usize];
            });
            if !any {
                lens.push(SKIP);
                continue;
            }
            srcs.clear();
            dists.clear();
            pws.clear();
            for l in cur.labels(v) {
                srcs.push(l.src);
                dists.push(l.dist);
                pws.push(l.pw);
            }
            self.view.for_each_neighbor(vid, |u, w, _tag| {
                for l in cur.labels(u as usize) {
                    let nd = l.dist + w;
                    if nd <= self.threshold {
                        srcs.push(l.src);
                        dists.push(nd);
                        pws.push(l.pw + w);
                    }
                }
            });
            reduce_labels_columns(&mut srcs, &mut dists, &mut pws, x, &mut scratch);
            lens.push(srcs.len() as u32);
            out.extend(
                srcs.iter()
                    .zip(dists.iter())
                    .zip(pws.iter())
                    .map(|((&s, &d), &p)| Label {
                        src: s,
                        dist: d,
                        pw: p,
                        path: None,
                    }),
            );
        }
        (lens, out)
    }

    /// Propagate `scratch.labels` to a fixpoint (≤ `hop_limit` steps),
    /// each step one parallel round on `self.exec`. The changed-flag
    /// double buffer lives in the scratch too. Per step, each chunk
    /// produces one flat `(lens, labels)` buffer pair (no per-vertex
    /// vectors), which is then compared against — and moved into — the
    /// arena's fixed regions in vertex order.
    fn propagate(&self, scratch: &mut ExploreScratch, x: usize, ledger: &mut Ledger) {
        let n = self.view.num_vertices();
        let ExploreScratch {
            labels,
            changed,
            next_changed,
        } = scratch;
        debug_assert_eq!(labels.num_lists(), n);
        for (v, c) in changed.iter_mut().enumerate() {
            *c = labels.len_of(v) > 0;
        }
        for _step in 0..self.hop_limit {
            // Autotuned bounds: later pulses typically touch a shrinking
            // frontier (few `changed` vertices do real work), which skews
            // per-chunk cost. The fine split hands the executor more
            // chunks than threads so its claim counter can donate
            // trailing chunks to early finishers; `active` is computed
            // from the data, so the fine/coarse choice is deterministic.
            let active = changed.iter().filter(|&&c| c).count();
            if active == 0 {
                break;
            }
            self.charge_step(x, ledger);
            let bounds = self.exec.round_bounds_auto(n, active);
            let cur = &*labels;
            let prev_changed = &*changed;
            // Recompute v iff some neighbor changed last step. One output
            // buffer pair per chunk; `SKIP` marks untouched vertices.
            let chunks: Vec<(Vec<u32>, Vec<Label>)> = self.exec.run_chunks(&bounds, |r| {
                if self.record_paths {
                    self.relax_chunk_paths(r, cur, prev_changed, x)
                } else {
                    self.relax_chunk_flat(r, cur, prev_changed, x)
                }
            });
            // Apply: one pass per chunk — compare each new list against the
            // arena (the iterator's unconsumed slice), set the fixpoint
            // flag, then move it into the arena's region (overwriting a
            // list with equal content is a no-op for every later read).
            for b in next_changed.iter_mut() {
                *b = false;
            }
            for (ci, (lens, out)) in chunks.into_iter().enumerate() {
                let mut items = out.into_iter();
                for (off, &len) in lens.iter().enumerate() {
                    if len == SKIP {
                        continue;
                    }
                    let v = bounds[ci].start + off;
                    let new = &items.as_slice()[..len as usize];
                    if !labels_equal(new, labels.labels(v)) {
                        next_changed[v] = true;
                    }
                    labels.set_list(v, items.by_ref().take(len as usize));
                }
            }
            std::mem::swap(changed, next_changed);
        }
    }

    /// The `d = 1`, `x ≥ 1` variant (Lemma A.3): every cluster of `P_i`
    /// starts an exploration; afterwards `m(C)` holds up to `x` records —
    /// the nearest `x` clusters (including `C` itself at distance 0).
    ///
    /// * If the list is full (`len_of(c) ≥ x`), `C` has at least `x − 1`
    ///   neighbors (popular when `x = deg_i + 1`).
    /// * Otherwise `m(C)` lists *all* neighbors of `C` with their
    ///   `d^{(2β+1)}`-distances.
    ///
    /// Returns the per-cluster arrays `m(·)` as an owned [`LabelArena`]
    /// over cluster indices.
    pub fn detect_neighbors(
        &self,
        x: usize,
        scratch: &mut ExploreScratch,
        ledger: &mut Ledger,
    ) -> LabelArena {
        let n = self.view.num_vertices();
        scratch.reset(n, x);
        // Distribution: every member of every cluster seeds its own record.
        ledger.step(n as u64 * x as u64);
        for cl in self.part.clusters.iter() {
            for &v in &cl.members {
                let l = self.seed_member(v, cl.center, 0.0, 0.0, None);
                scratch.labels.push(v as usize, l);
            }
        }
        self.propagate(scratch, x, ledger);
        // Aggregation: fold member labels into m(C), chunked like the
        // propagate rounds (one buffer pair per chunk, no per-cluster Vec).
        ledger.sort(n as u64 * x as u64);
        let nc = self.part.len();
        let mut m = LabelArena::new();
        m.reset(nc, x);
        let labels = &scratch.labels;
        let bounds = self.exec.round_bounds(nc);
        let chunks: Vec<(Vec<u32>, Vec<Label>)> = self.exec.run_chunks(&bounds, |r| {
            let mut lens: Vec<u32> = Vec::with_capacity(r.len());
            let mut out: Vec<Label> = Vec::new();
            let mut cands: Vec<Label> = Vec::new();
            let mut scratch = ReduceScratch::new();
            for ci in r {
                let cl = &self.part.clusters[ci];
                cands.clear();
                for &v in &cl.members {
                    for l in labels.labels(v as usize) {
                        cands.push(self.lift_to_cluster(v, l));
                    }
                }
                reduce_labels_in_place_scratch(&mut cands, x, &mut scratch);
                lens.push(cands.len() as u32);
                out.append(&mut cands);
            }
            (lens, out)
        });
        for (ci, (lens, out)) in chunks.into_iter().enumerate() {
            let mut items = out.into_iter();
            for (off, &len) in lens.iter().enumerate() {
                m.set_list(bounds[ci].start + off, items.by_ref().take(len as usize));
            }
        }
        m
    }

    /// The `x = 1`, `d ≥ 1` variant (Lemma A.4 / Corollary A.5): a BFS to
    /// depth `pulses` in `G̃_i` from the clusters `sources`. Returns, per
    /// cluster of `P_i`, the detection record (sources detect themselves at
    /// pulse 0). Each pulse re-seeds from every detected cluster with a
    /// fresh hop/distance budget, exactly matching the pulse semantics of
    /// Appendix A.2; the label arena is reset (not reallocated) per pulse.
    pub fn bfs(
        &self,
        sources: &[u32],
        pulses: usize,
        scratch: &mut ExploreScratch,
        ledger: &mut Ledger,
    ) -> Vec<Option<Detection>> {
        let n = self.view.num_vertices();
        let nc = self.part.len();
        let mut det: Vec<Option<Detection>> = vec![None; nc];
        for &s in sources {
            let center = self.part.center(s);
            det[s as usize] = Some(Detection {
                src_cluster: s,
                src_center: center,
                pulse: 0,
                pw: 0.0,
                path: self.record_paths.then(|| path_start(center)),
            });
        }
        for pulse in 1..=pulses {
            // Distribute: members of every detected cluster carry the
            // origin's identity onward with a fresh per-pulse budget.
            scratch.reset(n, 1);
            ledger.step(n as u64);
            for (ci, cl) in self.part.clusters.iter().enumerate() {
                let Some(d) = &det[ci] else { continue };
                for &v in &cl.members {
                    let l = self.seed_member(v, d.src_center, 0.0, d.pw, d.path.as_ref());
                    scratch.labels.push(v as usize, l);
                }
            }
            self.propagate(scratch, 1, ledger);
            // Aggregate: undetected clusters reached this pulse are detected
            // by the best record (min by (dist, src) — deterministic).
            ledger.sort(n as u64);
            let mut newly = 0usize;
            let labels = &scratch.labels;
            let updates: Vec<Option<Detection>> = prim::par_map_range(self.exec, nc, |ci| {
                if det[ci].is_some() {
                    return None;
                }
                let cl = &self.part.clusters[ci];
                let mut best: Option<(Label, VId)> = None;
                for &v in &cl.members {
                    for l in labels.labels(v as usize) {
                        let better = match &best {
                            None => true,
                            Some((b, bv)) => {
                                (l.dist.to_bits(), l.src, l.pw.to_bits(), v)
                                    < (b.dist.to_bits(), b.src, b.pw.to_bits(), *bv)
                            }
                        };
                        if better {
                            best = Some((l.clone(), v));
                        }
                    }
                }
                best.map(|(l, v)| {
                    let lifted = self.lift_to_cluster(v, &l);
                    Detection {
                        src_cluster: self
                            .part
                            .index_of_center(lifted.src)
                            .expect("source is a cluster center"),
                        src_center: lifted.src,
                        pulse,
                        pw: lifted.pw,
                        path: lifted.path,
                    }
                })
            });
            for (ci, u) in updates.into_iter().enumerate() {
                if let Some(d) = u {
                    det[ci] = Some(d);
                    newly += 1;
                }
            }
            if newly == 0 {
                break; // BFS saturated: later pulses cannot reach more.
            }
        }
        det
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{HopsetParams, ParamMode};
    use pgraph::{gen, Graph};

    fn exploration_setup(g: &Graph) -> (UnionView<'_>, Partition, ClusterMemory) {
        let view = UnionView::base_only(g);
        let part = Partition::singletons(g.num_vertices());
        let cm = ClusterMemory::trivial(g.num_vertices(), false);
        (view, part, cm)
    }

    fn exec() -> Executor {
        Executor::shared(2)
    }

    #[test]
    fn detect_neighbors_on_path() {
        // Path 0-1-2-3-4, unit weights, threshold 1.5: neighbors are exactly
        // the adjacent vertices.
        let g = gen::path(5);
        let (view, part, cm) = exploration_setup(&g);
        let exec = exec();
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 1.5,
            hop_limit: 8,
            record_paths: false,
        };
        let mut led = Ledger::new();
        let mut scratch = ExploreScratch::new();
        let m = ex.detect_neighbors(10, &mut scratch, &mut led);
        // Vertex 0: itself + neighbor 1.
        let srcs0: Vec<VId> = m.labels(0).iter().map(|l| l.src).collect();
        assert_eq!(srcs0, vec![0, 1]);
        // Vertex 2: itself + 1 + 3.
        let srcs2: Vec<VId> = m.labels(2).iter().map(|l| l.src).collect();
        assert_eq!(srcs2, vec![2, 1, 3]);
        assert_eq!(m.labels(2)[1].dist, 1.0);
        assert!(led.work() > 0);
    }

    #[test]
    fn threshold_and_hops_bound_reach() {
        let g = gen::path(6);
        let (view, part, cm) = exploration_setup(&g);
        let exec = exec();
        // Distance threshold 10 but only 2 hops: reach 2 vertices away.
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 10.0,
            hop_limit: 2,
            record_paths: false,
        };
        let mut led = Ledger::new();
        let mut scratch = ExploreScratch::new();
        let m = ex.detect_neighbors(10, &mut scratch, &mut led);
        let srcs0: Vec<VId> = m.labels(0).iter().map(|l| l.src).collect();
        assert_eq!(srcs0, vec![0, 1, 2]);
    }

    #[test]
    fn x_truncates_to_nearest() {
        let g = gen::star(6); // center 0
        let (view, part, cm) = exploration_setup(&g);
        let exec = exec();
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 3.0,
            hop_limit: 4,
            record_paths: false,
        };
        let mut led = Ledger::new();
        let mut scratch = ExploreScratch::new();
        let m = ex.detect_neighbors(3, &mut scratch, &mut led);
        // Leaf 1 sees itself (0), center (1.0), then the other leaves (2.0):
        // with x = 3 keep self, center, and the smallest-id leaf.
        let l1: Vec<(VId, Weight)> = m.labels(1).iter().map(|l| (l.src, l.dist)).collect();
        assert_eq!(l1, vec![(1, 0.0), (0, 1.0), (2, 2.0)]);
    }

    #[test]
    fn bfs_detects_in_pulse_order() {
        // Path with unit weights; threshold 1.5 makes G̃ the same path.
        let g = gen::path(6);
        let (view, part, cm) = exploration_setup(&g);
        let exec = exec();
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 1.5,
            hop_limit: 4,
            record_paths: false,
        };
        let mut led = Ledger::new();
        let mut scratch = ExploreScratch::new();
        let det = ex.bfs(&[0], 3, &mut scratch, &mut led);
        let pulses: Vec<Option<usize>> = det.iter().map(|d| d.as_ref().map(|x| x.pulse)).collect();
        assert_eq!(pulses, vec![Some(0), Some(1), Some(2), Some(3), None, None]);
        assert!(det.iter().flatten().all(|d| d.src_center == 0));
    }

    #[test]
    fn bfs_multi_source_takes_nearest_origin() {
        let g = gen::path(7);
        let (view, part, cm) = exploration_setup(&g);
        let exec = exec();
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 1.5,
            hop_limit: 4,
            record_paths: false,
        };
        let mut led = Ledger::new();
        let mut scratch = ExploreScratch::new();
        let det = ex.bfs(&[0, 6], 10, &mut scratch, &mut led);
        assert_eq!(det[2].as_ref().unwrap().src_center, 0);
        assert_eq!(det[4].as_ref().unwrap().src_center, 6);
        // Midpoint 3: equal pulse from both sides → smaller center id wins.
        assert_eq!(det[3].as_ref().unwrap().src_center, 0);
    }

    #[test]
    fn bfs_early_exits_when_saturated() {
        let g = Graph::from_edges(4, [(0, 1, 1.0)]).unwrap(); // 2,3 isolated
        let (view, part, cm) = exploration_setup(&g);
        let exec = exec();
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 5.0,
            hop_limit: 4,
            record_paths: false,
        };
        let mut led = Ledger::new();
        let mut scratch = ExploreScratch::new();
        let det = ex.bfs(&[0], 1000, &mut scratch, &mut led);
        assert!(det[1].is_some());
        assert!(det[2].is_none());
        assert!(det[3].is_none());
    }

    #[test]
    fn paths_recorded_and_consistent() {
        let g = gen::path(5);
        let view = UnionView::base_only(&g);
        let part = Partition::singletons(5);
        let cm = ClusterMemory::trivial(5, true);
        let exec = exec();
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 3.5,
            hop_limit: 8,
            record_paths: true,
        };
        let mut led = Ledger::new();
        let mut scratch = ExploreScratch::new();
        let m = ex.detect_neighbors(10, &mut scratch, &mut led);
        // Record for source 3 at cluster 0 must carry a real 3→0 path.
        let rec = m
            .labels(0)
            .iter()
            .find(|l| l.src == 3)
            .expect("3 within 3.5");
        assert_eq!(rec.dist, 3.0);
        assert_eq!(rec.pw, 3.0);
        let mp = crate::path::path_materialize(rec.path.as_ref().unwrap());
        assert_eq!(mp.verts, vec![3, 2, 1, 0]);
        assert!((mp.weight() - rec.pw).abs() < 1e-9);
    }

    #[test]
    fn clustered_partition_uses_cluster_distances() {
        // Clusters {0,1} centered 0 and {3,4} centered 4, bridge 1-2-3;
        // cluster distance = d(1,3) = 2 < d(0,4) = 4.
        let g = gen::path(5);
        let view = UnionView::base_only(&g);
        let part = Partition {
            cluster_of: vec![Some(0), Some(0), None, Some(1), Some(1)],
            clusters: vec![
                crate::partition::Cluster {
                    center: 0,
                    members: vec![0, 1],
                },
                crate::partition::Cluster {
                    center: 4,
                    members: vec![3, 4],
                },
            ],
        };
        assert!(part.validate(5));
        let cm = ClusterMemory::trivial(5, false);
        let exec = exec();
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 2.5,
            hop_limit: 8,
            record_paths: false,
        };
        let mut led = Ledger::new();
        let mut scratch = ExploreScratch::new();
        let m = ex.detect_neighbors(5, &mut scratch, &mut led);
        // m for cluster 0 sees cluster 4 at distance 2 (via members 1 and 3).
        let rec = m
            .labels(0)
            .iter()
            .find(|l| l.src == 4)
            .expect("cluster neighbor");
        assert_eq!(rec.dist, 2.0);
    }

    #[test]
    fn flat_fast_path_matches_path_recording() {
        // The column-shaped fast path (record_paths = false) and the
        // path-recording loop are separate implementations of the same
        // pulse; their (src, dist, pw) projections must be bit-identical
        // on every vertex. This pins the SIMD-shaped rewrite to the
        // reference semantics end to end, not just per reduction call.
        let g = gen::gnm_connected(80, 220, 13, 1.0, 4.0);
        let view = UnionView::base_only(&g);
        let part = Partition::singletons(g.num_vertices());
        let run = |record_paths: bool| {
            let cm = ClusterMemory::trivial(g.num_vertices(), record_paths);
            let exec = Executor::shared(2);
            let ex = Explorer {
                exec: &exec,
                view: &view,
                part: &part,
                cm: &cm,
                threshold: 5.0,
                hop_limit: 12,
                record_paths,
            };
            let mut led = Ledger::new();
            let mut scratch = ExploreScratch::new();
            ex.detect_neighbors(6, &mut scratch, &mut led)
        };
        let flat = run(false);
        let with_paths = run(true);
        for (v, (a, b)) in flat.iter_lists().zip(with_paths.iter_lists()).enumerate() {
            assert!(labels_equal(a, b), "vertex {v} diverged");
            assert!(a.iter().all(|l| l.path.is_none()));
            assert!(b.iter().all(|l| l.path.is_some()));
        }
    }

    /// Run [`Explorer::bfs`] and [`crate::ruling::ruling_set`] over every
    /// cluster on one explorer configuration; the x = 1 surfaces the
    /// end-to-end pins below compare.
    fn bfs_and_ruling(
        g: &Graph,
        threads: usize,
        record_paths: bool,
        sources: &[u32],
    ) -> (Vec<Option<Detection>>, Ledger, Vec<u32>, Ledger) {
        let view = UnionView::base_only(g);
        let part = Partition::singletons(g.num_vertices());
        let cm = ClusterMemory::trivial(g.num_vertices(), record_paths);
        let exec = Executor::shared(threads);
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 2.5,
            hop_limit: 12,
            record_paths,
        };
        let mut scratch = ExploreScratch::new();
        let mut bfs_led = Ledger::new();
        let det = ex.bfs(sources, 6, &mut scratch, &mut bfs_led);
        let w: Vec<u32> = (0..part.len() as u32).collect();
        let mut ruling_led = Ledger::new();
        let q = crate::ruling::ruling_set(&ex, &w, &mut scratch, &mut ruling_led, None);
        (det, bfs_led, q, ruling_led)
    }

    /// Detections agree on every paper-visible field (`pw` bit-exact).
    fn assert_same_detections(a: &[Option<Detection>], b: &[Option<Detection>], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}");
        for (c, (x, y)) in a.iter().zip(b).enumerate() {
            match (x, y) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(
                        (x.src_cluster, x.src_center, x.pulse, x.pw.to_bits()),
                        (y.src_cluster, y.src_center, y.pulse, y.pw.to_bits()),
                        "{ctx}: cluster {c}"
                    );
                }
                _ => panic!("{ctx}: detection presence differs at cluster {c}"),
            }
        }
    }

    #[test]
    fn bfs_flat_fast_path_matches_path_recording() {
        // The x = 1 counterpart of `flat_fast_path_matches_path_recording`:
        // the BFS pulses (and the ruling-set knock-outs built on them)
        // reduce every list at x = 1, through the column path without
        // paths and through the record path with them. Both must detect
        // the same clusters from the same origins at the same pulses, with
        // identical ledgers; recorded paths must run origin → cluster.
        // Unit weights make candidates tie on (src, dist, pw).
        for (lo, hi) in [(1.0, 4.0), (1.0, 1.0)] {
            let g = gen::gnm_connected(80, 220, 13, lo, hi);
            let sources = [0u32, 17, 42];
            let (flat, fl, fq, frl) = bfs_and_ruling(&g, 2, false, &sources);
            let (paths, pl, pq, prl) = bfs_and_ruling(&g, 2, true, &sources);
            let ctx = format!("weights {lo}..{hi}");
            assert_same_detections(&flat, &paths, &ctx);
            assert_eq!(fl, pl, "{ctx}: bfs ledger");
            assert_eq!(fq, pq, "{ctx}: ruling set");
            assert_eq!(frl, prl, "{ctx}: ruling ledger");
            assert!(flat.iter().flatten().all(|d| d.path.is_none()));
            for (c, d) in paths.iter().enumerate() {
                let Some(d) = d else { continue };
                let mp = crate::path::path_materialize(d.path.as_ref().expect("recorded"));
                assert_eq!(mp.start(), d.src_center, "{ctx}: cluster {c}");
                assert_eq!(mp.end(), c as VId, "{ctx}: cluster {c}");
                assert!((mp.weight() - d.pw).abs() < 1e-9, "{ctx}: cluster {c}");
            }
        }
    }

    #[test]
    fn bfs_and_ruling_set_identical_across_thread_counts() {
        // `determinism_across_thread_counts` covers detect_neighbors; this
        // sweeps the x = 1 engine. n is above `PAR_THRESHOLD`, so the
        // propagate rounds really split into chunks.
        let g = gen::gnm_connected(4_500, 9_000, 4, 1.0, 3.0);
        let sources = [0u32, 1_234, 2_500, 4_499];
        for record_paths in [false, true] {
            let (d1, bl1, q1, rl1) = bfs_and_ruling(&g, 1, record_paths, &sources);
            assert!(q1.len() > 1, "ruling set must be non-trivial");
            for threads in [2usize, 4, 8] {
                let (d, bl, q, rl) = bfs_and_ruling(&g, threads, record_paths, &sources);
                let ctx = format!("threads={threads} paths={record_paths}");
                assert_same_detections(&d1, &d, &ctx);
                if record_paths {
                    for (x, y) in d1.iter().flatten().zip(d.iter().flatten()) {
                        let (px, py) = (x.path.as_ref().unwrap(), y.path.as_ref().unwrap());
                        assert_eq!(
                            crate::path::path_materialize(px),
                            crate::path::path_materialize(py),
                            "{ctx}"
                        );
                    }
                }
                assert_eq!(bl, bl1, "{ctx}: bfs ledger");
                assert_eq!(q, q1, "{ctx}: ruling set");
                assert_eq!(rl, rl1, "{ctx}: ruling ledger");
            }
        }
    }

    #[test]
    fn determinism_across_thread_counts() {
        // The engine's reductions are order-independent, so full label
        // tables must be identical whatever the executor's thread count —
        // here actually varied by constructing explorers over executors of
        // different sizes (not just run twice at one count).
        let g = gen::gnm_connected(60, 150, 2, 1.0, 3.0);
        let (view, part, cm) = exploration_setup(&g);
        let run = |threads: usize| {
            let exec = Executor::shared(threads);
            let ex = Explorer {
                exec: &exec,
                view: &view,
                part: &part,
                cm: &cm,
                threshold: 4.0,
                hop_limit: 10,
                record_paths: false,
            };
            let mut l = Ledger::new();
            let mut scratch = ExploreScratch::new();
            (ex.detect_neighbors(4, &mut scratch, &mut l), l)
        };
        let (a, l1) = run(1);
        for threads in [2usize, 4, 8] {
            let (b, l) = run(threads);
            for (x, y) in a.iter_lists().zip(b.iter_lists()) {
                assert!(labels_equal(x, y), "threads={threads}");
            }
            assert_eq!(l, l1);
        }
    }

    #[test]
    fn scratch_reuse_is_observably_identical() {
        // One scratch carried across calls (the hot-loop pattern) must give
        // the same answers as a fresh scratch per call.
        let g = gen::gnm_connected(40, 100, 5, 1.0, 3.0);
        let (view, part, cm) = exploration_setup(&g);
        let exec = exec();
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 3.0,
            hop_limit: 8,
            record_paths: false,
        };
        let mut reused = ExploreScratch::new();
        for x in [2usize, 5, 3] {
            let mut l1 = Ledger::new();
            let mut l2 = Ledger::new();
            let with_reuse = ex.detect_neighbors(x, &mut reused, &mut l1);
            let fresh = ex.detect_neighbors(x, &mut ExploreScratch::new(), &mut l2);
            for (a, b) in with_reuse.iter_lists().zip(fresh.iter_lists()) {
                assert!(labels_equal(a, b), "x={x}");
            }
            assert_eq!(l1, l2, "x={x}");
            // And the BFS variant, interleaved on the same scratch.
            let mut l3 = Ledger::new();
            let mut l4 = Ledger::new();
            let d1 = ex.bfs(&[0, 7], 4, &mut reused, &mut l3);
            let d2 = ex.bfs(&[0, 7], 4, &mut ExploreScratch::new(), &mut l4);
            for (a, b) in d1.iter().zip(&d2) {
                match (a, b) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        assert_eq!((x.src_cluster, x.pulse), (y.src_cluster, y.pulse));
                        assert_eq!(x.pw.to_bits(), y.pw.to_bits());
                    }
                    _ => panic!("detection presence mismatch"),
                }
            }
            assert_eq!(l3, l4);
        }
    }

    #[test]
    fn params_integrate_with_explorer() {
        let p = HopsetParams::new(64, 0.25, 4, 0.3, ParamMode::Practical, 64.0, None).unwrap();
        assert!(p.hop_limit <= 64);
        assert!(p.degrees[0] >= 2);
    }
}
