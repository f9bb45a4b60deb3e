//! AutoPipe's incremental move generator (§4.2, "New worker partition").
//!
//! "We limit the new partition solution to only change the two workers'
//! tasks in comparison to the old one ... 1) The enumeration space is
//! reduced, and the time complexity is only O(L²); 2) The change involving
//! just two workers can be done without interrupting the pipeline."
//!
//! Two move families keep the two-worker property:
//!
//! * **boundary shifts** — move the cut between two adjacent stages by any
//!   number of layers (affects only those stages' workers), and
//! * **replica migration** — move one worker from a replicated stage to an
//!   adjacent stage (affects the moved worker and, through the changed
//!   sync group, its old stage).

use std::ops::Range;

use ap_cluster::ClusterState;
use ap_pipesim::{
    AnalyticModel, EditStage, EditWorkers, Partition, Replicas, SpanEdit, StageTable,
};

/// One incremental move from a base partition: a descriptor that says
/// everything needed to build the candidate ([`MoveKind::apply`]) or to
/// price it against the base's stage table without building it
/// ([`MoveKind::throughput`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// Cut between stage `s` and `s+1` moved; positive = stage `s` grew.
    BoundaryShift {
        /// Left stage of the boundary.
        stage: usize,
        /// Signed layer delta.
        delta: i64,
    },
    /// The last worker of `from` moved to the end of `to` (adjacent
    /// stages).
    ReplicaMigration {
        /// Source stage.
        from: usize,
        /// Destination stage.
        to: usize,
    },
    /// Stages `left` and `left + 1` fused into one replicated stage.
    /// (Extension beyond the paper's strict two-worker moves: merging
    /// replicated stages touches more workers, which the switching-cost
    /// model prices accordingly; chains of merges let AutoPipe "gradually
    /// migrate to the optimal" across stage counts.)
    MergeStages {
        /// Left stage of the merged pair.
        left: usize,
    },
    /// Stage `stage` split into two at layer `cut`, its first
    /// `left_replicas` workers going left and the rest right.
    SplitStage {
        /// The stage that was split.
        stage: usize,
        /// First layer of the new right stage.
        cut: usize,
        /// Replicas kept by the left stage.
        left_replicas: usize,
    },
    /// Replica `index` evicted from `stage` (failure recovery: a degraded
    /// or dead GPU throttles its whole round-robin stage, so shedding it
    /// can win outright).
    DropWorker {
        /// The stage the worker left.
        stage: usize,
        /// The worker's position in the stage's replica list.
        index: usize,
    },
}

impl MoveKind {
    /// This move as an edit of `base`'s stages: which consecutive stages
    /// it replaces, by which one or two new ones, at which depth. Every
    /// move but a boundary shift resets the depth to the candidate's
    /// [`Partition::default_in_flight`].
    pub fn edit<'w>(&self, base: &'w Partition) -> SpanEdit<'w> {
        let stages = &base.stages;
        let new = |layers: Range<usize>, workers| EditStage { layers, workers };
        let (first, last, edited) = match *self {
            MoveKind::BoundaryShift { stage, delta } => {
                let boundary = (stages[stage].layers.end as i64 + delta) as usize;
                let (a, b) = (&stages[stage], &stages[stage + 1]);
                (
                    stage,
                    stage + 1,
                    (
                        new(a.layers.start..boundary, EditWorkers::Base(stage)),
                        Some(new(boundary..b.layers.end, EditWorkers::Base(stage + 1))),
                    ),
                )
            }
            MoveKind::ReplicaMigration { from, to } => {
                let donor = &stages[from].workers;
                let (moved, kept) = donor.split_last().expect("donor keeps a worker");
                let kept = Replicas::of(kept);
                let grown = Replicas::joined(&stages[to].workers, std::slice::from_ref(moved));
                let (left, (wa, wb)) = if from < to {
                    (from, (kept, grown))
                } else {
                    (to, (grown, kept))
                };
                let (a, b) = (&stages[left], &stages[left + 1]);
                (
                    left,
                    left + 1,
                    (
                        new(a.layers.clone(), EditWorkers::New(wa)),
                        Some(new(b.layers.clone(), EditWorkers::New(wb))),
                    ),
                )
            }
            MoveKind::MergeStages { left } => {
                let (a, b) = (&stages[left], &stages[left + 1]);
                let workers = Replicas::joined(&a.workers, &b.workers);
                (
                    left,
                    left + 1,
                    (
                        new(a.layers.start..b.layers.end, EditWorkers::New(workers)),
                        None,
                    ),
                )
            }
            MoveKind::SplitStage {
                stage,
                cut,
                left_replicas,
            } => {
                let st = &stages[stage];
                let (wa, wb) = st.workers.split_at(left_replicas);
                (
                    stage,
                    stage,
                    (
                        new(st.layers.start..cut, EditWorkers::New(Replicas::of(wa))),
                        Some(new(cut..st.layers.end, EditWorkers::New(Replicas::of(wb)))),
                    ),
                )
            }
            MoveKind::DropWorker { stage, index } => {
                let st = &stages[stage];
                let workers = Replicas::joined(&st.workers[..index], &st.workers[index + 1..]);
                (
                    stage,
                    stage,
                    (new(st.layers.clone(), EditWorkers::New(workers)), None),
                )
            }
        };
        let mut edit = SpanEdit {
            first,
            last,
            stages: edited,
            in_flight: base.in_flight,
        };
        if !matches!(self, MoveKind::BoundaryShift { .. }) {
            edit.in_flight = edit.default_depth(base);
        }
        edit
    }

    /// The candidate partition this move makes from `base`.
    pub fn apply(&self, base: &Partition) -> Partition {
        self.edit(base).apply(base)
    }

    /// Analytic throughput of [`MoveKind::apply`]`(base)`, bit for bit,
    /// priced from `table` without building the candidate. `table` must
    /// be `model`'s table of `base` in `state`.
    pub fn throughput(
        &self,
        model: &AnalyticModel<'_>,
        table: &StageTable,
        base: &Partition,
        state: &ClusterState,
    ) -> f64 {
        model.edited_throughput(table, base, &self.edit(base), state)
    }
}

/// Generate the two-worker neighborhood of `current`. Every move yields a
/// partition valid for `n_layers` that differs from `current` in at most
/// two stages' assignments.
pub fn two_worker_moves(current: &Partition, n_layers: usize) -> Vec<MoveKind> {
    debug_assert!(current.validate(n_layers).is_ok());
    let mut out = Vec::new();
    let s_count = current.n_stages();

    // Boundary shifts: O(L) positions per boundary, O(L·S) ⊆ O(L²) total.
    for s in 0..s_count.saturating_sub(1) {
        let left = &current.stages[s];
        let right = &current.stages[s + 1];
        let old = left.layers.end as i64;
        // Shift right (left grows): new boundary in (old, right.end), then
        // shift left (left shrinks): new boundary in (left.start, old).
        let grow = (left.layers.end + 1)..right.layers.end;
        let shrink = (left.layers.start + 1)..left.layers.end;
        for new_end in grow.chain(shrink) {
            let delta = new_end as i64 - old;
            out.push(MoveKind::BoundaryShift { stage: s, delta });
        }
    }

    // Replica migrations between adjacent stages (donor keeps >= 1).
    for s in 0..s_count {
        if current.stages[s].workers.len() <= 1 {
            continue;
        }
        for t in [s.wrapping_sub(1), s + 1] {
            if t < s_count {
                out.push(MoveKind::ReplicaMigration { from: s, to: t });
            }
        }
    }

    // Stage merges: fuse adjacent stages into one replicated stage.
    for s in 0..s_count.saturating_sub(1) {
        out.push(MoveKind::MergeStages { left: s });
    }

    debug_assert!(out
        .iter()
        .all(|m| m.apply(current).validate(n_layers).is_ok()));
    out
}

/// Stage splits need per-layer work to pick a balanced cut; generated
/// separately so callers without a profile can still use
/// [`two_worker_moves`].
pub fn split_moves(current: &Partition, profile: &ap_models::ModelProfile) -> Vec<MoveKind> {
    let mut out = Vec::new();
    for s in 0..current.n_stages() {
        let st = &current.stages[s];
        if st.workers.len() < 2 || st.layers.len() < 2 {
            continue;
        }
        // Candidate cuts at 1/4, 1/2 and 3/4 of the stage's work, crossed
        // with every left/right replica division — rich enough for the
        // greedy chain to escape a single-stage local optimum even when
        // the replicas are heterogeneous (the scorer picks the division
        // that isolates stragglers).
        let total = profile.range_work(st.layers.start, st.layers.end);
        let mut cuts = Vec::new();
        for frac in [0.25, 0.5, 0.75] {
            let mut cut = st.layers.start + 1;
            while cut < st.layers.end - 1 && profile.range_work(st.layers.start, cut) < total * frac
            {
                cut += 1;
            }
            if !cuts.contains(&cut) {
                cuts.push(cut);
            }
        }
        for cut in cuts {
            for left_replicas in 1..st.workers.len() {
                out.push(MoveKind::SplitStage {
                    stage: s,
                    cut,
                    left_replicas,
                });
            }
        }
    }
    debug_assert!(out
        .iter()
        .all(|m| m.apply(current).validate(profile.n_layers()).is_ok()));
    out
}

/// Reorder a stage's replica list by a caller-supplied key (e.g. effective
/// speed) so that split divisions group similar workers. Worker order
/// inside a stage does not change execution semantics (round-robin over
/// the set), only how future splits divide it.
pub fn sort_stage_workers_by<F>(partition: &mut Partition, mut key: F)
where
    F: FnMut(ap_cluster::GpuId) -> f64,
{
    for st in &mut partition.stages {
        st.workers.sort_by(|&a, &b| key(b).total_cmp(&key(a)));
    }
}

/// Eviction moves: every way to remove one replica from a stage that has
/// more than one. Unlike the other moves these shrink the worker set, so
/// they live outside [`all_moves`]; the controller adds them so it can
/// evacuate failed or heavily-degraded GPUs.
pub fn drop_moves(current: &Partition) -> Vec<MoveKind> {
    let mut out = Vec::new();
    for s in 0..current.n_stages() {
        let m = current.stages[s].workers.len();
        if m < 2 {
            continue;
        }
        for index in 0..m {
            out.push(MoveKind::DropWorker { stage: s, index });
        }
    }
    out
}

/// The full incremental neighborhood: two-worker moves plus stage splits.
pub fn all_moves(current: &Partition, profile: &ap_models::ModelProfile) -> Vec<MoveKind> {
    let mut out = two_worker_moves(current, profile.n_layers());
    out.extend(split_moves(current, profile));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_cluster::GpuId;
    use ap_pipesim::Stage;

    fn base() -> Partition {
        Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0), GpuId(1)]),
                Stage::new(4..10, vec![GpuId(2)]),
            ],
            in_flight: 2,
        }
    }

    #[test]
    fn all_candidates_are_valid_and_distinct_from_base() {
        let b = base();
        let moves = two_worker_moves(&b, 10);
        assert!(!moves.is_empty());
        for k in &moves {
            let p = k.apply(&b);
            assert!(p.validate(10).is_ok(), "{k:?}");
            assert_ne!(p, b, "{k:?} produced a no-op");
        }
    }

    #[test]
    fn boundary_shift_count_is_quadratic_not_exponential() {
        let b = base();
        let moves = two_worker_moves(&b, 10);
        let shifts = moves
            .iter()
            .filter(|k| matches!(k, MoveKind::BoundaryShift { .. }))
            .count();
        // Boundary can sit at layers 1..=9 except the current 4: 8 options.
        assert_eq!(shifts, 8);
    }

    #[test]
    fn replica_migration_respects_min_one_worker() {
        let b = base();
        let moves = two_worker_moves(&b, 10);
        let migs: Vec<_> = moves
            .iter()
            .filter(|k| matches!(k, MoveKind::ReplicaMigration { .. }))
            .collect();
        // Only stage 0 has a spare worker; it can donate to stage 1 only.
        assert_eq!(migs.len(), 1);
        let p = migs[0].apply(&b);
        assert_eq!(p.stages[0].workers.len(), 1);
        assert_eq!(p.stages[1].workers.len(), 2);
    }

    #[test]
    fn drop_moves_shed_one_replica_each() {
        let b = base();
        let drops = drop_moves(&b);
        // Stage 0 has two replicas -> two eviction candidates.
        assert_eq!(drops.len(), 2);
        for k in &drops {
            let p = k.apply(&b);
            assert!(p.validate(10).is_ok());
            assert_eq!(p.n_workers(), b.n_workers() - 1);
        }
    }

    #[test]
    fn single_stage_has_no_moves() {
        let p = Partition::single_stage(6, vec![GpuId(0), GpuId(1)]);
        // No boundaries, and migrations need an adjacent stage.
        assert!(two_worker_moves(&p, 6).is_empty());
    }

    #[test]
    fn moves_touch_at_most_two_stages() {
        let p = Partition {
            stages: vec![
                Stage::new(0..3, vec![GpuId(0)]),
                Stage::new(3..6, vec![GpuId(1), GpuId(2)]),
                Stage::new(6..9, vec![GpuId(3)]),
            ],
            in_flight: 3,
        };
        for k in two_worker_moves(&p, 9) {
            let q = k.apply(&p);
            if matches!(k, MoveKind::MergeStages { .. }) {
                // Merges change the stage count by one.
                assert_eq!(q.n_stages(), p.n_stages() - 1, "{k:?}");
                continue;
            }
            let changed = p
                .stages
                .iter()
                .zip(&q.stages)
                .filter(|(a, b)| a != b)
                .count();
            assert!(changed <= 2, "{k:?} changed {changed} stages");
        }
    }
}
