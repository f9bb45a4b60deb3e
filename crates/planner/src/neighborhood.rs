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

use ap_cluster::ClusterState;
use ap_pipesim::{AnalyticModel, PairEdit, Partition, StageTable};

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
    /// The candidate partition this move makes from `base`. Every move
    /// but a boundary shift resets the depth to the candidate's
    /// [`Partition::default_in_flight`].
    pub fn apply(&self, base: &Partition) -> Partition {
        let mut p = base.clone();
        match *self {
            MoveKind::BoundaryShift { stage, delta } => {
                let end = (base.stages[stage].layers.end as i64 + delta) as usize;
                p.stages[stage].layers.end = end;
                p.stages[stage + 1].layers.start = end;
                return p;
            }
            MoveKind::ReplicaMigration { from, to } => {
                let w = p.stages[from].workers.pop().expect("donor keeps a worker");
                p.stages[to].workers.push(w);
            }
            MoveKind::MergeStages { left } => {
                let right = p.stages.remove(left + 1);
                p.stages[left].layers.end = right.layers.end;
                p.stages[left].workers.extend(right.workers);
            }
            MoveKind::SplitStage {
                stage,
                cut,
                left_replicas,
            } => {
                let st = &base.stages[stage];
                p.stages[stage] =
                    crate::Stage::new(st.layers.start..cut, st.workers[..left_replicas].to_vec());
                p.stages.insert(
                    stage + 1,
                    crate::Stage::new(cut..st.layers.end, st.workers[left_replicas..].to_vec()),
                );
            }
            MoveKind::DropWorker { stage, index } => {
                p.stages[stage].workers.remove(index);
            }
        }
        p.in_flight = p.default_in_flight();
        p
    }

    /// Analytic throughput of [`MoveKind::apply`]`(base)`, bit for bit.
    /// `table` must be `model`'s table of `base` in `state`. Boundary
    /// shifts and replica migrations touch two adjacent stages and are
    /// priced from the table without building the candidate; merges,
    /// splits and drops change the stage count or a depth-setting replica
    /// set and are priced whole.
    pub fn throughput(
        &self,
        model: &AnalyticModel<'_>,
        table: &StageTable,
        base: &Partition,
        state: &ClusterState,
    ) -> f64 {
        match *self {
            MoveKind::BoundaryShift { stage, delta } => {
                let boundary = (base.stages[stage].layers.end as i64 + delta) as usize;
                let edit = PairEdit {
                    left: stage,
                    boundary,
                    workers: None,
                    in_flight: base.in_flight,
                };
                model.edited_throughput(table, base, &edit, state)
            }
            MoveKind::ReplicaMigration { from, to } => {
                let donor = &base.stages[from].workers;
                let (&moved, kept) = donor.split_last().expect("donor keeps a worker");
                let mut grown = base.stages[to].workers.clone();
                grown.push(moved);
                let first = match (from, to) {
                    (0, _) => kept.len(),
                    (_, 0) => grown.len(),
                    _ => base.stages[0].workers.len(),
                };
                let (left, workers) = if from < to {
                    (from, (kept, &grown[..]))
                } else {
                    (to, (&grown[..], kept))
                };
                let edit = PairEdit {
                    left,
                    boundary: base.stages[left + 1].layers.start,
                    workers: Some(workers),
                    in_flight: Partition::default_depth(base.n_workers(), base.n_stages(), first),
                };
                model.edited_throughput(table, base, &edit, state)
            }
            _ => model.throughput(&self.apply(base), state),
        }
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
