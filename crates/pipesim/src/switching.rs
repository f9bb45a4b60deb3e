//! State-switching cost models (§4.4).
//!
//! Applying a new work partition reassigns layers between workers. The
//! straw-man pauses training: drain the in-flight mini-batches, move the
//! weights (every stashed version), restart and re-fill the pipeline
//! (Figure 2's startup state all over again). AutoPipe instead migrates
//! layer by layer, "migrating the weight copy of later active mini-batch
//! first", so the pipeline keeps flowing and only the two affected workers
//! can stall — and only when a migration outruns the slack the in-flight
//! mini-batches provide.

use ap_cluster::{ClusterState, GpuId};
use ap_ir::ScheduleKind;
use ap_models::ModelProfile;

use crate::partition::Partition;
use crate::sync::worker_bandwidth;

/// Fixed software overhead per layer migrated ("the cost of making
/// numerous PCIe calls to send the data", §4.4).
pub const PER_LAYER_CALL_OVERHEAD: f64 = 50e-6;

/// What has to move to go from one partition to another.
#[derive(Debug, Clone)]
pub struct SwitchPlan {
    /// Layers whose owning worker set changes.
    pub moved_layers: Vec<usize>,
    /// Workers whose task assignment changes.
    pub affected_workers: Vec<GpuId>,
    /// Total bytes to migrate: parameters of moved layers times the number
    /// of stashed weight versions.
    pub transfer_bytes: f64,
    /// Stashed weight copies per moved layer under the outgoing schedule
    /// (one per active mini-batch for async schedules, one for flush
    /// schedules).
    pub stashed_versions: usize,
}

/// One step of a fine-grained migration: move stashed weight copy
/// `version` of `layer` to its new owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationStep {
    /// The layer being migrated.
    pub layer: usize,
    /// Weight-stash version index, `0..stashed_versions`; higher versions
    /// serve later-injected (more recently active) mini-batches.
    pub version: usize,
}

impl SwitchPlan {
    /// Diff two partitions over the same model.
    pub fn between(
        old: &Partition,
        new: &Partition,
        profile: &ModelProfile,
        schedule: ScheduleKind,
    ) -> SwitchPlan {
        let n_layers = profile.n_layers();
        debug_assert!(old.validate(n_layers).is_ok() && new.validate(n_layers).is_ok());
        let versions = schedule.weight_versions(old.in_flight) as f64;
        let mut moved = Vec::new();
        let mut bytes = 0.0;
        let mut affected = std::collections::BTreeSet::new();
        for layer in 0..n_layers {
            // Invariant: a partition that passes `validate(n_layers)` covers
            // `0..n_layers` with no gaps (PartitionError::{Gap, Coverage}
            // otherwise), so every layer resolves to a stage.
            let so = old.stage_of_layer(layer).expect("old covers model");
            let sn = new.stage_of_layer(layer).expect("new covers model");
            let wo = &old.stages[so].workers;
            let wn = &new.stages[sn].workers;
            if wo != wn {
                moved.push(layer);
                bytes += profile.param_bytes[layer] * versions;
                affected.extend(wo.iter().copied());
                affected.extend(wn.iter().copied());
            }
        }
        SwitchPlan {
            moved_layers: moved,
            affected_workers: affected.into_iter().collect(),
            transfer_bytes: bytes,
            stashed_versions: versions as usize,
        }
    }

    /// True when nothing moves (identical assignments).
    pub fn is_noop(&self) -> bool {
        self.moved_layers.is_empty()
    }

    /// The §4.4 migration order: layer by layer (input side first), and
    /// within each layer "migrating the weight copy of later active
    /// mini-batch first" — the stashed copy serving the most recently
    /// injected mini-batch (highest version) moves before older copies, so
    /// the weights needed soonest on the new owner arrive first and the
    /// in-flight mini-batches can keep draining on the old assignment.
    pub fn migration_order(&self) -> Vec<MigrationStep> {
        let mut steps = Vec::with_capacity(self.moved_layers.len() * self.stashed_versions);
        for &layer in &self.moved_layers {
            for version in (0..self.stashed_versions).rev() {
                steps.push(MigrationStep { layer, version });
            }
        }
        steps
    }

    /// The rollback order when a migration aborts (a source or destination
    /// worker fails) after `completed` steps of
    /// [`SwitchPlan::migration_order`] have executed: the dual of the §4.4
    /// forward order. Touched layers revert in *reverse* migration order
    /// (the most recently started layer first, unwinding the pipeline from
    /// the point of failure back), and within each layer the later active
    /// mini-batch's copy reverts first — exactly as it moved, so the stash
    /// versions the draining mini-batches need soonest are restored first.
    pub fn rollback_order(&self, completed: usize) -> Vec<MigrationStep> {
        let steps = self.migration_order();
        let done = &steps[..completed.min(steps.len())];
        let mut layers: Vec<usize> = Vec::new();
        for s in done {
            if layers.last() != Some(&s.layer) {
                layers.push(s.layer);
            }
        }
        let mut out = Vec::with_capacity(done.len());
        for &layer in layers.iter().rev() {
            // The completed prefix already lists each layer's versions in
            // descending order (later active mini-batch first).
            out.extend(done.iter().filter(|s| s.layer == layer).copied());
        }
        out
    }

    /// Seconds to push the weights over the network and PCIe.
    pub fn raw_transfer_time(&self, state: &ClusterState) -> f64 {
        if self.is_noop() {
            return 0.0;
        }
        let net_bw = self
            .affected_workers
            .iter()
            .map(|&w| worker_bandwidth(w, state))
            .fold(f64::INFINITY, f64::min);
        let pcie = self
            .affected_workers
            .iter()
            .map(|&w| state.topology.gpu(w).kind.pcie_bytes_per_sec())
            .fold(f64::INFINITY, f64::min);
        self.transfer_bytes / net_bw
            + self.transfer_bytes / pcie
            + PER_LAYER_CALL_OVERHEAD * self.moved_layers.len() as f64
    }
}

/// Cost of the straw-man stop-and-restart switch: drain every in-flight
/// mini-batch, transfer while idle, then pay the pipeline fill again.
pub fn stop_restart_cost(
    plan: &SwitchPlan,
    iteration_time: f64,
    partition: &Partition,
    state: &ClusterState,
) -> f64 {
    if plan.is_noop() {
        return 0.0;
    }
    let drain = partition.in_flight as f64 * iteration_time;
    let transfer = plan.raw_transfer_time(state);
    let refill = (partition.n_stages().saturating_sub(1)) as f64 * iteration_time;
    drain + transfer + refill
}

/// Cost of AutoPipe's fine-grained layer-by-layer switch: migration
/// overlaps the pipeline's in-flight slack; only the residual stalls the
/// two affected workers.
pub fn fine_grained_cost(
    plan: &SwitchPlan,
    iteration_time: f64,
    partition: &Partition,
    state: &ClusterState,
) -> f64 {
    if plan.is_noop() {
        return 0.0;
    }
    let transfer = plan.raw_transfer_time(state);
    // Weight stashing keeps (in_flight - 1) mini-batches of work buffered
    // ahead of the affected stages; migration hides behind it.
    let slack = (partition.in_flight.saturating_sub(1)) as f64 * iteration_time;
    let stall = (transfer - slack).max(0.0);
    // Affected workers re-prime their stage once: one stage's share of an
    // iteration, not a full pipeline refill.
    let reprime = iteration_time / partition.n_stages() as f64;
    stall + reprime + PER_LAYER_CALL_OVERHEAD * plan.moved_layers.len() as f64
}

/// Cost of aborting a fine-grained migration `progress` (in `[0, 1]`) of
/// the way through and rolling it back: the copies made so far move back
/// over the same links, the already-touched layers pay their call overhead
/// again, and the affected workers re-prime once.
pub fn abort_rollback_cost(
    plan: &SwitchPlan,
    iteration_time: f64,
    partition: &Partition,
    state: &ClusterState,
    progress: f64,
) -> f64 {
    if plan.is_noop() {
        return 0.0;
    }
    let p = progress.clamp(0.0, 1.0);
    let undo = p * plan.raw_transfer_time(state);
    let touched = (p * plan.moved_layers.len() as f64).ceil();
    let reprime = iteration_time / partition.n_stages() as f64;
    undo + reprime + PER_LAYER_CALL_OVERHEAD * touched
}

/// Price of recovering from a mid-migration failure: the cheaper of
/// rolling the partial migration back ([`abort_rollback_cost`]) and
/// abandoning fine-grained switching for a stop-restart from wherever the
/// migration stopped ([`stop_restart_cost`]). Both outcomes are priced so
/// the controller's retry policy can reason about the worst case.
pub fn abort_recovery_cost(
    plan: &SwitchPlan,
    iteration_time: f64,
    partition: &Partition,
    state: &ClusterState,
    progress: f64,
) -> f64 {
    let rollback = abort_rollback_cost(plan, iteration_time, partition, state, progress);
    let restart = stop_restart_cost(plan, iteration_time, partition, state);
    rollback.min(restart)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Stage;
    use ap_cluster::gpu::GpuKind;
    use ap_cluster::ClusterTopology;
    use ap_models::{synthetic_uniform, ModelProfile};

    fn setup() -> (ClusterState, ModelProfile) {
        let topo = ClusterTopology::single_switch(4, 1, GpuKind::P100, 25.0);
        let model = synthetic_uniform(8, 1e9, 4e6, 16e6);
        (
            ClusterState::new(topo),
            ModelProfile::with_batch(&model, 32),
        )
    }

    fn part(split: usize) -> Partition {
        Partition {
            stages: vec![
                Stage::new(0..split, vec![GpuId(0)]),
                Stage::new(split..8, vec![GpuId(1)]),
            ],
            in_flight: 2,
        }
    }

    #[test]
    fn identical_partitions_are_noop() {
        let (st, p) = setup();
        let plan = SwitchPlan::between(&part(4), &part(4), &p, ScheduleKind::PipeDreamAsync);
        assert!(plan.is_noop());
        assert_eq!(stop_restart_cost(&plan, 0.1, &part(4), &st), 0.0);
        assert_eq!(fine_grained_cost(&plan, 0.1, &part(4), &st), 0.0);
    }

    #[test]
    fn boundary_shift_moves_exactly_the_shifted_layers() {
        let (_, p) = setup();
        let plan = SwitchPlan::between(&part(4), &part(6), &p, ScheduleKind::PipeDreamAsync);
        assert_eq!(plan.moved_layers, vec![4, 5]);
        assert_eq!(plan.affected_workers, vec![GpuId(0), GpuId(1)]);
        // 2 layers x 16 MB params x 2 stashed versions.
        assert!((plan.transfer_bytes - 2.0 * 16e6 * 2.0).abs() < 1.0);
    }

    #[test]
    fn stashed_versions_multiply_traffic() {
        let (_, p) = setup();
        let a = SwitchPlan::between(&part(4), &part(5), &p, ScheduleKind::PipeDreamAsync);
        let b = SwitchPlan::between(
            &part(4),
            &part(5),
            &p,
            ScheduleKind::Dapple { micro_batches: 4 },
        );
        // Async stashes in_flight=2 versions, sync keeps 1.
        assert!((a.transfer_bytes / b.transfer_bytes - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fine_grained_is_much_cheaper_than_stop_restart() {
        let (st, p) = setup();
        let plan = SwitchPlan::between(&part(4), &part(5), &p, ScheduleKind::PipeDreamAsync);
        let iter = 0.2;
        let naive = stop_restart_cost(&plan, iter, &part(4), &st);
        let fine = fine_grained_cost(&plan, iter, &part(4), &st);
        assert!(
            fine < naive / 3.0,
            "fine-grained {fine} should be well below stop-restart {naive}"
        );
        // Stop-restart always pays at least drain + refill.
        assert!(naive >= 3.0 * iter);
    }

    #[test]
    fn large_migrations_eventually_stall_even_fine_grained() {
        let (st, _) = setup();
        let model = synthetic_uniform(8, 1e9, 4e6, 4e9); // 4 GB per layer
        let p = ModelProfile::with_batch(&model, 32);
        let plan = SwitchPlan::between(&part(4), &part(6), &p, ScheduleKind::PipeDreamAsync);
        let fine = fine_grained_cost(&plan, 0.05, &part(4), &st);
        // 16 GB over ~3 GB/s of 25 Gbps: seconds of stall remain.
        assert!(fine > 1.0, "huge weights must stall: {fine}");
    }

    /// §4.4 pinning test: layer-by-layer migration follows the weight
    /// stash — for every moved layer, the copy of the *later* active
    /// mini-batch (the newest stashed version) moves first, and layers go
    /// out in pipeline order.
    #[test]
    fn migration_order_moves_later_minibatch_copy_first() {
        let (_, p) = setup();
        // Boundary shift 4 -> 6 moves layers 4 and 5; PipeDreamAsync with
        // in_flight=2 stashes 2 weight versions per layer.
        let plan = SwitchPlan::between(&part(4), &part(6), &p, ScheduleKind::PipeDreamAsync);
        assert_eq!(plan.stashed_versions, 2);
        let steps = plan.migration_order();
        assert_eq!(
            steps,
            vec![
                MigrationStep {
                    layer: 4,
                    version: 1
                },
                MigrationStep {
                    layer: 4,
                    version: 0
                },
                MigrationStep {
                    layer: 5,
                    version: 1
                },
                MigrationStep {
                    layer: 5,
                    version: 0
                },
            ]
        );
        // Within every layer, versions are strictly descending (later
        // active mini-batch's copy first), whatever the stash depth.
        let deep = Partition {
            in_flight: 5,
            ..part(4)
        };
        let plan = SwitchPlan::between(&deep, &part(6), &p, ScheduleKind::PipeDreamAsync);
        assert_eq!(plan.stashed_versions, 5);
        for pair in plan.migration_order().windows(2) {
            if pair[0].layer == pair[1].layer {
                assert!(pair[0].version > pair[1].version, "{pair:?}");
            }
        }
        // Flush schedules keep a single version: one step per moved layer.
        let flush = SwitchPlan::between(
            &part(4),
            &part(6),
            &p,
            ScheduleKind::Dapple { micro_batches: 4 },
        );
        assert_eq!(flush.stashed_versions, 1);
        assert_eq!(flush.migration_order().len(), flush.moved_layers.len());
        // A no-op plan migrates nothing.
        assert!(
            SwitchPlan::between(&part(4), &part(4), &p, ScheduleKind::PipeDreamAsync)
                .migration_order()
                .is_empty()
        );
    }

    /// Rollback pinning test: the dual of the §4.4 forward order — layers
    /// unwind most-recently-migrated first, and within each layer the
    /// later active mini-batch's copy (highest stash version) reverts
    /// first.
    #[test]
    fn rollback_order_is_the_dual_of_the_forward_order() {
        let (_, p) = setup();
        let plan = SwitchPlan::between(&part(4), &part(6), &p, ScheduleKind::PipeDreamAsync);
        // Forward order: [4v1, 4v0, 5v1, 5v0]. Abort after 3 steps: layer
        // 5 (only v1 copied) unwinds first, then layer 4's two copies,
        // later mini-batch's copy first within each layer.
        let rb = plan.rollback_order(3);
        assert_eq!(
            rb,
            vec![
                MigrationStep {
                    layer: 5,
                    version: 1
                },
                MigrationStep {
                    layer: 4,
                    version: 1
                },
                MigrationStep {
                    layer: 4,
                    version: 0
                },
            ]
        );
        // Versions descend within every layer, whatever the abort point.
        for completed in 0..=plan.migration_order().len() {
            let rb = plan.rollback_order(completed);
            assert_eq!(rb.len(), completed);
            for pair in rb.windows(2) {
                if pair[0].layer == pair[1].layer {
                    assert!(pair[0].version > pair[1].version, "{pair:?}");
                }
            }
        }
        // Nothing completed -> nothing to undo; over-reporting saturates.
        assert!(plan.rollback_order(0).is_empty());
        assert_eq!(
            plan.rollback_order(usize::MAX).len(),
            plan.migration_order().len()
        );
    }

    #[test]
    fn abort_costs_grow_with_progress_and_never_exceed_stop_restart() {
        let (st, p) = setup();
        let plan = SwitchPlan::between(&part(4), &part(6), &p, ScheduleKind::PipeDreamAsync);
        let iter = 0.2;
        let early = abort_rollback_cost(&plan, iter, &part(4), &st, 0.1);
        let late = abort_rollback_cost(&plan, iter, &part(4), &st, 0.9);
        assert!(late > early, "undoing more copies must cost more");
        let recovery = abort_recovery_cost(&plan, iter, &part(4), &st, 0.9);
        let restart = stop_restart_cost(&plan, iter, &part(4), &st);
        assert!(recovery <= restart + 1e-12);
        assert!(recovery <= late + 1e-12);
        // A no-op plan aborts for free.
        let noop = SwitchPlan::between(&part(4), &part(4), &p, ScheduleKind::PipeDreamAsync);
        assert_eq!(abort_rollback_cost(&noop, iter, &part(4), &st, 0.5), 0.0);
    }

    #[test]
    fn raw_transfer_time_scales_with_bandwidth() {
        let (_, p) = setup();
        let plan = SwitchPlan::between(&part(4), &part(5), &p, ScheduleKind::PipeDreamAsync);
        let slow = ClusterState::new(ClusterTopology::single_switch(4, 1, GpuKind::P100, 10.0));
        let fast = ClusterState::new(ClusterTopology::single_switch(4, 1, GpuKind::P100, 100.0));
        assert!(plan.raw_transfer_time(&slow) > plan.raw_transfer_time(&fast));
    }
}
