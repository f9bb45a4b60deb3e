//! Closed-form steady-state throughput model.
//!
//! Planners need thousands of partition evaluations per decision; the
//! discrete-event engine is too slow for that inner loop. This model
//! computes the steady-state iteration time of a partition under the
//! *actual* cluster state — heterogeneous per-worker bandwidth and compute,
//! PS or Ring sync, framework constants, per-schedule bubbles — in O(L + N).
//!
//! Pricing is two steps: price a row per stage and per cut, then reduce
//! the rows to an iteration time. [`AnalyticModel::throughput`] streams
//! the rows into the reduction; [`AnalyticModel::table`] keeps them as a
//! [`StageTable`]. An edit that replaces a run of consecutive stages by
//! one or two new ones ([`SpanEdit`]: every incremental move) re-prices
//! only the new rows and the cuts beside them against the base
//! partition's table ([`AnalyticModel::edited_throughput`]), through the
//! same row formulas and the same reduction, so its price is
//! bit-identical to pricing the edited partition from scratch.
//!
//! The event engine cross-validates it: on uniform pipelines the two agree
//! within a few percent (see `tests/engine_vs_analytic.rs`).

use std::ops::Range;

use ap_cluster::ClusterState;
use ap_ir::ScheduleKind;
use ap_models::ModelProfile;

use crate::calibration::Calibration;
use crate::framework::Framework;
use crate::partition::{Partition, Replicas, Stage};
use crate::sync::{pair_bw, SyncLinks, SyncScheme};

/// Everything fixed about the workload except the partition and cluster
/// state.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticModel<'a> {
    /// Static model profile (Table 1 constants).
    pub profile: &'a ModelProfile,
    /// Gradient synchronization scheme for replicated stages.
    pub scheme: SyncScheme,
    /// Framework constant factors.
    pub framework: Framework,
    /// Pipeline schedule.
    pub schedule: ScheduleKind,
    /// Fitted runtime overheads (codec, stash, dispatch); `None` predicts
    /// the raw compute/wire model.
    pub calibration: Option<Calibration>,
}

/// The result of evaluating one partition.
#[derive(Debug, Clone)]
pub struct Eval {
    /// Steady-state seconds per mini-batch.
    pub iteration_time: f64,
    /// Samples (images) per second.
    pub throughput: f64,
    /// Per-stage occupancy time (compute + sync) per mini-batch.
    pub stage_times: Vec<f64>,
    /// Per-cut communication time per mini-batch.
    pub cut_times: Vec<f64>,
    /// Index of the bottleneck stage (or cut, offset by stage count;
    /// `stages + cuts` means the host's aggregate compute capacity).
    pub bottleneck: usize,
}

/// What a stage's replica set contributes to its price, found once per
/// worker set: a layer change re-prices the stage without re-walking its
/// workers.
#[derive(Debug, Clone, Copy)]
struct ReplicaTerms {
    count: usize,
    /// Effective FLOP/s of the slowest replica.
    min_rate: f64,
    /// The links the replicas' gradient sync is bound by.
    sync: SyncLinks,
}

/// One stage's row of a [`StageTable`].
#[derive(Debug, Clone, Copy)]
struct StageRow {
    replicas: ReplicaTerms,
    /// Per-mini-batch CPU occupancy of one replica.
    occupancy: f64,
    /// Per-mini-batch stage time: occupancy over the replicas plus
    /// gradient sync.
    time: f64,
}

/// One cut's row of a [`StageTable`].
#[derive(Debug, Clone, Copy)]
struct CutRow {
    /// Mean seconds per byte over the sender × receiver replica pairs
    /// (the harmonic mean of their bandwidths).
    sec_per_byte: f64,
    /// Per-mini-batch transfer time across the cut.
    time: f64,
}

/// A partition priced stage by stage ([`AnalyticModel::table`]): per stage
/// the slowest replica rate, the sync links, the occupancy and the stage
/// time; per cut the mean seconds per byte and the cut time. Reduced to
/// an iteration time by [`AnalyticModel::evaluate`], and the base that
/// [`AnalyticModel::edited_throughput`] re-prices edits against.
#[derive(Debug, Clone)]
pub struct StageTable {
    stages: Vec<StageRow>,
    /// Cut `c` sits between stages `c` and `c + 1`.
    cuts: Vec<CutRow>,
    in_flight: usize,
}

/// Where a new stage of a [`SpanEdit`] gets its replicas.
#[derive(Debug, Clone, Copy)]
pub enum EditWorkers<'w> {
    /// Base stage `s`'s replica set, unchanged: its terms, and its pair
    /// means with an unchanged neighbour, come from the table.
    Base(usize),
    /// A new replica set.
    New(Replicas<'w>),
}

impl<'w> EditWorkers<'w> {
    /// The replica list, read from `base` for [`EditWorkers::Base`].
    pub fn resolve(self, base: &'w Partition) -> Replicas<'w> {
        match self {
            EditWorkers::Base(s) => Replicas::of(&base.stages[s].workers),
            EditWorkers::New(r) => r,
        }
    }
}

/// A new stage of a [`SpanEdit`].
#[derive(Debug, Clone)]
pub struct EditStage<'w> {
    /// Layers it computes.
    pub layers: Range<usize>,
    /// Its replicas.
    pub workers: EditWorkers<'w>,
}

/// A change confined to the consecutive stages `first..=last` of a base
/// partition: they are replaced by one or two new stages. A moved
/// boundary, a migrated replica, a merge, a split and a dropped replica
/// are all span edits.
#[derive(Debug, Clone)]
pub struct SpanEdit<'w> {
    /// First replaced stage.
    pub first: usize,
    /// Last replaced stage (inclusive).
    pub last: usize,
    /// The stages that replace them, in order.
    pub stages: (EditStage<'w>, Option<EditStage<'w>>),
    /// In-flight depth of the edited partition.
    pub in_flight: usize,
}

impl<'w> SpanEdit<'w> {
    /// The new stages in order.
    pub fn new_stages(&self) -> impl Iterator<Item = &EditStage<'w>> {
        std::iter::once(&self.stages.0).chain(self.stages.1.as_ref())
    }

    /// Stage count of the edited partition of `base`.
    pub fn n_stages(&self, base: &Partition) -> usize {
        base.n_stages() - (self.last + 1 - self.first) + 1 + usize::from(self.stages.1.is_some())
    }

    /// [`Partition::default_in_flight`] of the edited partition of
    /// `base`, from its worker and stage counts.
    pub fn default_depth(&self, base: &'w Partition) -> usize {
        let replaced: usize = base.stages[self.first..=self.last]
            .iter()
            .map(Stage::n_workers)
            .sum();
        let added: usize = self
            .new_stages()
            .map(|st| st.workers.resolve(base).len())
            .sum();
        let input = match self.first {
            0 => self.stages.0.workers.resolve(base).len(),
            _ => base.stages[0].n_workers(),
        };
        Partition::default_depth(
            base.n_workers() - replaced + added,
            self.n_stages(base),
            input,
        )
    }

    /// The edited partition of `base`, built.
    pub fn apply(&self, base: &'w Partition) -> Partition {
        let mut stages = Vec::with_capacity(self.n_stages(base));
        stages.extend_from_slice(&base.stages[..self.first]);
        stages.extend(
            self.new_stages()
                .map(|st| Stage::new(st.layers.clone(), st.workers.resolve(base).to_vec())),
        );
        stages.extend_from_slice(&base.stages[self.last + 1..]);
        Partition {
            stages,
            in_flight: self.in_flight,
        }
    }
}

impl<'a> AnalyticModel<'a> {
    /// Replica terms of a stage running on `workers`. Replicated stages
    /// round-robin whole mini-batches (PipeDream's scheme), so a
    /// straggling replica throttles the stage: the sustained rate is m x
    /// the slowest replica, not the pooled sum.
    fn replica_terms(&self, workers: Replicas<'_>, state: &ClusterState) -> ReplicaTerms {
        ReplicaTerms {
            count: workers.len(),
            min_rate: workers
                .iter()
                .map(|w| state.effective_flops(w) * self.framework.compute_efficiency)
                .fold(f64::INFINITY, f64::min),
            sync: self.scheme.links(workers, state),
        }
    }

    /// Whether non-final stages snapshot a weight stash per forward.
    fn stashes(&self, in_flight: usize) -> bool {
        self.schedule.is_async() && in_flight > 1
    }

    /// The row of stage `s` of `n_stages`, covering `layers` on replicas
    /// with `replicas` terms, at depth `in_flight`.
    ///
    /// Occupancy is the per-mini-batch CPU time of one replica: compute at
    /// the slowest replica's rate plus calibrated runtime overheads (codec
    /// ops on each boundary — one act + one grad frame per mini-batch,
    /// each encoded once and decoded once — the weight-stash snapshot, and
    /// the fixed dispatch/loss residual), all of which occupy the stage
    /// thread serially with compute. It excludes wire and sync time: those
    /// wait, they don't burn a core. Exactly one replica pays it per
    /// mini-batch, so it doubles as the stage's per-mini-batch
    /// contribution to host CPU demand.
    fn stage_row(
        &self,
        layers: Range<usize>,
        s: usize,
        n_stages: usize,
        in_flight: usize,
        replicas: ReplicaTerms,
    ) -> StageRow {
        let (lo, hi) = (layers.start, layers.end);
        let mut work = self.profile.range_work(lo, hi);
        // GPipe-style recomputation re-runs the forward (1/3 of fwd+bwd).
        work *= 1.0 + self.schedule.recompute_factor() / 3.0;
        let extra = match self.calibration {
            Some(c) => {
                let last = n_stages - 1;
                let in_bytes = (s > 0).then(|| self.profile.cut_bytes(lo - 1));
                let out_bytes = (s < last).then(|| self.profile.cut_bytes(hi - 1));
                let stash_bytes = if self.stashes(in_flight) && s < last {
                    self.profile.range_params(lo, hi)
                } else {
                    0.0
                };
                c.stage_extra_s(in_bytes, out_bytes, stash_bytes)
            }
            None => 0.0,
        };
        let occupancy = work / replicas.min_rate + extra;
        let m = replicas.count as f64;
        let sync_bytes = self.profile.range_params(lo, hi);
        let time = if self.schedule.is_async() {
            // Each replica's update cadence is paced by whichever is
            // slower: computing its own mini-batch or pushing its update
            // through the contended fabric (the next backward is gated on
            // the previous sync). The stage produces one mini-batch per
            // `cadence / m`.
            let sync_one =
                replicas.sync.async_update_time(sync_bytes) / self.framework.comm_efficiency;
            occupancy.max(sync_one) / m
        } else {
            // Flush schedules synchronize the full stage once per
            // mini-batch at the barrier.
            let t_sync = replicas.sync.sync_time(sync_bytes) / self.framework.comm_efficiency;
            occupancy / m + t_sync
        };
        StageRow {
            replicas,
            occupancy,
            time,
        }
    }

    /// Mean seconds per byte between `senders` and `receivers`.
    /// Transfers pair replicas round-robin, so the mean *time* per
    /// mini-batch is the average of per-pair times — i.e. the harmonic
    /// mean of the pairwise bandwidths. (An arithmetic mean would let one
    /// fast colocated pair hide many slow cross-server pairs.)
    fn sec_per_byte(senders: Replicas<'_>, receivers: Replicas<'_>, state: &ClusterState) -> f64 {
        let mut inv_sum = 0.0;
        let mut n = 0usize;
        for a in senders.iter() {
            for b in receivers.iter() {
                inv_sum += 1.0 / pair_bw(a, b, state);
                n += 1;
            }
        }
        inv_sum / n as f64
    }

    /// The row of the cut after layer `cut_layer`. Forward activations and
    /// backward gradients ride opposite directions of full-duplex links,
    /// so the cut costs one activation tensor's worth of time.
    fn cut_row(&self, cut_layer: usize, sec_per_byte: f64) -> CutRow {
        let bytes = self.profile.cut_bytes(cut_layer);
        CutRow {
            sec_per_byte,
            time: bytes * sec_per_byte / self.framework.comm_efficiency,
        }
    }

    fn cut_between(&self, left: &Stage, right: &Stage, state: &ClusterState) -> CutRow {
        let spb = Self::sec_per_byte(
            Replicas::of(&left.workers),
            Replicas::of(&right.workers),
            state,
        );
        self.cut_row(left.layers.end - 1, spb)
    }

    /// The row of stage `s` of `partition`, priced from scratch.
    fn stage_of(&self, partition: &Partition, s: usize, state: &ClusterState) -> StageRow {
        let st = &partition.stages[s];
        let terms = self.replica_terms(Replicas::of(&st.workers), state);
        self.stage_row(
            st.layers.clone(),
            s,
            partition.n_stages(),
            partition.in_flight,
            terms,
        )
    }

    /// Price every stage and cut of `partition`.
    pub fn table(&self, partition: &Partition, state: &ClusterState) -> StageTable {
        debug_assert!(partition.validate(self.profile.n_layers()).is_ok());
        StageTable {
            stages: (0..partition.n_stages())
                .map(|s| self.stage_of(partition, s, state))
                .collect(),
            cuts: partition
                .stages
                .windows(2)
                .map(|w| self.cut_between(&w[0], &w[1], state))
                .collect(),
            in_flight: partition.in_flight,
        }
    }

    /// The bottleneck unit time and its index over `n_stages` stage rows
    /// and their cuts, each row asked for once, in stage order. The first
    /// slowest stage is the bottleneck unless a cut is strictly slower
    /// (then the first slowest cut). A host with fewer compute slots than
    /// stages adds one more bottleneck: its aggregate capacity across all
    /// stage threads — it can finish at most `slots` stage-seconds per
    /// wall-second, so `Σ occupancy / slots` (summed in stage order) is a
    /// hard floor; on a one-core host it is the serialized sum of stage
    /// work.
    fn bottleneck(
        &self,
        n_stages: usize,
        mut stage: impl FnMut(usize) -> StageRow,
        mut cut: impl FnMut(usize) -> CutRow,
    ) -> (f64, usize) {
        let n_cuts = n_stages - 1;
        let (mut stage_unit, mut stage_at) = (0.0f64, 0usize);
        let (mut cut_unit, mut cut_at) = (0.0f64, 0usize);
        let mut total = 0.0;
        for s in 0..n_stages {
            let row = stage(s);
            if row.time > stage_unit {
                stage_unit = row.time;
                stage_at = s;
            }
            total += row.occupancy;
            if s < n_cuts {
                let t = cut(s).time;
                if t > cut_unit {
                    cut_unit = t;
                    cut_at = s;
                }
            }
        }
        let (mut unit, mut bottleneck) = (stage_unit, stage_at);
        if cut_unit > unit {
            unit = cut_unit;
            bottleneck = n_stages + cut_at;
        }
        if let Some(c) = self.calibration {
            if c.compute_slots != 0 && n_stages > c.compute_slots {
                let cap = total / c.compute_slots as f64;
                if cap > unit {
                    unit = cap;
                    bottleneck = n_stages + n_cuts;
                }
            }
        }
        (unit, bottleneck)
    }

    /// Steady-state seconds per mini-batch with bottleneck `unit`.
    /// Async: one mini-batch completes per bottleneck unit. Sync-flush:
    /// m micro-batches at 1/m unit each, inflated by the bubble fraction.
    fn iteration_time(&self, unit: f64, n_stages: usize) -> f64 {
        if self.schedule.is_async() {
            unit + self.framework.per_iter_overhead
        } else {
            let micro = self.schedule.micro_batches() as f64;
            let bubble = self.schedule.bubble_fraction(n_stages);
            // Per-micro unit = unit / m; m units of useful work stretched
            // by fill/drain.
            let useful = micro * (unit / micro);
            useful / (1.0 - bubble) + self.framework.per_iter_overhead
        }
    }

    /// Evaluate a partition in the given cluster state.
    pub fn evaluate(&self, partition: &Partition, state: &ClusterState) -> Eval {
        let table = self.table(partition, state);
        let n = table.stages.len();
        let (unit, bottleneck) = self.bottleneck(n, |s| table.stages[s], |c| table.cuts[c]);
        let iteration_time = self.iteration_time(unit, n);
        Eval {
            iteration_time,
            throughput: self.profile.batch as f64 / iteration_time,
            stage_times: table.stages.iter().map(|r| r.time).collect(),
            cut_times: table.cuts.iter().map(|r| r.time).collect(),
            bottleneck,
        }
    }

    /// [`Eval::throughput`] of `partition`, its rows streamed into the
    /// reduction instead of kept.
    pub fn throughput(&self, partition: &Partition, state: &ClusterState) -> f64 {
        debug_assert!(partition.validate(self.profile.n_layers()).is_ok());
        let stages = &partition.stages;
        let n = stages.len();
        let (unit, _) = self.bottleneck(
            n,
            |s| self.stage_of(partition, s, state),
            |c| self.cut_between(&stages[c], &stages[c + 1], state),
        );
        self.profile.batch as f64 / self.iteration_time(unit, n)
    }

    /// Throughput of `base` after `edit`, pricing only the new stages and
    /// the cuts beside them against `table` (the base's own table). Equal
    /// bit for bit to [`AnalyticModel::throughput`] of the edited
    /// partition: a kept stage's row depends on its position only through
    /// whether it is first or last, which a span edit never changes. An
    /// edit that turns the weight stash on or off under a calibration
    /// changes every stage's occupancy, so it prices the built edited
    /// partition instead.
    pub fn edited_throughput(
        &self,
        table: &StageTable,
        base: &Partition,
        edit: &SpanEdit<'_>,
        state: &ClusterState,
    ) -> f64 {
        if self.calibration.is_some()
            && self.stashes(edit.in_flight) != self.stashes(table.in_flight)
        {
            return self.throughput(&edit.apply(base), state);
        }
        let first = edit.first;
        let n = edit.n_stages(base);
        // Kept stage `s` of the edited partition is base stage `s` before
        // the span and `s + span - added` after it.
        let span = edit.last + 1 - first;
        let added = 1 + usize::from(edit.stages.1.is_some());
        let mut rows = [None; 2];
        for (k, st) in edit.new_stages().enumerate() {
            let terms = match st.workers {
                EditWorkers::Base(s) => table.stages[s].replicas,
                EditWorkers::New(r) => self.replica_terms(r, state),
            };
            rows[k] = Some(self.stage_row(st.layers.clone(), first + k, n, edit.in_flight, terms));
        }
        // Each stage of the edited partition as (replicas, end layer).
        let side = |s: usize| {
            if s >= first && s < first + added {
                let st = edit.new_stages().nth(s - first).expect("a new stage");
                (st.workers, st.layers.end)
            } else {
                let b = if s < first { s } else { s + span - added };
                (EditWorkers::Base(b), base.stages[b].layers.end)
            }
        };
        // The cuts beside and between the new stages, edited cut `c` at
        // `cuts[c + 1 - first]`.
        let mut cuts = [None; 3];
        for c in first.saturating_sub(1)..(first + added).min(n - 1) {
            let ((left, end), (right, _)) = (side(c), side(c + 1));
            let spb = match (left, right) {
                (EditWorkers::Base(a), EditWorkers::Base(b)) if b == a + 1 => {
                    table.cuts[a].sec_per_byte
                }
                _ => Self::sec_per_byte(left.resolve(base), right.resolve(base), state),
            };
            cuts[c + 1 - first] = Some(self.cut_row(end - 1, spb));
        }
        let stage = |s: usize| match s.checked_sub(first) {
            Some(k) if k < added => rows[k].expect("a new row"),
            Some(_) => table.stages[s + span - added],
            None => table.stages[s],
        };
        let cut = |c: usize| match (c + 1).checked_sub(first).and_then(|k| cuts.get(k)) {
            Some(Some(row)) => *row,
            _ if c < first => table.cuts[c],
            _ => table.cuts[c + span - added],
        };
        let (unit, _) = self.bottleneck(n, stage, cut);
        self.profile.batch as f64 / self.iteration_time(unit, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Stage;
    use ap_cluster::gpu::GpuKind;
    use ap_cluster::{ClusterTopology, GpuId};
    use ap_models::{synthetic_uniform, ModelProfile};

    fn setup(link_gbps: f64) -> (ClusterState, ModelProfile) {
        let topo = ClusterTopology::single_switch(4, 1, GpuKind::P100, link_gbps);
        let model = synthetic_uniform(8, 1e9, 8e6, 4e6);
        let profile = ModelProfile::with_batch(&model, 32);
        (ClusterState::new(topo), profile)
    }

    fn model<'a>(profile: &'a ModelProfile, schedule: ScheduleKind) -> AnalyticModel<'a> {
        AnalyticModel {
            profile,
            scheme: SyncScheme::RingAllReduce,
            framework: Framework::pytorch(),
            schedule,
            calibration: None,
        }
    }

    fn two_stage() -> Partition {
        Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0)]),
                Stage::new(4..8, vec![GpuId(1)]),
            ],
            in_flight: 2,
        }
    }

    #[test]
    fn balanced_pipeline_bottleneck_is_half_the_work() {
        let (st, p) = setup(100.0);
        let m = model(&p, ScheduleKind::PipeDreamAsync);
        let e = m.evaluate(&two_stage(), &st);
        // Each stage has half the model's work on one P100.
        let want = p.total_work() / 2.0 / GpuKind::P100.peak_flops();
        assert!((e.stage_times[0] - want).abs() / want < 1e-9);
        assert!((e.stage_times[1] - want).abs() / want < 1e-9);
        assert!(e.bottleneck < 2);
    }

    #[test]
    fn throughput_is_batch_over_iteration_time() {
        let (st, p) = setup(25.0);
        let m = model(&p, ScheduleKind::PipeDreamAsync);
        let e = m.evaluate(&two_stage(), &st);
        assert!((e.throughput - 32.0 / e.iteration_time).abs() < 1e-9);
    }

    #[test]
    fn low_bandwidth_makes_the_cut_the_bottleneck() {
        let (_, p) = setup(100.0);
        let slow = ClusterState::new(ClusterTopology::single_switch(
            4,
            1,
            GpuKind::P100,
            0.05, // 50 Mbps: activations dominate
        ));
        let m = model(&p, ScheduleKind::PipeDreamAsync);
        let e = m.evaluate(&two_stage(), &slow);
        assert_eq!(e.bottleneck, 2, "bottleneck should be the cut");
        assert!(e.cut_times[0] > e.stage_times[0]);
    }

    #[test]
    fn replication_speeds_up_the_bottleneck_stage() {
        let (st, p) = setup(100.0);
        let m = model(&p, ScheduleKind::PipeDreamAsync);
        let single = m.throughput(&two_stage(), &st);
        let replicated = Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0), GpuId(2)]),
                Stage::new(4..8, vec![GpuId(1), GpuId(3)]),
            ],
            in_flight: 2,
        };
        let double = m.throughput(&replicated, &st);
        assert!(
            double > 1.5 * single,
            "2x replicas should nearly double throughput: {single} -> {double}"
        );
    }

    #[test]
    fn sync_flush_schedules_pay_a_bubble() {
        let (st, p) = setup(100.0);
        let part = two_stage();
        let async_tp = model(&p, ScheduleKind::PipeDreamAsync).throughput(&part, &st);
        let dapple_tp = model(&p, ScheduleKind::Dapple { micro_batches: 4 }).throughput(&part, &st);
        assert!(dapple_tp < async_tp);
        // More micro-batches shrink the gap.
        let dapple16 = model(&p, ScheduleKind::Dapple { micro_batches: 16 }).throughput(&part, &st);
        assert!(dapple16 > dapple_tp);
    }

    #[test]
    fn gpipe_recompute_costs_extra() {
        let (st, p) = setup(100.0);
        let part = two_stage();
        let gpipe = model(&p, ScheduleKind::GPipe { micro_batches: 8 }).throughput(&part, &st);
        let dapple = model(&p, ScheduleKind::Dapple { micro_batches: 8 }).throughput(&part, &st);
        assert!(gpipe < dapple, "recompute must cost: {gpipe} vs {dapple}");
    }

    #[test]
    fn chimera_beats_dapple_at_equal_micro_batches() {
        let (st, p) = setup(100.0);
        let part = two_stage();
        let dapple = model(&p, ScheduleKind::Dapple { micro_batches: 4 }).throughput(&part, &st);
        let chimera = model(&p, ScheduleKind::Chimera { micro_batches: 4 }).throughput(&part, &st);
        assert!(chimera > dapple);
    }

    #[test]
    fn calibration_lowers_predictions_and_zero_is_identity() {
        let (st, p) = setup(100.0);
        let mut m = model(&p, ScheduleKind::PipeDreamAsync);
        let part = two_stage();
        let raw = m.throughput(&part, &st);
        m.calibration = Some(Calibration::zero());
        assert_eq!(m.throughput(&part, &st), raw, "zero calibration is raw");
        m.calibration = Some(Calibration {
            per_frame_s: 1e-4,
            per_byte_s: 1e-9,
            stage_overhead_s: 1e-3,
            stash_byte_s: 1e-9,
            compute_slots: 0,
        });
        let cal = m.throughput(&part, &st);
        assert!(
            cal < raw,
            "calibrated must price in overheads: {cal} vs {raw}"
        );
    }

    #[test]
    fn one_compute_slot_serializes_the_stages() {
        let (st, p) = setup(100.0);
        let mut m = model(&p, ScheduleKind::PipeDreamAsync);
        m.calibration = Some(Calibration::zero());
        let part = two_stage();
        let uncontended = m.evaluate(&part, &st);
        // One slot: both stage threads share a single core, so the
        // iteration unit is the *sum* of stage occupancies, not the max.
        let mut c = Calibration::zero();
        c.compute_slots = 1;
        m.calibration = Some(c);
        let serialized = m.evaluate(&part, &st);
        let sum: f64 = uncontended.stage_times.iter().sum();
        let unit = serialized.iteration_time - m.framework.per_iter_overhead;
        assert!((unit - sum).abs() < 1e-12, "{unit} vs {sum}");
        assert_eq!(
            serialized.bottleneck,
            part.n_stages() + 1,
            "bottleneck index past stages and cuts means host capacity"
        );
        // Slots >= stages: capacity can't bind, prediction is unchanged.
        c.compute_slots = 2;
        m.calibration = Some(c);
        let fits = m.evaluate(&part, &st);
        assert_eq!(fits.iteration_time, uncontended.iteration_time);
    }

    #[test]
    fn contention_halves_compute_bound_throughput() {
        let (mut st, p) = setup(100.0);
        let m = model(&p, ScheduleKind::PipeDreamAsync);
        let part = two_stage();
        let before = m.throughput(&part, &st);
        for g in 0..2 {
            st.topology.gpu_mut(GpuId(g)).colocated_jobs = 2;
        }
        let after = m.throughput(&part, &st);
        assert!((before / after - 2.0).abs() < 0.2, "{before} vs {after}");
    }
}
