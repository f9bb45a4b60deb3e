//! The planning memory model: walk a schedule program, price the peak.
//!
//! A stage's resident bytes at any instant decompose into
//!
//! ```text
//!   W·(1 + 1 + opt)            master weights + gradient buffer + optimizer
//! + (V(t) − 1)·W               stashed weight versions beyond the master
//! + A(t)                       activations pinned by in-flight units
//! ```
//!
//! where `V(t)` is the number of *distinct* weight versions live (tracked
//! from `StashPush`/`StashPop`/`FusedFwdLossBwd` exactly like
//! [`ap_ir::Program::validate`], as per-version counts of holding units) and `A(t)` prices every unit between its
//! forward and backward: full per-unit activations normally, input-only
//! for units whose program recomputes them (GPipe's discard). The reported
//! footprint is the high-water mark of that sum over the stage's whole op
//! sequence — a closed function of (model, partition, schedule,
//! in_flight), because the op sequence itself is.
//!
//! What is live after each op (`V(t)` and the unit counts behind `A(t)`)
//! depends only on the program, so the walk is split in two: a structural
//! step lists a stage's distinct live states, walked once per (schedule,
//! stages, depth, recompute discard) and kept in a bounded per-thread
//! memo, and a pricing step finds the peak among them for given bytes.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

use ap_ir::{generate, IrOp, Program, UnitId};
use ap_models::ModelProfile;
use ap_pipesim::{Partition, ScheduleKind};

/// Optimizer whose per-parameter state the model prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerKind {
    /// Stateless SGD (what the exec runtime implements): no extra state.
    Sgd,
    /// Adam-style: momentum + variance, 2x the weight bytes.
    Adam,
}

impl OptimizerKind {
    /// Optimizer state bytes per weight byte.
    pub fn state_multiplier(self) -> f64 {
        match self {
            OptimizerKind::Sgd => 0.0,
            OptimizerKind::Adam => 2.0,
        }
    }
}

/// Knobs of the planning model.
#[derive(Debug, Clone, Copy)]
pub struct MemoryModel {
    /// Optimizer state priced on every worker.
    pub optimizer: OptimizerKind,
    /// Price `Recompute` units as holding only their boundary input
    /// between forward and recompute (GPipe's activation discard). Turning
    /// this off prices them as if activations were retained — the
    /// non-recompute baseline the property tests compare against.
    pub recompute_discard: bool,
}

impl Default for MemoryModel {
    fn default() -> Self {
        MemoryModel {
            optimizer: OptimizerKind::Adam,
            recompute_discard: true,
        }
    }
}

/// One stage's high-water footprint, bytes.
#[derive(Debug, Clone)]
pub struct StageFootprint {
    /// Stage index.
    pub stage: usize,
    /// One copy of the stage's weights.
    pub weight_bytes: f64,
    /// The master's gradient accumulation buffer (same shape as weights).
    pub grad_bytes: f64,
    /// Optimizer state.
    pub optimizer_bytes: f64,
    /// Stashed weight versions beyond the master, at the peak.
    pub stash_bytes: f64,
    /// Activations pinned by in-flight units, at the peak.
    pub activation_bytes: f64,
    /// Distinct weight versions live at the peak (master included).
    pub weight_versions: usize,
    /// In-flight activation units at the peak (full-equivalents rounded
    /// up; recompute's input-only units count toward the rounding).
    pub peak_units: usize,
}

impl StageFootprint {
    /// Total resident bytes on a single (unreplicated) worker.
    pub fn total(&self) -> f64 {
        self.weight_bytes
            + self.grad_bytes
            + self.optimizer_bytes
            + self.stash_bytes
            + self.activation_bytes
    }

    /// Resident bytes on each of `replicas` data-parallel workers: weight
    /// state is replicated, in-flight units round-robin.
    pub fn per_worker(&self, replicas: usize) -> f64 {
        let r = replicas.max(1);
        let act = if self.peak_units == 0 || r == 1 {
            self.activation_bytes
        } else {
            let share = self.peak_units.div_ceil(r) as f64 / self.peak_units as f64;
            self.activation_bytes * share
        };
        self.weight_bytes + self.grad_bytes + self.optimizer_bytes + self.stash_bytes + act
    }
}

/// A set of dense unit ids, with its size kept current.
struct UnitSet {
    member: Vec<bool>,
    len: usize,
}

impl UnitSet {
    fn new(n: usize) -> Self {
        UnitSet {
            member: vec![false; n],
            len: 0,
        }
    }

    fn insert(&mut self, u: usize) {
        if !self.member[u] {
            self.member[u] = true;
            self.len += 1;
        }
    }

    fn remove(&mut self, u: usize) {
        if self.member[u] {
            self.member[u] = false;
            self.len -= 1;
        }
    }
}

/// The weight version each unit's stash holds, and how many distinct
/// versions are live: a per-version count of holding units.
struct LiveVersions {
    of: Vec<Option<usize>>,
    holders: Vec<u32>,
    distinct: usize,
}

impl LiveVersions {
    fn new(n_units: usize, n_versions: usize) -> Self {
        LiveVersions {
            of: vec![None; n_units],
            holders: vec![0; n_versions],
            distinct: 0,
        }
    }

    fn hold(&mut self, u: usize, v: usize) {
        self.release(u);
        self.of[u] = Some(v);
        self.holders[v] += 1;
        if self.holders[v] == 1 {
            self.distinct += 1;
        }
    }

    fn release(&mut self, u: usize) {
        if let Some(v) = self.of[u].take() {
            self.holders[v] -= 1;
            if self.holders[v] == 0 {
                self.distinct -= 1;
            }
        }
    }
}

/// One distinct instant of a stage's walk: what is live, not what it
/// costs. A stage's states depend only on the schedule program, never on
/// the model's bytes, so [`footprint`] walks each program once and prices
/// the states many times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WalkState {
    /// Distinct weight versions live (0 before the first stash).
    versions: usize,
    /// In-flight units holding their full activations.
    full: usize,
    /// In-flight units holding only their boundary input (recompute
    /// pending).
    input_only: usize,
    /// A fused forward-loss-backward op is running: its unit's
    /// activations exist for this op only.
    fused: bool,
}

/// The distinct states of one stage's walk over `program`, in first-seen
/// order.
///
/// Units and weight versions get dense ids (offsets from the stage's
/// smallest mini-batch and version), so the walk keeps its live sets in
/// flat arrays sized once per stage.
fn walk_states(program: &Program, stage: usize, recompute_discard: bool) -> Vec<WalkState> {
    let ops = &program.stages[stage].ops;
    let unit_of = |op: &IrOp| match *op {
        IrOp::StashPush { unit, .. }
        | IrOp::StashPop { unit }
        | IrOp::Forward { unit }
        | IrOp::FusedFwdLossBwd { unit }
        | IrOp::Recompute { unit }
        | IrOp::Backward { unit } => Some(unit),
        IrOp::Recv { .. } | IrOp::Send { .. } | IrOp::ApplyUpdate { .. } => None,
    };
    let (mut mb_lo, mut mb_hi, mut micros) = (u64::MAX, 0u64, 0usize);
    let (mut v_lo, mut v_hi) = (u64::MAX, 0u64);
    for op in ops {
        if let Some(u) = unit_of(op) {
            mb_lo = mb_lo.min(u.mb);
            mb_hi = mb_hi.max(u.mb);
            micros = micros.max(u.micro as usize + 1);
        }
        if let IrOp::StashPush { weight_version, .. } = *op {
            v_lo = v_lo.min(weight_version);
            v_hi = v_hi.max(weight_version);
        }
    }
    let n_units = (mb_hi + 1).saturating_sub(mb_lo) as usize * micros;
    let n_versions = (v_hi + 1).saturating_sub(v_lo) as usize;
    let id = |unit: UnitId| (unit.mb - mb_lo) as usize * micros + unit.micro as usize;
    // Units whose backward re-runs the forward: their activations are
    // discarded between forward and recompute.
    let mut recomputed = vec![false; n_units];
    for op in ops {
        if let IrOp::Recompute { unit } = *op {
            recomputed[id(unit)] = true;
        }
    }
    let mut live = LiveVersions::new(n_units, n_versions);
    let mut full = UnitSet::new(n_units);
    let mut input_only = UnitSet::new(n_units);
    let mut states = Vec::new();
    for op in ops {
        let mut fused = false;
        match *op {
            IrOp::StashPush {
                unit,
                weight_version,
            } => live.hold(id(unit), (weight_version - v_lo) as usize),
            IrOp::StashPop { unit } => live.release(id(unit)),
            IrOp::Forward { unit } => {
                let u = id(unit);
                if recompute_discard && recomputed[u] {
                    input_only.insert(u);
                } else {
                    full.insert(u);
                }
            }
            IrOp::Recompute { unit } => {
                let u = id(unit);
                input_only.remove(u);
                full.insert(u);
            }
            IrOp::Backward { unit } => {
                let u = id(unit);
                full.remove(u);
                input_only.remove(u);
            }
            IrOp::FusedFwdLossBwd { unit } => {
                live.release(id(unit));
                fused = true;
            }
            IrOp::Recv { .. } | IrOp::Send { .. } | IrOp::ApplyUpdate { .. } => {}
        }
        let state = WalkState {
            versions: live.distinct,
            full: full.len,
            input_only: input_only.len,
            fused,
        };
        if !states.contains(&state) {
            states.push(state);
        }
    }
    states
}

/// Price a stage's walk states, pricing weights at `weight_bytes` per
/// copy, a full in-flight unit at `act_full` and an input-only unit at
/// `act_input`: the peak is the first state of strictly greatest
/// `(versions − 1)·weight + activations`. A repeated state prices the same
/// as its first occurrence, so pricing the distinct states in first-seen
/// order finds the same peak as pricing every op of the walk.
fn price_states(
    states: &[WalkState],
    stage: usize,
    weight_bytes: f64,
    act_full: f64,
    act_input: f64,
    model: &MemoryModel,
) -> StageFootprint {
    let mut peak_bytes = 0.0f64;
    let (mut versions, mut units, mut act) = (1usize, 0usize, 0.0f64);
    for s in states {
        let transient = if s.fused { act_full } else { 0.0 };
        let a = s.full as f64 * act_full + s.input_only as f64 * act_input + transient;
        let v = s.versions.max(1);
        let bytes = (v - 1) as f64 * weight_bytes + a;
        if bytes > peak_bytes {
            peak_bytes = bytes;
            versions = v;
            units = s.full + s.input_only + usize::from(transient > 0.0);
            act = a;
        }
    }
    StageFootprint {
        stage,
        weight_bytes,
        grad_bytes: weight_bytes,
        optimizer_bytes: model.optimizer.state_multiplier() * weight_bytes,
        stash_bytes: (versions - 1) as f64 * weight_bytes,
        activation_bytes: act,
        weight_versions: versions,
        peak_units: units,
    }
}

/// Walk one stage of `program`, pricing weights at `weight_bytes` per
/// copy, a full in-flight unit at `act_full` and an input-only
/// (recompute-pending) unit at `act_input`.
pub fn walk_stage(
    program: &Program,
    stage: usize,
    weight_bytes: f64,
    act_full: f64,
    act_input: f64,
    model: &MemoryModel,
) -> StageFootprint {
    let states = walk_states(program, stage, model.recompute_discard);
    price_states(&states, stage, weight_bytes, act_full, act_input, model)
}

/// Mini-batches needed for a representative steady-state program: enough
/// to fill the pipeline, cycle a full 2BW generation, and drain.
fn representative_total(n_stages: usize, in_flight: usize) -> u64 {
    (2 * (n_stages + in_flight)).max(4) as u64
}

/// What a stage's walk states are a function of: the schedule, the stage
/// count, the in-flight depth and whether recompute discards activations.
type MemoKey = (ScheduleKind, usize, usize, bool);

/// Most program structures one thread's memo holds; a full memo is
/// emptied before the next insert.
const MEMO_CAP: usize = 256;

thread_local! {
    /// Per-stage walk states of the representative program, per key.
    static MEMO: RefCell<HashMap<MemoKey, Rc<[Vec<WalkState>]>>> =
        RefCell::new(HashMap::new());
}

/// The per-stage walk states of `kind`'s representative program, walked
/// once per key and thread.
fn program_states(
    kind: ScheduleKind,
    n_stages: usize,
    in_flight: usize,
    recompute_discard: bool,
) -> Rc<[Vec<WalkState>]> {
    let key = (kind, n_stages, in_flight, recompute_discard);
    if let Some(hit) = MEMO.with(|m| m.borrow().get(&key).cloned()) {
        return hit;
    }
    let total = representative_total(n_stages, in_flight);
    let program = generate(kind, n_stages, total, in_flight);
    let states: Rc<[Vec<WalkState>]> = (0..n_stages)
        .map(|s| walk_states(&program, s, recompute_discard))
        .collect();
    MEMO.with(|m| {
        let mut m = m.borrow_mut();
        if m.len() >= MEMO_CAP {
            m.clear();
        }
        m.insert(key, Rc::clone(&states));
    });
    states
}

/// A stage's weight bytes, full per-unit activation bytes and input-only
/// per-unit bytes, for `m` micro-batches per mini-batch.
fn stage_bytes(profile: &ModelProfile, layers: &Range<usize>, m: f64) -> (f64, f64, f64) {
    let (lo, hi) = (layers.start, layers.end);
    let weight_bytes = profile.range_params(lo, hi);
    // The input a unit carries into the stage: the upstream cut's
    // activation; for stage 0 the data batch, approximated by the first
    // layer's output (profiles do not record input dims).
    let input = if lo > 0 {
        profile.out_bytes[lo - 1]
    } else {
        profile.out_bytes[0]
    };
    let acts: f64 = (lo..hi).map(|j| profile.out_bytes[j]).sum();
    (weight_bytes, (input + acts) / m, input / m)
}

/// Per-stage high-water footprints of `partition` running `kind` on
/// `profile` — the closed function of (model, partition, schedule,
/// in_flight) every layer of the stack prices memory with.
pub fn footprint(
    profile: &ModelProfile,
    partition: &Partition,
    kind: ScheduleKind,
    model: &MemoryModel,
) -> Vec<StageFootprint> {
    let states = program_states(
        kind,
        partition.n_stages(),
        partition.in_flight,
        model.recompute_discard,
    );
    let m = kind.micro_batches() as f64;
    partition
        .stages
        .iter()
        .zip(states.iter())
        .enumerate()
        .map(|(s, (st, states))| {
            let (weight, full, input) = stage_bytes(profile, &st.layers, m);
            price_states(states, s, weight, full, input, model)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_cluster::GpuId;
    use ap_models::{bert48, vgg16, ModelProfile};
    use ap_pipesim::Stage;
    use ap_rng::Rng;

    fn two_stage(l: usize, in_flight: usize) -> Partition {
        Partition {
            stages: vec![
                Stage::new(0..l / 2, vec![GpuId(0)]),
                Stage::new(l / 2..l, vec![GpuId(1)]),
            ],
            in_flight,
        }
    }

    #[test]
    fn async_stashes_in_flight_versions_at_stage_zero() {
        let p = ModelProfile::of(&vgg16());
        let part = two_stage(p.n_layers(), 4);
        let f = footprint(
            &p,
            &part,
            ScheduleKind::PipeDreamAsync,
            &MemoryModel::default(),
        );
        assert_eq!(f[0].weight_versions, 4);
        assert!((f[0].stash_bytes - 3.0 * f[0].weight_bytes).abs() < 1.0);
        // The last stage is fused: one live version, no stash.
        assert_eq!(f[1].weight_versions, 1);
        assert_eq!(f[1].stash_bytes, 0.0);
    }

    #[test]
    fn two_bw_holds_exactly_two_versions_at_any_depth() {
        let p = ModelProfile::of(&bert48());
        for inf in [2, 4, 8] {
            let part = two_stage(p.n_layers(), inf);
            let f = footprint(
                &p,
                &part,
                ScheduleKind::PipeDream2Bw,
                &MemoryModel::default(),
            );
            assert_eq!(f[0].weight_versions, 2, "in_flight={inf}");
        }
    }

    #[test]
    fn recompute_discard_prices_gpipe_below_retention() {
        let p = ModelProfile::of(&vgg16());
        let part = two_stage(p.n_layers(), 4);
        let kind = ScheduleKind::GPipe { micro_batches: 4 };
        let discard = footprint(&p, &part, kind, &MemoryModel::default());
        let retain = footprint(
            &p,
            &part,
            kind,
            &MemoryModel {
                recompute_discard: false,
                ..MemoryModel::default()
            },
        );
        for (d, r) in discard.iter().zip(&retain) {
            assert!(
                d.activation_bytes <= r.activation_bytes,
                "stage {}",
                d.stage
            );
        }
        // On stage 0 (every backward recomputes) the saving is real.
        assert!(discard[0].activation_bytes < retain[0].activation_bytes);
    }

    #[test]
    fn optimizer_state_scales_with_weights() {
        let p = ModelProfile::of(&vgg16());
        let part = two_stage(p.n_layers(), 2);
        let adam = footprint(
            &p,
            &part,
            ScheduleKind::PipeDreamAsync,
            &MemoryModel::default(),
        );
        let sgd = footprint(
            &p,
            &part,
            ScheduleKind::PipeDreamAsync,
            &MemoryModel {
                optimizer: OptimizerKind::Sgd,
                ..MemoryModel::default()
            },
        );
        assert!((adam[0].optimizer_bytes - 2.0 * adam[0].weight_bytes).abs() < 1.0);
        assert_eq!(sgd[0].optimizer_bytes, 0.0);
        assert!(adam[0].total() > sgd[0].total());
    }

    #[test]
    fn replication_divides_activations_not_weights() {
        let p = ModelProfile::of(&vgg16());
        let part = two_stage(p.n_layers(), 6);
        let f = &footprint(
            &p,
            &part,
            ScheduleKind::PipeDreamAsync,
            &MemoryModel::default(),
        )[0];
        let one = f.per_worker(1);
        let three = f.per_worker(3);
        assert!(three < one);
        let static_part = f.weight_bytes + f.grad_bytes + f.optimizer_bytes + f.stash_bytes;
        assert!(three >= static_part);
    }

    /// A profile of `n_layers` layers whose activation and parameter
    /// bytes are random (a quarter of them zero), or all zero.
    fn random_profile(rng: &mut Rng, n_layers: usize, acts: bool, weights: bool) -> ModelProfile {
        let mut draw = |on: bool| -> Vec<f64> {
            (0..n_layers)
                .map(|_| {
                    if on && rng.gen_range(0..4u32) > 0 {
                        rng.f64() * 1e6
                    } else {
                        0.0
                    }
                })
                .collect()
        };
        let out = draw(acts);
        let params = draw(weights);
        let flops = vec![1e9; n_layers];
        ModelProfile::from_raw("random", 8, out.clone(), out, params, flops.clone(), flops)
    }

    /// Every field of a footprint, floats as bits.
    fn bits(f: &StageFootprint) -> (usize, [u64; 5], usize, usize) {
        let bytes = [
            f.weight_bytes,
            f.grad_bytes,
            f.optimizer_bytes,
            f.stash_bytes,
            f.activation_bytes,
        ];
        (
            f.stage,
            bytes.map(f64::to_bits),
            f.weight_versions,
            f.peak_units,
        )
    }

    #[test]
    fn memoized_footprint_matches_a_fresh_walk_bit_for_bit() {
        let mut rng = Rng::seed_from_u64(22);
        for kind in ScheduleKind::zoo() {
            let m = kind.micro_batches() as f64;
            for n_stages in 1..=8usize {
                for in_flight in 1..=12usize {
                    let total = representative_total(n_stages, in_flight);
                    let program = generate(kind, n_stages, total, in_flight);
                    let part = Partition {
                        stages: (0..n_stages)
                            .map(|s| Stage::new(2 * s..2 * s + 2, vec![GpuId(s)]))
                            .collect(),
                        in_flight,
                    };
                    for discard in [true, false] {
                        let model = MemoryModel {
                            recompute_discard: discard,
                            ..MemoryModel::default()
                        };
                        // Zero activations (no fused transient unit), zero
                        // weights, then random bytes; the later profiles
                        // hit the memo the first one filled.
                        for (acts, weights) in [(false, true), (true, false), (true, true)] {
                            let profile = random_profile(&mut rng, 2 * n_stages, acts, weights);
                            let got = footprint(&profile, &part, kind, &model);
                            assert_eq!(got.len(), n_stages);
                            for (s, st) in part.stages.iter().enumerate() {
                                let (w, full, input) = stage_bytes(&profile, &st.layers, m);
                                let want = walk_stage(&program, s, w, full, input, &model);
                                assert_eq!(
                                    bits(&got[s]),
                                    bits(&want),
                                    "{} {n_stages} {in_flight} {discard} stage {s}",
                                    kind.id()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn distinct_keys_never_grow_the_memo_past_its_cap() {
        let kind = ScheduleKind::PipeDreamAsync;
        let len = || MEMO.with(|m| m.borrow().len());
        for in_flight in 1..=MEMO_CAP + 40 {
            program_states(kind, 1, in_flight, true);
            assert!(len() <= MEMO_CAP, "depth {in_flight}: {} entries", len());
            if in_flight == MEMO_CAP {
                assert_eq!(len(), MEMO_CAP, "every distinct key was kept");
            }
        }
    }
}
