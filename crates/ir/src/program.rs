//! The declarative per-stage op-program.
//!
//! A [`Program`] is the single source of truth for *what happens, in what
//! order, at every stage* under a [`ScheduleKind`]. The ap-exec runtime
//! replays the ops against real tensors, and ap-mem walks them for peak
//! memory. Because each stage's op
//! order is static and channels are FIFO, any interpreter that executes
//! ops in program order is deterministic regardless of thread timing.
//!
//! ## Op grammar (per stage)
//!
//! A *unit* is one forward/backward of one micro-batch ([`UnitId`]):
//! async schedules pipeline whole mini-batches (`micro = 0` always), sync
//! schedules split each mini-batch into `micro_batches` units.
//!
//! * `Recv`/`Send` — one frame on the stage's upstream/downstream link;
//!   direction is implied by the payload (activations flow downstream,
//!   gradients upstream, weight state toward the migration peer).
//! * `StashPush` — snapshot the master weights for `unit`, tagged with a
//!   weight version; `StashPop` retires the snapshot into the unit's
//!   backward.
//! * `Forward` / `Backward` — compute on the stashed snapshot if one was
//!   pushed for the unit, else directly on the master weights.
//! * `Recompute` — GPipe's flush semantics: re-run the forward from the
//!   stashed input before the backward (the recompute tax).
//! * `FusedFwdLossBwd` — the last-stage invariant made explicit: forward,
//!   loss and backward run as one atomic op (there is nothing to wait for
//!   between them, and no weight update can interleave), so fused units
//!   never stash — *except* under a migration splice, where the stash is
//!   the §4.4 payload. GPipe is the one schedule that never fuses: its
//!   backward phase is separated from the forward phase by the flush
//!   barrier and a recompute.
//! * `ApplyUpdate` — fold `units` accumulated unit-gradients into the
//!   master weights (SGD). PipeDream applies per mini-batch immediately
//!   after its backward (`units = 1`); sync schedules apply once per
//!   mini-batch at the flush (`units = micro_batches`); PipeDream-2BW
//!   applies once per generation of `in_flight` mini-batches (double
//!   buffering: at most 2 weight versions are ever live).

use crate::schedule::ScheduleKind;
use std::collections::BTreeSet;

/// One forward/backward unit: a (mini-batch, micro-batch) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnitId {
    /// Mini-batch index.
    pub mb: u64,
    /// Micro-batch index within the mini-batch (0 for async schedules).
    pub micro: u32,
}

impl UnitId {
    /// Construct a unit.
    pub fn new(mb: u64, micro: u32) -> Self {
        UnitId { mb, micro }
    }

    /// The id this unit travels under on the wire: with `m` micro-batches
    /// per mini-batch, `mb * m + micro`. For async schedules (`m = 1`)
    /// this is the mini-batch index itself, keeping frames bit-identical
    /// to the pre-IR runtime.
    pub fn wire(self, m: usize) -> u64 {
        self.mb * m as u64 + self.micro as u64
    }
}

/// What a `Send`/`Recv` moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Payload {
    /// Forward activation (downstream).
    Act,
    /// Backward gradient (upstream).
    Grad,
    /// §4.4 migration payload: master + stashed weight versions (toward
    /// the new owner).
    WeightState,
}

/// One scheduled operation at a stage. See the module docs for the
/// grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrOp {
    /// Block until the named frame is available on the implied link.
    Recv { payload: Payload, unit: UnitId },
    /// Emit a frame on the implied link.
    Send { payload: Payload, unit: UnitId },
    /// Snapshot master weights for `unit`, tagged `weight_version`.
    StashPush { unit: UnitId, weight_version: u64 },
    /// Retire the snapshot pushed for `unit` into its backward.
    StashPop { unit: UnitId },
    /// Forward `unit` (on its snapshot if stashed, else on master).
    Forward { unit: UnitId },
    /// Last-stage fusion: forward + loss + backward, atomically.
    FusedFwdLossBwd { unit: UnitId },
    /// Re-run the forward from the stashed input (GPipe recompute).
    Recompute { unit: UnitId },
    /// Backward `unit` (on its snapshot if stashed, else on master).
    Backward { unit: UnitId },
    /// Fold `units` accumulated unit-gradients into master weights.
    ApplyUpdate { mb: u64, units: u32 },
}

impl IrOp {
    /// The unit this op belongs to; `None` for an apply, which covers a
    /// whole mini-batch.
    pub fn unit(self) -> Option<UnitId> {
        match self {
            IrOp::Recv { unit, .. }
            | IrOp::Send { unit, .. }
            | IrOp::StashPush { unit, .. }
            | IrOp::StashPop { unit }
            | IrOp::Forward { unit }
            | IrOp::FusedFwdLossBwd { unit }
            | IrOp::Recompute { unit }
            | IrOp::Backward { unit } => Some(unit),
            IrOp::ApplyUpdate { .. } => None,
        }
    }

    /// The mini-batch this op belongs to.
    pub fn mb(self) -> u64 {
        match self {
            IrOp::Recv { unit, .. }
            | IrOp::Send { unit, .. }
            | IrOp::StashPush { unit, .. }
            | IrOp::StashPop { unit }
            | IrOp::Forward { unit }
            | IrOp::FusedFwdLossBwd { unit }
            | IrOp::Recompute { unit }
            | IrOp::Backward { unit } => unit.mb,
            IrOp::ApplyUpdate { mb, .. } => mb,
        }
    }
}

/// The static op sequence of one pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageProgram {
    /// Stage index.
    pub stage: usize,
    /// Ops in execution order.
    pub ops: Vec<IrOp>,
}

/// A §4.4 live-migration rewrite: at mini-batch `at_mb`, `sender` ships
/// its moved layer block (master first, then stashes newest-first) to
/// `receiver`.
#[derive(Debug, Clone)]
pub struct SpliceSpec {
    /// Old owner stage (emits `Send WeightState`).
    pub sender: usize,
    /// New owner stage.
    pub receiver: usize,
    /// Cutover mini-batch.
    pub at_mb: u64,
    /// True when the payload rides the backward channel (upstream move):
    /// the receiver must block on an explicit `Recv WeightState` before
    /// forwarding `at_mb`. Downstream moves deliver opportunistically on
    /// the forward channel the receiver is already draining, so no
    /// explicit `Recv` is spliced.
    pub receiver_waits: bool,
}

/// A full schedule program: one [`StageProgram`] per stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// The schedule this program realizes.
    pub kind: ScheduleKind,
    /// Pipeline depth.
    pub n_stages: usize,
    /// Mini-batches trained.
    pub total: u64,
    /// 1F1B admission depth (async kinds; sync kinds derive depth from
    /// stage count and micro-batches).
    pub in_flight: usize,
    /// Units per mini-batch.
    pub micro_batches: usize,
    /// Per-stage op sequences, indexed by stage.
    pub stages: Vec<StageProgram>,
}

/// Coarse 1F1B schedule entries: a forward or backward of one mini-batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Coarse {
    F(u64),
    B(u64),
}

/// The classic async 1F1B coarse order: warmup forwards
/// (`in_flight - stage`, floored at one), strict B/F alternation, drain
/// backwards; the last stage is all (fused) forwards. This is the only
/// 1F1B generator in the workspace; ap-exec's `ir_regression` test pins
/// its output to a golden file over a grid of shapes.
fn coarse_1f1b(stage: usize, n_stages: usize, total: u64, in_flight: usize) -> Vec<Coarse> {
    assert!(n_stages > 0 && stage < n_stages, "bad stage index");
    assert!(in_flight >= 1, "need at least one in-flight mini-batch");
    if stage == n_stages - 1 {
        return (0..total).map(Coarse::F).collect();
    }
    let warmup = (in_flight.saturating_sub(stage)).max(1) as u64;
    let w = warmup.min(total);
    let mut ops = Vec::with_capacity(2 * total as usize);
    for v in 0..w {
        ops.push(Coarse::F(v));
    }
    let mut b = 0;
    let mut f = w;
    while f < total {
        ops.push(Coarse::B(b));
        ops.push(Coarse::F(f));
        b += 1;
        f += 1;
    }
    for v in b..total {
        ops.push(Coarse::B(v));
    }
    ops
}

/// Mini-batches that may run without a stash snapshot: those whose
/// forward→backward window contains no *other* mini-batch's backward (the
/// only op that updates weights), so the master at backward time is
/// bit-identical to a snapshot taken at forward time. Two direct windows
/// can never overlap, so master-held layer caches cannot clobber each
/// other. Covers every fused op on the last stage and everything when
/// `in_flight = 1`.
fn direct_set(coarse: &[Coarse]) -> BTreeSet<u64> {
    let mut direct = BTreeSet::new();
    for (i, op) in coarse.iter().enumerate() {
        if let Coarse::F(v) = *op {
            let clean = coarse[i + 1..]
                .iter()
                .take_while(|o| **o != Coarse::B(v))
                .all(|o| !matches!(o, Coarse::B(_)));
            if clean {
                direct.insert(v);
            }
        }
    }
    direct
}

/// Expand the async coarse order (PipeDreamAsync / PipeDream-2BW) into
/// fine ops for one stage.
fn expand_async(
    kind: ScheduleKind,
    stage: usize,
    n_stages: usize,
    total: u64,
    in_flight: usize,
    force_stash: bool,
) -> Vec<IrOp> {
    let last = stage + 1 == n_stages;
    let coarse = coarse_1f1b(stage, n_stages, total, in_flight);
    // Which mini-batches skip the stash. PipeDream uses the static
    // no-interleaved-update criterion; 2BW defers updates to generation
    // boundaries that *do* interleave, so it stashes everywhere except the
    // fused last stage. A migration splice stashes everything: the stash
    // is the payload.
    let direct: BTreeSet<u64> = if force_stash {
        BTreeSet::new()
    } else if kind == ScheduleKind::PipeDream2Bw {
        if last {
            (0..total).collect()
        } else {
            BTreeSet::new()
        }
    } else {
        direct_set(&coarse)
    };
    let gen_len = in_flight.max(1) as u64;
    let version = |v: u64| match kind {
        ScheduleKind::PipeDream2Bw => v / gen_len,
        _ => v,
    };
    let push_apply = |ops: &mut Vec<IrOp>, v: u64| match kind {
        ScheduleKind::PipeDream2Bw => {
            // Once per generation, after its last mini-batch's backward.
            if (v + 1).is_multiple_of(gen_len) || v + 1 == total {
                let units = (v + 1 - (v / gen_len) * gen_len) as u32;
                ops.push(IrOp::ApplyUpdate { mb: v, units });
            }
        }
        _ => ops.push(IrOp::ApplyUpdate { mb: v, units: 1 }),
    };
    let mut ops = Vec::new();
    for c in coarse {
        match c {
            Coarse::F(v) if last => {
                let unit = UnitId::new(v, 0);
                if stage > 0 {
                    ops.push(IrOp::Recv {
                        payload: Payload::Act,
                        unit,
                    });
                }
                if !direct.contains(&v) {
                    ops.push(IrOp::StashPush {
                        unit,
                        weight_version: version(v),
                    });
                }
                ops.push(IrOp::FusedFwdLossBwd { unit });
                push_apply(&mut ops, v);
                if stage > 0 {
                    ops.push(IrOp::Send {
                        payload: Payload::Grad,
                        unit,
                    });
                }
            }
            Coarse::F(v) => {
                let unit = UnitId::new(v, 0);
                if stage > 0 {
                    ops.push(IrOp::Recv {
                        payload: Payload::Act,
                        unit,
                    });
                }
                if !direct.contains(&v) {
                    ops.push(IrOp::StashPush {
                        unit,
                        weight_version: version(v),
                    });
                }
                ops.push(IrOp::Forward { unit });
                ops.push(IrOp::Send {
                    payload: Payload::Act,
                    unit,
                });
            }
            Coarse::B(v) => {
                let unit = UnitId::new(v, 0);
                ops.push(IrOp::Recv {
                    payload: Payload::Grad,
                    unit,
                });
                if !direct.contains(&v) {
                    ops.push(IrOp::StashPop { unit });
                }
                ops.push(IrOp::Backward { unit });
                push_apply(&mut ops, v);
                if stage > 0 {
                    ops.push(IrOp::Send {
                        payload: Payload::Grad,
                        unit,
                    });
                }
            }
        }
    }
    ops
}

/// Expand a synchronous flush schedule (GPipe / DAPPLE / Chimera) into
/// fine ops for one stage.
///
/// Chimera emits the same program as DAPPLE: its bidirectional trick
/// needs a second model replica per stage, which a single linear pipeline
/// host cannot run — the halved bubble stays an analytic-model property
/// (the event engine, like this program, runs the DAPPLE order).
fn expand_sync(kind: ScheduleKind, stage: usize, n_stages: usize, total: u64) -> Vec<IrOp> {
    let m = kind.micro_batches();
    let last = stage + 1 == n_stages;
    let gpipe = matches!(kind, ScheduleKind::GPipe { .. });
    let mut ops = Vec::new();
    for v in 0..total {
        let fwd = |ops: &mut Vec<IrOp>, k: usize| {
            let unit = UnitId::new(v, k as u32);
            if stage > 0 {
                ops.push(IrOp::Recv {
                    payload: Payload::Act,
                    unit,
                });
            }
            ops.push(IrOp::StashPush {
                unit,
                weight_version: v,
            });
            ops.push(IrOp::Forward { unit });
            if !last {
                ops.push(IrOp::Send {
                    payload: Payload::Act,
                    unit,
                });
            }
        };
        let bwd = |ops: &mut Vec<IrOp>, k: usize, recompute: bool| {
            let unit = UnitId::new(v, k as u32);
            if !last {
                ops.push(IrOp::Recv {
                    payload: Payload::Grad,
                    unit,
                });
            }
            ops.push(IrOp::StashPop { unit });
            if recompute {
                ops.push(IrOp::Recompute { unit });
            }
            ops.push(IrOp::Backward { unit });
            if stage > 0 {
                ops.push(IrOp::Send {
                    payload: Payload::Grad,
                    unit,
                });
            }
        };
        if gpipe {
            // GPipe: all forwards, flush, recompute + all backwards. The
            // last stage is deliberately *not* fused — the flush barrier
            // separates its forward phase from its backward phase, and the
            // recompute models the activation-discard tax.
            for k in 0..m {
                fwd(&mut ops, k);
            }
            for k in 0..m {
                bwd(&mut ops, k, true);
            }
        } else if last {
            // DAPPLE/Chimera last stage: fused per micro-batch.
            for k in 0..m {
                let unit = UnitId::new(v, k as u32);
                if stage > 0 {
                    ops.push(IrOp::Recv {
                        payload: Payload::Act,
                        unit,
                    });
                }
                ops.push(IrOp::FusedFwdLossBwd { unit });
                if stage > 0 {
                    ops.push(IrOp::Send {
                        payload: Payload::Grad,
                        unit,
                    });
                }
            }
        } else {
            // DAPPLE/Chimera: sync 1F1B — warmup shrinks toward the last
            // stage, early backwards bound the live activation count.
            let w = (n_stages - stage).min(m);
            for k in 0..w {
                fwd(&mut ops, k);
            }
            let (mut b, mut f) = (0, w);
            while f < m {
                bwd(&mut ops, b, false);
                fwd(&mut ops, f);
                b += 1;
                f += 1;
            }
            for k in b..m {
                bwd(&mut ops, k, false);
            }
        }
        ops.push(IrOp::ApplyUpdate {
            mb: v,
            units: m as u32,
        });
    }
    ops
}

/// Generate the op-program realizing `kind` on `n_stages` stages for
/// `total` mini-batches (`in_flight` bounds async admission depth; sync
/// kinds ignore it).
pub fn generate(kind: ScheduleKind, n_stages: usize, total: u64, in_flight: usize) -> Program {
    generate_inner(kind, n_stages, total, in_flight, false)
}

fn generate_inner(
    kind: ScheduleKind,
    n_stages: usize,
    total: u64,
    in_flight: usize,
    force_stash: bool,
) -> Program {
    let stages = (0..n_stages)
        .map(|s| StageProgram {
            stage: s,
            ops: if kind.is_async() {
                expand_async(kind, s, n_stages, total, in_flight, force_stash)
            } else {
                expand_sync(kind, s, n_stages, total)
            },
        })
        .collect();
    Program {
        kind,
        n_stages,
        total,
        in_flight,
        micro_batches: kind.micro_batches(),
        stages,
    }
}

/// Generate a program with a §4.4 live migration spliced in: every stage
/// stashes (the stash is the payload), the sender emits
/// `Send WeightState` immediately before mini-batch `at_mb`'s forward
/// group, and — for upstream moves — the receiver blocks on a matching
/// `Recv WeightState` at the same point. Only PipeDreamAsync supports
/// live switching (the drain-free argument needs an always-full async
/// pipeline).
pub fn generate_spliced(
    kind: ScheduleKind,
    n_stages: usize,
    total: u64,
    in_flight: usize,
    splice: &SpliceSpec,
) -> Result<Program, String> {
    if kind != ScheduleKind::PipeDreamAsync {
        return Err(format!(
            "live migration splice requires pipedream_async (got {})",
            kind.id()
        ));
    }
    if splice.sender >= n_stages || splice.receiver >= n_stages {
        return Err("splice stage out of range".into());
    }
    let mut program = generate_inner(kind, n_stages, total, in_flight, true);
    let unit = UnitId::new(splice.at_mb, 0);
    let mut insert = |stage: usize, op: IrOp| -> Result<(), String> {
        let ops = &mut program.stages[stage].ops;
        let pos = ops
            .iter()
            .position(|o| o.mb() == splice.at_mb)
            .ok_or_else(|| format!("cutover mini-batch {} not in schedule", splice.at_mb))?;
        ops.insert(pos, op);
        Ok(())
    };
    insert(
        splice.sender,
        IrOp::Send {
            payload: Payload::WeightState,
            unit,
        },
    )?;
    if splice.receiver_waits {
        insert(
            splice.receiver,
            IrOp::Recv {
                payload: Payload::WeightState,
                unit,
            },
        )?;
    }
    Ok(program)
}

impl Program {
    /// Well-formedness: every data `Send` has a matching `Recv` on the
    /// peer stage (weight-state frames may instead be absorbed by the
    /// receiver's opportunistic control path), stash pushes and pops
    /// balance with at most `weight_versions(in_flight)` distinct
    /// versions live at once, every unit of every mini-batch is forwarded
    /// and backwarded exactly once per stage, applies cover all units,
    /// and per-unit op order is sane.
    pub fn validate(&self) -> Result<(), String> {
        if self.stages.len() != self.n_stages {
            return Err("stage count mismatch".into());
        }
        let m = self.micro_batches as u32;
        let version_budget = self.kind.weight_versions(self.in_flight);
        // Per-unit forward and backward counts, indexed by wire id and
        // reused by every stage.
        let n_units = self.n_units();
        let mut fwd = vec![0u32; n_units];
        let mut bwd = vec![0u32; n_units];
        // The stashed units with their weight versions (at most the
        // in-flight depth), and those versions deduplicated.
        let mut live: Vec<(UnitId, u64)> = Vec::new();
        let mut distinct: Vec<u64> = Vec::new();
        for (s, sp) in self.stages.iter().enumerate() {
            if sp.stage != s {
                return Err(format!("stage {s}: mislabeled as {}", sp.stage));
            }
            let err = |msg: String| Err(format!("stage {s}: {msg}"));
            fwd.fill(0);
            bwd.fill(0);
            live.clear();
            let mut applied_units = 0u64;
            for op in &sp.ops {
                if op.mb() >= self.total {
                    return err(format!("{op:?} references mini-batch >= {}", self.total));
                }
                if op.unit().is_some_and(|u| u.micro >= m) {
                    return err(format!("{op:?} micro out of range"));
                }
                match *op {
                    IrOp::StashPush {
                        unit,
                        weight_version,
                    } => {
                        if live.iter().any(|&(u, _)| u == unit) {
                            return err(format!("double stash push for {unit:?}"));
                        }
                        live.push((unit, weight_version));
                        distinct.clear();
                        distinct.extend(live.iter().map(|&(_, v)| v));
                        distinct.sort_unstable();
                        distinct.dedup();
                        if distinct.len() > version_budget {
                            return err(format!(
                                "{} distinct weight versions live, budget {}",
                                distinct.len(),
                                version_budget
                            ));
                        }
                    }
                    IrOp::StashPop { unit } => match live.iter().position(|&(u, _)| u == unit) {
                        Some(i) => {
                            live.swap_remove(i);
                        }
                        None => return err(format!("stash pop without push for {unit:?}")),
                    },
                    IrOp::Forward { unit } => fwd[self.unit_index(unit)] += 1,
                    IrOp::FusedFwdLossBwd { unit } => {
                        // Fused pops any spliced-in stash implicitly.
                        live.retain(|&(u, _)| u != unit);
                        fwd[self.unit_index(unit)] += 1;
                        bwd[self.unit_index(unit)] += 1;
                    }
                    IrOp::Recompute { unit } => {
                        if fwd[self.unit_index(unit)] == 0 {
                            return err(format!("recompute before forward for {unit:?}"));
                        }
                    }
                    IrOp::Backward { unit } => {
                        if fwd[self.unit_index(unit)] == 0 {
                            return err(format!("backward before forward for {unit:?}"));
                        }
                        bwd[self.unit_index(unit)] += 1;
                    }
                    IrOp::ApplyUpdate { units, .. } => applied_units += units as u64,
                    IrOp::Recv { .. } | IrOp::Send { .. } => {}
                }
            }
            if !live.is_empty() {
                return err(format!("{} stash entries never popped", live.len()));
            }
            let expect = n_units as u64;
            let total_fwd: u64 = fwd.iter().map(|&c| c as u64).sum();
            let total_bwd: u64 = bwd.iter().map(|&c| c as u64).sum();
            if total_fwd != expect || fwd.iter().any(|&c| c != 1) {
                return err(format!("forwards cover {total_fwd}/{expect} units"));
            }
            if total_bwd != expect || bwd.iter().any(|&c| c != 1) {
                return err(format!("backwards cover {total_bwd}/{expect} units"));
            }
            if applied_units != expect {
                return err(format!("applies cover {applied_units}/{expect} units"));
            }
        }
        self.validate_links(fwd, bwd)
    }

    /// Units of the whole run: `total` mini-batches of `micro_batches`.
    fn n_units(&self) -> usize {
        (self.total * self.micro_batches as u64) as usize
    }

    /// A unit's slot in a per-unit table, its wire id. `validate` has
    /// checked that the unit is in range.
    fn unit_index(&self, unit: UnitId) -> usize {
        unit.wire(self.micro_batches) as usize
    }

    /// Link matching, after [`Program::validate`] has checked every op's
    /// unit is in range. `sent` and `recvd` are per-unit tables of
    /// `n_units` entries, reused as frame counts.
    fn validate_links(&self, mut sent: Vec<u32>, mut recvd: Vec<u32>) -> Result<(), String> {
        // Frames per unit of `payload` that stage `s` sends (or receives).
        let count = |counts: &mut Vec<u32>, s: usize, want_send: bool, payload: Payload| {
            counts.fill(0);
            for op in &self.stages[s].ops {
                let hit = match (op, want_send) {
                    (IrOp::Send { payload: p, unit }, true) if *p == payload => Some(*unit),
                    (IrOp::Recv { payload: p, unit }, false) if *p == payload => Some(*unit),
                    _ => None,
                };
                if let Some(u) = hit {
                    counts[self.unit_index(u)] += 1;
                }
            }
        };
        for s in 0..self.n_stages.saturating_sub(1) {
            count(&mut sent, s, true, Payload::Act);
            count(&mut recvd, s + 1, false, Payload::Act);
            if sent != recvd {
                return Err(format!(
                    "activation sends at stage {s} do not match recvs at stage {}",
                    s + 1
                ));
            }
            count(&mut sent, s + 1, true, Payload::Grad);
            count(&mut recvd, s, false, Payload::Grad);
            if sent != recvd {
                return Err(format!(
                    "gradient sends at stage {} do not match recvs at stage {s}",
                    s + 1
                ));
            }
        }
        // Weight-state recvs (upstream moves block explicitly) need a
        // matching send somewhere; downstream moves send without an
        // explicit recv (opportunistic delivery).
        let frames = |want_send: bool| -> usize {
            self.stages
                .iter()
                .flat_map(|sp| &sp.ops)
                .filter(|op| match (op, want_send) {
                    (IrOp::Send { payload, .. }, true) | (IrOp::Recv { payload, .. }, false) => {
                        *payload == Payload::WeightState
                    }
                    _ => false,
                })
                .count()
        };
        if frames(false) > frames(true) {
            return Err("weight-state recv without matching send".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn shapes() -> Vec<(usize, u64, usize)> {
        vec![(1, 5, 2), (2, 8, 3), (3, 12, 3), (4, 10, 4), (3, 1, 2)]
    }

    #[test]
    fn every_kind_generates_a_well_formed_program() {
        for kind in ScheduleKind::zoo() {
            for (s, total, inf) in shapes() {
                let p = generate(kind, s, total, inf);
                p.validate()
                    .unwrap_or_else(|e| panic!("{} S={s} total={total}: {e}", kind.label()));
            }
        }
    }

    #[test]
    fn a_unit_past_the_micro_batch_count_is_rejected() {
        // validate() indexes per-unit tables by wire id; a micro-batch
        // index out of range must be an error, for every kind of op.
        for (stage, op) in [
            (
                0,
                IrOp::Forward {
                    unit: UnitId::new(0, 4),
                },
            ),
            (
                1,
                IrOp::Recv {
                    payload: Payload::Act,
                    unit: UnitId::new(1, 7),
                },
            ),
        ] {
            let mut p = generate(ScheduleKind::Dapple { micro_batches: 4 }, 2, 3, 2);
            assert!(p.validate().is_ok());
            p.stages[stage].ops.push(op);
            let e = p.validate().unwrap_err();
            assert!(e.contains("micro out of range"), "{e}");
        }
    }

    #[test]
    fn every_send_matches_a_recv_on_the_peer_stage() {
        // validate() checks this; break a program and watch it fail.
        let mut p = generate(ScheduleKind::PipeDreamAsync, 3, 6, 2);
        assert!(p.validate().is_ok());
        let pos = p.stages[1]
            .ops
            .iter()
            .position(|o| {
                matches!(
                    o,
                    IrOp::Recv {
                        payload: Payload::Act,
                        ..
                    }
                )
            })
            .unwrap();
        p.stages[1].ops.remove(pos);
        let e = p.validate().unwrap_err();
        assert!(e.contains("do not match"), "{e}");
    }

    #[test]
    fn stash_depth_stays_within_weight_version_budget() {
        // Checked inside validate(); also verify the peak is *reached*
        // for PipeDream (in_flight distinct versions at stage 0).
        let inf = 4;
        let p = generate(ScheduleKind::PipeDreamAsync, 3, 12, inf);
        let mut live = BTreeSet::new();
        let mut peak = 0;
        for op in &p.stages[0].ops {
            match op {
                IrOp::StashPush { unit, .. } => {
                    live.insert(*unit);
                    peak = peak.max(live.len());
                }
                IrOp::StashPop { unit } => {
                    live.remove(unit);
                }
                _ => {}
            }
        }
        assert_eq!(peak, inf);
    }

    #[test]
    fn two_bw_keeps_at_most_two_weight_versions_live() {
        let p = generate(ScheduleKind::PipeDream2Bw, 3, 24, 3);
        p.validate().unwrap();
        for sp in &p.stages {
            let mut live: BTreeMap<UnitId, u64> = BTreeMap::new();
            for op in &sp.ops {
                match op {
                    IrOp::StashPush {
                        unit,
                        weight_version,
                    } => {
                        live.insert(*unit, *weight_version);
                        let distinct: BTreeSet<u64> = live.values().copied().collect();
                        assert!(distinct.len() <= 2, "stage {}", sp.stage);
                    }
                    IrOp::StashPop { unit } | IrOp::FusedFwdLossBwd { unit } => {
                        live.remove(unit);
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn two_bw_applies_once_per_generation() {
        let (total, inf) = (7u64, 3usize);
        let p = generate(ScheduleKind::PipeDream2Bw, 2, total, inf);
        let applies: Vec<(u64, u32)> = p.stages[0]
            .ops
            .iter()
            .filter_map(|o| match o {
                IrOp::ApplyUpdate { mb, units } => Some((*mb, *units)),
                _ => None,
            })
            .collect();
        // Generations: [0..3) [3..6) [6..7).
        assert_eq!(applies, vec![(2, 3), (5, 3), (6, 1)]);
    }

    #[test]
    fn fused_ops_never_stash_outside_a_splice() {
        for kind in ScheduleKind::zoo() {
            let p = generate(kind, 3, 8, 3);
            for sp in &p.stages {
                let fused: BTreeSet<UnitId> = sp
                    .ops
                    .iter()
                    .filter_map(|o| match o {
                        IrOp::FusedFwdLossBwd { unit } => Some(*unit),
                        _ => None,
                    })
                    .collect();
                for op in &sp.ops {
                    if let IrOp::StashPush { unit, .. } = op {
                        assert!(
                            !fused.contains(unit),
                            "{} stage {} stashes fused {unit:?}",
                            kind.label(),
                            sp.stage
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gpipe_recomputes_every_backward_and_never_fuses() {
        let kind = ScheduleKind::GPipe { micro_batches: 4 };
        let p = generate(kind, 3, 5, 3);
        for sp in &p.stages {
            assert!(!sp
                .ops
                .iter()
                .any(|o| matches!(o, IrOp::FusedFwdLossBwd { .. })));
            let recomputes = sp
                .ops
                .iter()
                .filter(|o| matches!(o, IrOp::Recompute { .. }))
                .count();
            let backwards = sp
                .ops
                .iter()
                .filter(|o| matches!(o, IrOp::Backward { .. }))
                .count();
            assert_eq!(recomputes, backwards, "stage {}", sp.stage);
            assert_eq!(recomputes, 5 * 4);
        }
    }

    #[test]
    fn chimera_program_matches_dapple() {
        let a = generate(ScheduleKind::Dapple { micro_batches: 4 }, 3, 6, 3);
        let b = generate(ScheduleKind::Chimera { micro_batches: 4 }, 3, 6, 3);
        assert_eq!(a.stages[1].ops, b.stages[1].ops);
    }

    #[test]
    fn splice_inserts_send_before_cutover_forward_group() {
        let sp = SpliceSpec {
            sender: 0,
            receiver: 1,
            at_mb: 4,
            receiver_waits: false,
        };
        let p = generate_spliced(ScheduleKind::PipeDreamAsync, 3, 12, 3, &sp).unwrap();
        p.validate().unwrap();
        let ops = &p.stages[0].ops;
        let send_pos = ops
            .iter()
            .position(|o| {
                matches!(
                    o,
                    IrOp::Send {
                        payload: Payload::WeightState,
                        ..
                    }
                )
            })
            .unwrap();
        // Immediately after: mini-batch 4's forward group starts.
        assert_eq!(ops[send_pos + 1].mb(), 4);
        assert!(ops[..send_pos].iter().all(|o| o.mb() != 4));
        // Under a splice everything stashes — no direct mini-batches.
        let pushes = ops
            .iter()
            .filter(|o| matches!(o, IrOp::StashPush { .. }))
            .count();
        assert_eq!(pushes, 12);
    }

    #[test]
    fn upstream_splice_adds_receiver_wait() {
        let sp = SpliceSpec {
            sender: 1,
            receiver: 0,
            at_mb: 3,
            receiver_waits: true,
        };
        let p = generate_spliced(ScheduleKind::PipeDreamAsync, 2, 10, 2, &sp).unwrap();
        p.validate().unwrap();
        assert!(p.stages[0].ops.iter().any(|o| matches!(
            o,
            IrOp::Recv {
                payload: Payload::WeightState,
                ..
            }
        )));
    }

    #[test]
    fn splice_rejects_sync_schedules() {
        let sp = SpliceSpec {
            sender: 0,
            receiver: 1,
            at_mb: 2,
            receiver_waits: false,
        };
        for kind in ScheduleKind::zoo() {
            let r = generate_spliced(kind, 3, 8, 3, &sp);
            assert_eq!(r.is_ok(), kind == ScheduleKind::PipeDreamAsync);
        }
    }

    #[test]
    fn wire_ids_are_mini_batch_indices_for_async() {
        assert_eq!(UnitId::new(7, 0).wire(1), 7);
        assert_eq!(UnitId::new(2, 3).wire(4), 11);
    }

    #[test]
    fn direct_set_matches_window_criterion() {
        // in_flight=1 is fully direct; the fused last stage always is.
        let c = coarse_1f1b(0, 2, 3, 1);
        assert_eq!(direct_set(&c).len(), 3);
        let c = coarse_1f1b(2, 3, 8, 3);
        assert_eq!(direct_set(&c).len(), 8);
        // A deep stage interleaves almost every window with other
        // backwards; only mb 0 drains its window (F1, F2) update-free.
        let c = coarse_1f1b(0, 3, 8, 3);
        assert_eq!(direct_set(&c), BTreeSet::from([0]));
    }
}
