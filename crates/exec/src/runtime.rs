//! The pipeline runtime: stage threads replaying a schedule-IR program
//! against real tensors, with weight stashing and live fine-grained state
//! switching.
//!
//! ## One IR, two engines
//!
//! The runtime no longer owns its schedule logic: it asks [`ap_ir`] for
//! the declarative op-program of the requested [`ScheduleKind`]
//! (PipeDream async 1F1B, GPipe with recompute, DAPPLE, Chimera,
//! PipeDream-2BW) and replays each stage's op sequence literally —
//! `Recv`/`Send` become frames on the byte channels, `StashPush` becomes
//! a master snapshot, `Forward`/`Backward`/`FusedFwdLossBwd`/`Recompute`
//! become real matrix math, `ApplyUpdate` becomes SGD on the master
//! weights. ap-mem walks the *same* program for its modeled peak bytes
//! (DESIGN.md §10), so the memory model and execution cannot drift apart
//! on what a schedule does.
//!
//! ## Threading model
//!
//! Each pipeline stage is one OS thread owning a contiguous slice of the
//! model. Adjacent stages are connected by two bounded byte channels (one
//! per direction); every activation, gradient and migration payload is
//! serialized through the codec, so the byte counters measure what really
//! crossed the wire. A stage executes its static op program, blocking on
//! exactly the frame each `Recv` needs — making all weight-update
//! sequences, and therefore losses and final weights, independent of
//! thread timing.
//!
//! ## Weight stashing
//!
//! A `StashPush` for unit `u` snapshots the stage's master weights; the
//! snapshot (which also accumulates the layer input caches during `u`'s
//! forward) backs `u`'s backward — PipeDream weight-stashing semantics.
//! A retired snapshot goes back to the stage for the next push to copy
//! into, so stashing costs a copy, not an allocation.
//! Units whose program carries no `StashPush` run directly on the master
//! (the IR generator only omits the push when no other unit's update can
//! land inside the forward→backward window, so the master *is* the
//! stash). Deferred-apply schedules (GPipe/DAPPLE/Chimera/2BW) accumulate
//! unit gradients into the master's gradient buffers and fold them in at
//! `ApplyUpdate` with the per-unit learning rate `lr / units`.
//!
//! ## Live migration (§4.4)
//!
//! A [`SwitchSpec`] moves the boundary between two adjacent stages at a
//! planned cutover mini-batch `X` while the pipeline keeps admitting
//! work. In the IR this is a *splice* ([`ap_ir::generate_spliced`]): a
//! `Send WeightState` before `X`'s forward group at the old owner — the
//! master copy first (the *latest* version, letting the new owner forward
//! `X` immediately), then every stashed version newest-first ("the weight
//! copy of later active mini-batch first") — over the regular data
//! channel, so the traffic genuinely contends with activations.
//! In-flight mini-batches back-propagate through the old owner's retained
//! stash copies; their updates to the moved block travel as
//! [`Frame::Delta`]s and are applied by the new owner strictly in
//! mini-batch order via a sequencer. Nothing ever waits for the pipeline
//! to empty: a drain-free invariant (in-flight ≥ 1) is sampled at every
//! migration tick.

use crate::channel::{ByteChannel, ChannelStats};
use crate::codec::{decode_view, encode_into, Frame, FrameView, LayerBlob};
use crate::profiler::{metrics_from_times, LayerTimes};
use ap_ir::{generate, generate_spliced, IrOp, Payload, SpliceSpec, UnitId};
use ap_nn::mlp::MlpWeights;
use ap_nn::{mse_loss, ActKind, Linear, Matrix, Mlp};
use ap_pipesim::{ScheduleKind, TimelineSegment, WorkKind};
use ap_rng::Rng;
use autopipe::ProfilingMetrics;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Runtime error (stage failures carry the stage index in the message).
pub type ExecError = String;

/// A planned live reconfiguration: at mini-batch `at_mb`, the stage
/// boundaries become `new_cuts`. Exactly one boundary may shift (a
/// contiguous layer block moving between two adjacent stages).
#[derive(Debug, Clone)]
pub struct SwitchSpec {
    /// First mini-batch routed under the new partition.
    pub at_mb: u64,
    /// New interior stage boundaries.
    pub new_cuts: Vec<usize>,
}

/// Full description of one pipeline run.
#[derive(Debug, Clone)]
pub struct ExecSpec {
    /// MLP widths, `[in, h1, ..., out]` — layer `j` maps width `j` to
    /// `j+1`.
    pub sizes: Vec<usize>,
    /// Hidden activation.
    pub act: ActKind,
    /// Weight-init and data seed.
    pub seed: u64,
    /// Rows per mini-batch.
    pub batch: usize,
    /// SGD learning rate (stateless SGD; no optimizer state to migrate).
    pub lr: f64,
    /// Interior stage boundaries (ascending layer indices); empty = one
    /// stage.
    pub cuts: Vec<usize>,
    /// Pipeline schedule to replay. Sync kinds split each mini-batch into
    /// `schedule.micro_batches()` row slices; `batch` must divide evenly.
    pub schedule: ScheduleKind,
    /// Mini-batches admitted concurrently (1F1B depth; also the number of
    /// stashed weight versions for async schedules).
    pub in_flight: usize,
    /// Mini-batches to train.
    pub total: u64,
    /// Channel bandwidth throttle, bytes/second (`None` = host memory
    /// speed).
    pub bytes_per_sec: Option<f64>,
    /// The training set cycles through this many distinct mini-batches.
    pub distinct_batches: u64,
    /// Optional live reconfiguration (PipeDream async only).
    pub switch: Option<SwitchSpec>,
    /// Record per-op wall-clock segments (chrome-trace export).
    pub record_timeline: bool,
}

impl ExecSpec {
    /// Layer count.
    pub fn n_layers(&self) -> usize {
        self.sizes.len() - 1
    }

    /// Stage count.
    pub fn n_stages(&self) -> usize {
        self.cuts.len() + 1
    }

    /// Stage boundaries including 0 and `n_layers`.
    fn starts(&self) -> Vec<usize> {
        let mut s = Vec::with_capacity(self.cuts.len() + 2);
        s.push(0);
        s.extend_from_slice(&self.cuts);
        s.push(self.n_layers());
        s
    }

    fn validate(&self) -> Result<(), ExecError> {
        if self.sizes.len() < 2 {
            return Err("need at least one layer".into());
        }
        if self.batch == 0 || self.total == 0 || self.distinct_batches == 0 {
            return Err("batch, total and distinct_batches must be positive".into());
        }
        if self.in_flight == 0 {
            return Err("in_flight must be at least 1".into());
        }
        let m = self.schedule.micro_batches();
        if !self.batch.is_multiple_of(m) {
            return Err(format!(
                "batch {} must divide evenly into {m} micro-batches",
                self.batch
            ));
        }
        let starts = self.starts();
        for w in starts.windows(2) {
            if w[0] >= w[1] {
                return Err(format!(
                    "cuts must be strictly ascending in (0, {})",
                    self.n_layers()
                ));
            }
        }
        if let Some(sw) = &self.switch {
            if self.schedule != ScheduleKind::PipeDreamAsync {
                return Err(format!(
                    "live switching requires the pipedream_async schedule (got {})",
                    self.schedule.id()
                ));
            }
            plan_move(self, sw)?;
        }
        Ok(())
    }
}

/// Resolved migration plan derived from a [`SwitchSpec`].
#[derive(Debug, Clone)]
struct MovePlan {
    /// Old owner stage.
    a: usize,
    /// New owner stage.
    b: usize,
    /// Global layer indices migrating.
    moved: Range<usize>,
    /// True if the block moves to the *downstream* neighbor (migration
    /// frames ride the forward channel), false for upstream (backward
    /// channel).
    downstream: bool,
    /// Cutover mini-batch.
    at_mb: u64,
}

fn plan_move(spec: &ExecSpec, sw: &SwitchSpec) -> Result<MovePlan, ExecError> {
    if sw.new_cuts.len() != spec.cuts.len() {
        return Err("switch must keep the stage count".into());
    }
    if sw.at_mb == 0 || sw.at_mb >= spec.total {
        return Err(format!(
            "cutover mini-batch must be in 1..{} (got {})",
            spec.total, sw.at_mb
        ));
    }
    let diffs: Vec<usize> = (0..spec.cuts.len())
        .filter(|&i| spec.cuts[i] != sw.new_cuts[i])
        .collect();
    if diffs.len() != 1 {
        return Err("switch must move exactly one stage boundary".into());
    }
    let i = diffs[0];
    let (old_cut, new_cut) = (spec.cuts[i], sw.new_cuts[i]);
    let lo_bound = if i == 0 { 0 } else { spec.cuts[i - 1] };
    let hi_bound = if i + 1 == spec.cuts.len() {
        spec.n_layers()
    } else {
        spec.cuts[i + 1]
    };
    if new_cut <= lo_bound || new_cut >= hi_bound {
        return Err("switch would empty a stage".into());
    }
    if spec.in_flight < 2 {
        return Err("a live switch needs in_flight >= 2 to stay drain-free".into());
    }
    Ok(if new_cut < old_cut {
        // Boundary moves down: top layers of stage i go to stage i+1.
        MovePlan {
            a: i,
            b: i + 1,
            moved: new_cut..old_cut,
            downstream: true,
            at_mb: sw.at_mb,
        }
    } else {
        // Boundary moves up: bottom layers of stage i+1 go to stage i.
        MovePlan {
            a: i + 1,
            b: i,
            moved: old_cut..new_cut,
            downstream: false,
            at_mb: sw.at_mb,
        }
    })
}

/// Shared migration bookkeeping (sender and receiver threads both write).
#[derive(Debug, Default)]
struct MigrationShared {
    /// In-flight count sampled at every migration tick (frame send or
    /// install).
    samples: Vec<u64>,
    /// Stash versions in send order (must be descending — §4.4).
    versions_sent: Vec<u64>,
    /// Stash versions in install order at the receiver.
    installed: Vec<u64>,
    /// Weight-copy payload bytes (master + stashes; excludes headers,
    /// activations and deltas) — comparable to `SwitchPlan::transfer_bytes`.
    param_bytes: u64,
    /// Every migration frame's full wire size (master + stash + delta).
    wire_bytes: u64,
    /// Seconds since run start when the master copy was sent.
    t_first: Option<f64>,
    /// Seconds since run start when the last version was installed.
    t_last: Option<f64>,
    /// Stash installs expected at the receiver.
    expected: Option<usize>,
}

/// What a live switch did, measured.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// Cutover mini-batch.
    pub cutover_mb: u64,
    /// Old owner stage, new owner stage.
    pub from_stage: usize,
    /// New owner stage.
    pub to_stage: usize,
    /// Global layers moved.
    pub moved_layers: Range<usize>,
    /// Weight copies transferred (1 master + stashed versions).
    pub versions_moved: usize,
    /// Weight-copy payload bytes (measure against the simulator's
    /// `SwitchPlan::transfer_bytes` prediction).
    pub param_bytes: u64,
    /// Total migration bytes on the wire (headers, stashed inputs and
    /// deltas included).
    pub wire_bytes: u64,
    /// Stash versions in send order.
    pub versions_sent: Vec<u64>,
    /// In-flight samples, one per migration tick.
    pub in_flight_samples: Vec<u64>,
    /// Wall-clock seconds from master send to last install.
    pub switch_seconds: f64,
}

impl MigrationReport {
    /// The §4.4 drain-free invariant: at least one mini-batch was in
    /// flight at every migration tick.
    pub fn drain_free(&self) -> bool {
        !self.in_flight_samples.is_empty() && self.in_flight_samples.iter().all(|&s| s >= 1)
    }

    /// Smallest in-flight sample seen during the switch.
    pub fn min_in_flight(&self) -> u64 {
        self.in_flight_samples.iter().copied().min().unwrap_or(0)
    }

    /// Versions were sent newest-first (later active mini-batch first).
    pub fn newest_first(&self) -> bool {
        self.versions_sent.windows(2).all(|w| w[0] > w[1])
    }
}

/// Everything a finished run measured.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Stage count the run started with.
    pub n_stages: usize,
    /// Mini-batches fully trained.
    pub completed: u64,
    /// Per-mini-batch training loss, in mini-batch order (mean over
    /// micro-batches for sync schedules).
    pub losses: Vec<f64>,
    /// Wall-clock duration of the whole run, seconds.
    pub wall_seconds: f64,
    /// Per-mini-batch completion times (seconds since start), in
    /// completion order at stage 0.
    pub completion_times: Vec<f64>,
    /// Forward-channel counters, one per stage boundary.
    pub fwd_channels: Vec<ChannelStats>,
    /// Backward-channel counters, one per stage boundary.
    pub bwd_channels: Vec<ChannelStats>,
    /// Measured Table-1 metrics (per-layer times averaged over the run).
    pub metrics: ProfilingMetrics,
    /// Raw per-layer timing sums.
    pub times: LayerTimes,
    /// Wall-clock timeline segments (empty unless requested).
    pub segments: Vec<TimelineSegment>,
    /// Final master weights per stage as `(first_global_layer, weights)`,
    /// in stage order.
    pub final_weights: Vec<(usize, MlpWeights)>,
    /// Measured peak resident bytes per stage: master + stashed + popped
    /// weight clones (parameters, gradient buffers and layer input
    /// caches) plus every staged activation/gradient matrix, sampled
    /// after each schedule op. Deterministic — the op order and the FIFO
    /// channel discipline pin what is resident when — so it is directly
    /// comparable to `ap-mem`'s modeled peak.
    pub peak_stage_bytes: Vec<u64>,
    /// Migration measurements, if a switch ran.
    pub migration: Option<MigrationReport>,
}

impl ExecResult {
    /// Mini-batches per second over the whole run.
    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.wall_seconds.max(1e-12)
    }

    /// Steady-state throughput: drop the first `skip` completions (pipeline
    /// fill) and measure the rest against the remaining wall time.
    pub fn steady_throughput(&self, skip: usize) -> f64 {
        if self.completion_times.len() <= skip + 1 {
            return self.throughput();
        }
        let t0 = self.completion_times[skip];
        let t1 = *self.completion_times.last().unwrap();
        (self.completion_times.len() - skip - 1) as f64 / (t1 - t0).max(1e-12)
    }

    /// Total bytes that crossed all inter-stage channels.
    pub fn total_wire_bytes(&self) -> u64 {
        self.fwd_channels
            .iter()
            .chain(&self.bwd_channels)
            .map(|c| c.bytes)
            .sum()
    }
}

const DATA_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
const TARGET_SALT: u64 = 0x517c_c1b7_2722_0a95;

fn gen_matrix(seed: u64, rows: usize, cols: usize) -> Matrix {
    let mut rng = Rng::seed_from_u64(seed);
    let mut m = Matrix::scratch(rows, cols);
    for v in m.data_mut() {
        *v = rng.gen_range(-1.0..1.0);
    }
    m
}

fn gen_input(spec: &ExecSpec, mb: u64) -> Matrix {
    gen_matrix(
        spec.seed ^ DATA_SALT.wrapping_mul(1 + mb % spec.distinct_batches),
        spec.batch,
        spec.sizes[0],
    )
}

fn gen_target(spec: &ExecSpec, mb: u64) -> Matrix {
    gen_matrix(
        spec.seed ^ TARGET_SALT.wrapping_mul(1 + mb % spec.distinct_batches),
        spec.batch,
        *spec.sizes.last().unwrap(),
    )
}

/// The exact (input, target) pair stage 0 / the last stage synthesize for
/// mini-batch `mb` — public so a sequential reference run can train on
/// bit-identical data.
pub fn training_batch(spec: &ExecSpec, mb: u64) -> (Matrix, Matrix) {
    (gen_input(spec, mb), gen_target(spec, mb))
}

/// Applies moved-block updates strictly in mini-batch order: deltas from
/// the old owner for in-flight mini-batches, then the new owner's own
/// gradients, interleave into one totally ordered sequence.
#[derive(Debug)]
struct Sequencer {
    next: u64,
    pending: BTreeMap<u64, Vec<(usize, Matrix, Matrix)>>,
}

/// One stashed weight version: the cloned sub-network plus the global
/// index of its first layer (ownership ranges change across a switch).
struct StashEntry {
    lo: usize,
    net: Mlp,
}

enum Role {
    None,
    Sender,
    Receiver,
}

struct StageOut {
    lo: usize,
    weights: MlpWeights,
    times: LayerTimes,
    segments: Vec<TimelineSegment>,
    losses: Vec<(u64, f64)>,
    completions: Vec<f64>,
    peak_bytes: u64,
}

/// Resident bytes of one matrix (payload only; the struct header is
/// noise at tensor sizes).
fn matrix_bytes(m: &Matrix) -> u64 {
    (m.data().len() * 8) as u64
}

/// Resident bytes of a network clone: weight and bias values, gradient
/// buffers, and whatever layer input caches the last forward left warm.
fn mlp_bytes(net: &Mlp) -> u64 {
    (0..net.n_layers())
        .map(|i| {
            let l = net.layer(i);
            let mut b = matrix_bytes(&l.w.value)
                + matrix_bytes(&l.w.grad)
                + matrix_bytes(&l.b.value)
                + matrix_bytes(&l.b.grad);
            if let Some(c) = net.layer_input(i) {
                b += matrix_bytes(c);
            }
            b
        })
        .sum()
}

struct Stage<'a> {
    s: usize,
    last: bool,
    spec: &'a ExecSpec,
    /// The schedule being replayed (cached off the spec).
    kind: ScheduleKind,
    /// Micro-batches per mini-batch (1 for async schedules).
    m: usize,
    lo: usize,
    master: Mlp,
    stash: BTreeMap<UnitId, StashEntry>,
    /// Retired stash networks, reused by the next `StashPush`.
    spare_nets: Vec<Mlp>,
    migrated_stash: BTreeMap<u64, Mlp>,
    fwd_in: Option<&'a ByteChannel>,
    fwd_out: Option<&'a ByteChannel>,
    bwd_in: Option<&'a ByteChannel>,
    bwd_out: Option<&'a ByteChannel>,
    act_buf: VecDeque<(u64, Matrix)>,
    grad_buf: VecDeque<(u64, Matrix)>,
    /// Received activations waiting for their `Forward`/`Fused` op.
    pending_act: BTreeMap<UnitId, Matrix>,
    /// Forward outputs waiting for their `Send Act` op.
    staged_out: BTreeMap<UnitId, Matrix>,
    /// Received gradients waiting for their `Backward` op.
    grad_in: BTreeMap<UnitId, Matrix>,
    /// Backward input-gradients waiting for their `Send Grad` op.
    grad_out: BTreeMap<UnitId, Matrix>,
    /// GPipe loss stage: recomputed outputs waiting for their backward.
    recomputed: BTreeMap<UnitId, Matrix>,
    /// Stash entries between `StashPop`/`Fused` and their `ApplyUpdate`
    /// (PipeDream) or `Recompute`/`Backward` (sync kinds).
    cur: BTreeMap<UnitId, StashEntry>,
    /// Per-mini-batch micro-loss accumulator (sync kinds report the mean).
    loss_acc: BTreeMap<u64, (f64, u32)>,
    plan: Option<&'a MovePlan>,
    role: Role,
    migrated: bool,
    seq: Option<Sequencer>,
    /// Receiver only: in-flight mini-batches whose moved-layer delta has
    /// not arrived yet.
    outstanding: BTreeSet<u64>,
    mig: &'a Mutex<MigrationShared>,
    in_flight: &'a AtomicU64,
    t0: Instant,
    times: LayerTimes,
    segments: Vec<TimelineSegment>,
    losses: Vec<(u64, f64)>,
    completions: Vec<f64>,
    /// High-water resident bytes, sampled after every op.
    peak_bytes: u64,
}

impl<'a> Stage<'a> {
    fn owns(&self, global_layer: usize) -> bool {
        global_layer >= self.lo && global_layer < self.lo + self.master.n_layers()
    }

    fn is_received_moved(&self, global_layer: usize) -> bool {
        matches!(self.role, Role::Receiver)
            && self.migrated
            && self.plan.is_some_and(|p| p.moved.contains(&global_layer))
    }

    fn err(&self, msg: impl Into<String>) -> ExecError {
        format!("stage {}: {}", self.s, msg.into())
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn send_on(&self, chan: Option<&ByteChannel>, frame: &Frame) -> Result<usize, ExecError> {
        let chan =
            chan.ok_or_else(|| self.err(format!("no channel for {} frame", frame.kind())))?;
        // Encode into a recycled channel buffer: in steady state the
        // receiver keeps returning warmed buffers, so a send allocates
        // nothing. Wire bytes are identical to a fresh `encode`.
        let mut bytes = chan.take_buffer();
        encode_into(frame, &mut bytes);
        let len = bytes.len();
        chan.send(bytes).map_err(|e| self.err(e))?;
        Ok(len)
    }

    /// The channel migration frames ride for this stage's role.
    fn migration_channel(&self) -> Option<&'a ByteChannel> {
        let p = self.plan?;
        match self.role {
            Role::Sender => {
                if p.downstream {
                    self.fwd_out
                } else {
                    self.bwd_out
                }
            }
            Role::Receiver => {
                if p.downstream {
                    self.fwd_in
                } else {
                    self.bwd_in
                }
            }
            Role::None => None,
        }
    }

    fn apply_update(&mut self, global_layer: usize, dw: &Matrix, db: &Matrix) {
        let li = global_layer - self.lo;
        let lr = self.spec.lr;
        let l = self.master.layer_mut(li);
        l.w.value.axpy(-lr, dw);
        l.b.value.axpy(-lr, db);
    }

    fn seq_insert(
        &mut self,
        mb: u64,
        updates: Vec<(usize, Matrix, Matrix)>,
    ) -> Result<(), ExecError> {
        if self.seq.is_none() {
            return Err(self.err("moved-layer update before master install"));
        }
        self.seq.as_mut().unwrap().pending.insert(mb, updates);
        // Drain everything now in order.
        loop {
            let next = self.seq.as_ref().unwrap().next;
            let Some(batch) = self.seq.as_mut().unwrap().pending.remove(&next) else {
                break;
            };
            for (gl, dw, db) in batch {
                self.apply_update(gl, &dw, &db);
            }
            self.seq.as_mut().unwrap().next += 1;
        }
        Ok(())
    }

    fn handle_ctrl(&mut self, frame: Frame) -> Result<(), ExecError> {
        match frame {
            Frame::Master {
                first_layer,
                layers,
                pending,
            } => {
                if !matches!(self.role, Role::Receiver) {
                    return Err(self.err("unexpected master frame"));
                }
                let plan = self.plan.unwrap();
                let moved: Vec<Linear> = layers
                    .iter()
                    .map(|b| Linear::from_weights(b.w.clone(), b.b.clone()))
                    .collect();
                let kinds: Vec<ActKind> = layers.iter().map(|b| b.act).collect();
                let n = self.master.n_layers();
                let (mut new_layers, mut new_kinds) = (Vec::new(), Vec::new());
                if (first_layer as usize) < self.lo {
                    // Downstream move: block attaches below us.
                    new_layers.extend(moved);
                    new_kinds.extend(kinds);
                    for i in 0..n {
                        new_layers.push(self.master.layer(i).cold_clone());
                        new_kinds.push(self.master.act_kind(i));
                    }
                    self.lo = first_layer as usize;
                } else {
                    // Upstream move: block attaches on top.
                    for i in 0..n {
                        new_layers.push(self.master.layer(i).cold_clone());
                        new_kinds.push(self.master.act_kind(i));
                    }
                    new_layers.extend(moved);
                    new_kinds.extend(kinds);
                }
                self.master = Mlp::from_parts(new_layers, &new_kinds);
                self.seq = Some(Sequencer {
                    next: pending.first().copied().unwrap_or(plan.at_mb),
                    pending: BTreeMap::new(),
                });
                self.outstanding = pending.iter().copied().collect();
                self.migrated = true;
                let mut m = self.mig.lock().unwrap();
                m.samples.push(self.in_flight.load(Ordering::SeqCst));
                m.expected = Some(pending.len());
                if pending.is_empty() {
                    m.t_last = Some(self.now());
                }
                Ok(())
            }
            Frame::Stash {
                mb,
                first_layer: _,
                layers,
                input,
            } => {
                if !matches!(self.role, Role::Receiver) {
                    return Err(self.err("unexpected stash frame"));
                }
                let ls: Vec<Linear> = layers
                    .iter()
                    .map(|b| Linear::from_weights(b.w.clone(), b.b.clone()))
                    .collect();
                let kinds: Vec<ActKind> = layers.iter().map(|b| b.act).collect();
                let mut net = Mlp::from_parts(ls, &kinds);
                // Rebuild the version's backward state by recomputing its
                // forward from the shipped input activation.
                let _ = net.forward(&input);
                self.migrated_stash.insert(mb, net);
                let mut m = self.mig.lock().unwrap();
                m.installed.push(mb);
                m.samples.push(self.in_flight.load(Ordering::SeqCst));
                if Some(m.installed.len()) == m.expected {
                    m.t_last = Some(self.now());
                }
                Ok(())
            }
            Frame::Delta {
                mb,
                first_layer,
                grads,
            } => {
                // This in-flight mini-batch retired at the old owner; its
                // migrated stash copy is obsolete.
                self.migrated_stash.remove(&mb);
                self.outstanding.remove(&mb);
                let updates: Vec<(usize, Matrix, Matrix)> = grads
                    .into_iter()
                    .enumerate()
                    .map(|(i, (dw, db))| (first_layer as usize + i, dw, db))
                    .collect();
                self.seq_insert(mb, updates)
            }
            other => Err(self.err(format!("unexpected {} frame", other.kind()))),
        }
    }

    fn next_act(&mut self, mb: u64) -> Result<Matrix, ExecError> {
        if let Some(pos) = self.act_buf.iter().position(|(v, _)| *v == mb) {
            return Ok(self.act_buf.remove(pos).unwrap().1);
        }
        loop {
            let chan = self.fwd_in.ok_or_else(|| self.err("no forward input"))?;
            let bytes = chan
                .recv()
                .ok_or_else(|| self.err("forward channel closed"))?;
            let got = match decode_view(&bytes).map_err(|e| self.err(e))? {
                FrameView::Act { mb: v, data } if v == mb => Some(data.to_matrix()),
                FrameView::Act { mb: v, data } => {
                    self.act_buf.push_back((v, data.to_matrix()));
                    None
                }
                FrameView::Grad { .. } => return Err(self.err("unexpected grad frame")),
                FrameView::Control(ctrl) => {
                    self.handle_ctrl(ctrl)?;
                    None
                }
            };
            chan.recycle(bytes);
            if let Some(data) = got {
                return Ok(data);
            }
        }
    }

    fn next_grad(&mut self, mb: u64) -> Result<Matrix, ExecError> {
        if let Some(pos) = self.grad_buf.iter().position(|(v, _)| *v == mb) {
            return Ok(self.grad_buf.remove(pos).unwrap().1);
        }
        loop {
            let chan = self.bwd_in.ok_or_else(|| self.err("no backward input"))?;
            let bytes = chan
                .recv()
                .ok_or_else(|| self.err("backward channel closed"))?;
            let got = match decode_view(&bytes).map_err(|e| self.err(e))? {
                FrameView::Grad { mb: v, data } if v == mb => Some(data.to_matrix()),
                FrameView::Grad { mb: v, data } => {
                    self.grad_buf.push_back((v, data.to_matrix()));
                    None
                }
                FrameView::Act { .. } => return Err(self.err("unexpected act frame")),
                FrameView::Control(ctrl) => {
                    self.handle_ctrl(ctrl)?;
                    None
                }
            };
            chan.recycle(bytes);
            if let Some(data) = got {
                return Ok(data);
            }
        }
    }

    /// Upstream-move receiver: block on the backward channel until the
    /// master copy arrives (buffering any gradients popped on the way).
    fn wait_master(&mut self) -> Result<(), ExecError> {
        while !self.migrated {
            let chan = self.bwd_in.ok_or_else(|| self.err("no backward input"))?;
            let bytes = chan
                .recv()
                .ok_or_else(|| self.err("backward channel closed"))?;
            match decode_view(&bytes).map_err(|e| self.err(e))? {
                FrameView::Grad { mb, data } => self.grad_buf.push_back((mb, data.to_matrix())),
                FrameView::Act { .. } => return Err(self.err("unexpected act frame")),
                FrameView::Control(ctrl) => self.handle_ctrl(ctrl)?,
            }
            chan.recycle(bytes);
        }
        Ok(())
    }

    fn record_segment(&mut self, unit: u64, kind: WorkKind, start: f64) {
        if self.spec.record_timeline {
            self.segments.push(TimelineSegment {
                worker: self.s,
                unit,
                kind,
                start,
                end: self.now(),
            });
        }
    }

    /// Rows of `full` belonging to micro-batch `micro` (the whole matrix
    /// when the schedule doesn't micro-batch).
    fn micro_rows(&self, full: Matrix, micro: u32) -> Matrix {
        if self.m == 1 {
            return full;
        }
        let rows = full.rows() / self.m;
        let cols = full.cols();
        let lo = micro as usize * rows * cols;
        let mut part = Matrix::scratch(rows, cols);
        part.data_mut()
            .copy_from_slice(&full.data()[lo..lo + rows * cols]);
        full.recycle();
        part
    }

    /// The input activation for a unit: synthesized at stage 0 (admitting
    /// the mini-batch on its first micro), received otherwise.
    fn take_input(&mut self, unit: UnitId) -> Result<Matrix, ExecError> {
        if self.s == 0 {
            if unit.micro == 0 {
                self.in_flight.fetch_add(1, Ordering::SeqCst);
            }
            Ok(self.micro_rows(gen_input(self.spec, unit.mb), unit.micro))
        } else {
            self.pending_act
                .remove(&unit)
                .ok_or_else(|| self.err(format!("no received activation for {unit:?}")))
        }
    }

    /// The MSE loss of a unit's output against its target, and its
    /// gradient; the output and target buffers are recycled.
    fn loss(&self, h: Matrix, unit: UnitId) -> (f64, Matrix) {
        let target = self.micro_rows(gen_target(self.spec, unit.mb), unit.micro);
        let out = mse_loss(&h, &target);
        h.recycle();
        target.recycle();
        out
    }

    /// Record one mini-batch loss: directly for async schedules, as the
    /// mean over micro-batches once all of them reported for sync ones.
    fn push_loss(&mut self, mb: u64, loss: f64) {
        if self.m == 1 {
            self.losses.push((mb, loss));
            return;
        }
        let e = self.loss_acc.entry(mb).or_insert((0.0, 0));
        e.0 += loss;
        e.1 += 1;
        if e.1 as usize == self.m {
            let (sum, _) = self.loss_acc.remove(&mb).unwrap();
            self.losses.push((mb, sum / self.m as f64));
        }
    }

    fn op_recv(&mut self, payload: Payload, unit: UnitId) -> Result<(), ExecError> {
        match payload {
            Payload::Act => {
                let x = self.next_act(unit.wire(self.m))?;
                self.pending_act.insert(unit, x);
            }
            Payload::Grad => {
                let g = self.next_grad(unit.wire(self.m))?;
                self.grad_in.insert(unit, g);
            }
            Payload::WeightState => self.wait_master()?,
        }
        Ok(())
    }

    fn op_send(&mut self, payload: Payload, unit: UnitId) -> Result<(), ExecError> {
        match payload {
            Payload::Act => {
                let data = self
                    .staged_out
                    .remove(&unit)
                    .ok_or_else(|| self.err(format!("no staged activation for {unit:?}")))?;
                let frame = Frame::Act {
                    mb: unit.wire(self.m),
                    data,
                };
                self.send_on(self.fwd_out, &frame)?;
                frame.recycle();
            }
            Payload::Grad => {
                let data = self
                    .grad_out
                    .remove(&unit)
                    .ok_or_else(|| self.err(format!("no staged gradient for {unit:?}")))?;
                let frame = Frame::Grad {
                    mb: unit.wire(self.m),
                    data,
                };
                self.send_on(self.bwd_out, &frame)?;
                frame.recycle();
            }
            Payload::WeightState => self.send_migration()?,
        }
        Ok(())
    }

    /// Snapshot the master for a unit, into a retired stash network when
    /// one is spare (`clone_from` copies into its buffers). The copy's
    /// gradient buffers are zeroed: deferred-apply schedules accumulate
    /// unit gradients in the *master's* buffers between applies, and a
    /// stash must start clean (for PipeDream the buffers are already
    /// zero, so this is a bitwise no-op).
    fn op_stash_push(&mut self, unit: UnitId) {
        let mut net = match self.spare_nets.pop() {
            Some(mut net) => {
                net.clone_from(&self.master);
                net
            }
            None => self.master.clone(),
        };
        net.zero_grad();
        self.stash.insert(unit, StashEntry { lo: self.lo, net });
    }

    fn op_stash_pop(&mut self, unit: UnitId) -> Result<(), ExecError> {
        let entry = self
            .stash
            .remove(&unit)
            .ok_or_else(|| self.err(format!("no stashed version for {unit:?}")))?;
        self.cur.insert(unit, entry);
        Ok(())
    }

    /// Timed forward through a network, layer by layer.
    fn timed_forward(times: &mut LayerTimes, net: &mut Mlp, lo: usize, x: Matrix) -> Matrix {
        let mut h = x;
        for i in 0..net.n_layers() {
            let t = Instant::now();
            h = net.forward_range_owned(i..i + 1, h);
            times.fwd(lo + i, t.elapsed().as_secs_f64());
        }
        h
    }

    /// Timed backward through a network, layer by layer (reverse order).
    /// Returns the gradient w.r.t. the network's input, except below
    /// global layer 0: stage 0 has nowhere to send it, so that product is
    /// skipped and the result is `None`.
    fn timed_backward(
        times: &mut LayerTimes,
        net: &mut Mlp,
        lo: usize,
        g0: Matrix,
    ) -> Option<Matrix> {
        let mut g = g0;
        for i in (0..net.n_layers()).rev() {
            let t = Instant::now();
            let dx = net.backward_range_owned(i..i + 1, g, lo + i > 0);
            times.bwd(lo + i, t.elapsed().as_secs_f64());
            g = dx?;
        }
        Some(g)
    }

    fn op_forward(&mut self, unit: UnitId) -> Result<(), ExecError> {
        let x = self.take_input(unit)?;
        let start = self.now();
        let h = if let Some(mut entry) = self.stash.remove(&unit) {
            let h = Self::timed_forward(&mut self.times, &mut entry.net, entry.lo, x);
            self.stash.insert(unit, entry);
            h
        } else {
            // No snapshot scheduled: the master *is* the stash (the IR
            // generator guarantees no update lands before this unit's
            // backward).
            Self::timed_forward(&mut self.times, &mut self.master, self.lo, x)
        };
        self.record_segment(unit.wire(self.m), WorkKind::Forward, start);
        if self.last {
            // GPipe's loss stage runs a plain (unfused) forward phase: the
            // output is discarded — activation discard is the point — and
            // the loss comes from the recompute in the backward phase.
            h.recycle();
        } else {
            self.staged_out.insert(unit, h);
        }
        Ok(())
    }

    /// The last-stage fusion: forward, loss and backward as one atomic
    /// op. On the stashed path (only under a migration splice) the entry
    /// is kept for the `ApplyUpdate` that routes its gradients.
    fn op_fused(&mut self, unit: UnitId) -> Result<(), ExecError> {
        let x = self.take_input(unit)?;
        let w = unit.wire(self.m);
        let start = self.now();
        if let Some(mut entry) = self.stash.remove(&unit) {
            let h = Self::timed_forward(&mut self.times, &mut entry.net, entry.lo, x);
            self.record_segment(w, WorkKind::Forward, start);
            let (loss, g0) = self.loss(h, unit);
            self.push_loss(unit.mb, loss);
            let start = self.now();
            let g = Self::timed_backward(&mut self.times, &mut entry.net, entry.lo, g0);
            self.record_segment(w, WorkKind::Backward, start);
            self.cur.insert(unit, entry);
            if let Some(g) = g {
                self.grad_out.insert(unit, g);
            }
        } else {
            let h = Self::timed_forward(&mut self.times, &mut self.master, self.lo, x);
            self.record_segment(w, WorkKind::Forward, start);
            let (loss, g0) = self.loss(h, unit);
            self.push_loss(unit.mb, loss);
            let start = self.now();
            let g = Self::timed_backward(&mut self.times, &mut self.master, self.lo, g0);
            self.record_segment(w, WorkKind::Backward, start);
            // Gradients stay accumulated in the master's buffers for the
            // ApplyUpdate that follows (possibly after more fused units).
            if let Some(g) = g {
                self.grad_out.insert(unit, g);
            }
        }
        Ok(())
    }

    /// GPipe's recompute: re-run the unit's forward on its stash entry
    /// from the cached input, paying real compute time and rebuilding the
    /// backward state the flush discarded.
    fn op_recompute(&mut self, unit: UnitId) -> Result<(), ExecError> {
        let mut entry = self
            .cur
            .remove(&unit)
            .ok_or_else(|| self.err(format!("recompute without a popped stash for {unit:?}")))?;
        let input = entry
            .net
            .layer_input(0)
            .cloned()
            .ok_or_else(|| self.err(format!("no cached input to recompute {unit:?}")))?;
        let start = self.now();
        let h = Self::timed_forward(&mut self.times, &mut entry.net, entry.lo, input);
        self.record_segment(unit.wire(self.m), WorkKind::Forward, start);
        if self.last {
            self.recomputed.insert(unit, h);
        }
        self.cur.insert(unit, entry);
        Ok(())
    }

    fn op_backward(&mut self, unit: UnitId) -> Result<(), ExecError> {
        let g_in = match self.grad_in.remove(&unit) {
            Some(g) => g,
            None if self.last => {
                // GPipe's loss stage: the backward phase recomputed the
                // output, so the loss gradient originates here.
                let h = self
                    .recomputed
                    .remove(&unit)
                    .ok_or_else(|| self.err(format!("no recomputed output for {unit:?}")))?;
                let (loss, g) = self.loss(h, unit);
                self.push_loss(unit.mb, loss);
                g
            }
            None => return Err(self.err(format!("no received gradient for {unit:?}"))),
        };
        let w = unit.wire(self.m);
        let start = self.now();
        if let Some(mut entry) = self.cur.remove(&unit) {
            let g = Self::timed_backward(&mut self.times, &mut entry.net, entry.lo, g_in);
            self.record_segment(w, WorkKind::Backward, start);
            if self.kind == ScheduleKind::PipeDreamAsync {
                // Held for the ApplyUpdate that routes its gradients
                // (sequencer / local apply / migration delta).
                self.cur.insert(unit, entry);
            } else {
                self.fold_grads(&entry)?;
                self.spare_nets.push(entry.net);
            }
            if let Some(g) = g {
                self.grad_out.insert(unit, g);
            }
        } else {
            // Direct path: backward on the master; its accumulated
            // gradients are consumed by the ApplyUpdate that follows.
            let g = Self::timed_backward(&mut self.times, &mut self.master, self.lo, g_in);
            self.record_segment(w, WorkKind::Backward, start);
            if let Some(g) = g {
                self.grad_out.insert(unit, g);
            }
        }
        Ok(())
    }

    /// Deferred-apply schedules: fold a stash copy's unit gradients into
    /// the master's gradient buffers (summed across units until the
    /// `ApplyUpdate`).
    fn fold_grads(&mut self, entry: &StashEntry) -> Result<(), ExecError> {
        if entry.net.n_layers() != self.master.n_layers() {
            return Err(self.err("stash shape drifted from master"));
        }
        for i in 0..self.master.n_layers() {
            let el = entry.net.layer(i);
            let l = self.master.layer_mut(i);
            l.w.grad.add_assign(&el.w.grad);
            l.b.grad.add_assign(&el.b.grad);
        }
        Ok(())
    }

    fn op_apply(&mut self, mb: u64, units: u32) -> Result<(), ExecError> {
        if let Some(entry) = self.cur.remove(&UnitId::new(mb, 0)) {
            // PipeDream: one stashed mini-batch applies immediately, with
            // migration-aware routing.
            return self.route_and_apply(mb, entry);
        }
        // Everything else: unit gradients were accumulated into the
        // master's own buffers — by direct/fused backprop or by
        // `fold_grads` — and fold in with the per-unit learning rate.
        let lr = if units <= 1 {
            self.spec.lr
        } else {
            self.spec.lr / units as f64
        };
        for i in 0..self.master.n_layers() {
            let l = self.master.layer_mut(i);
            l.w.value.axpy(-lr, &l.w.grad);
            l.b.value.axpy(-lr, &l.b.grad);
            l.w.zero_grad();
            l.b.zero_grad();
        }
        Ok(())
    }

    /// Route a stashed mini-batch's updates: own layers apply locally
    /// (moved-block layers at the receiver go through the sequencer);
    /// layers migrated away ship back to the new owner as one ordered
    /// delta.
    fn route_and_apply(&mut self, mb: u64, entry: StashEntry) -> Result<(), ExecError> {
        let net = entry.net;
        let mut delta: Vec<(Matrix, Matrix)> = Vec::new();
        let mut delta_first = 0usize;
        let mut seq_updates: Vec<(usize, Matrix, Matrix)> = Vec::new();
        for i in 0..net.n_layers() {
            let gl = entry.lo + i;
            let l = net.layer(i);
            if self.is_received_moved(gl) {
                seq_updates.push((gl, l.w.grad.clone(), l.b.grad.clone()));
            } else if self.owns(gl) {
                // `net` is a local stash copy, so its gradients can be
                // borrowed straight into the update — no clones.
                self.apply_update(gl, &l.w.grad, &l.b.grad);
            } else {
                if delta.is_empty() {
                    delta_first = gl;
                }
                delta.push((l.w.grad.clone(), l.b.grad.clone()));
            }
        }
        self.spare_nets.push(net);
        if !seq_updates.is_empty() {
            self.seq_insert(mb, seq_updates)?;
        }
        if !delta.is_empty() {
            if !(matches!(self.role, Role::Sender) && self.migrated) {
                return Err(self.err(format!("stray un-owned layers in mb {mb} backward")));
            }
            let frame = Frame::Delta {
                mb,
                first_layer: delta_first as u32,
                grads: delta,
            };
            let len = self.send_on(self.migration_channel(), &frame)?;
            self.mig.lock().unwrap().wire_bytes += len as u64;
        }
        Ok(())
    }

    fn blob(l: &Linear, act: ActKind) -> LayerBlob {
        LayerBlob {
            w: l.w.value.clone(),
            b: l.b.value.clone(),
            act,
        }
    }

    fn payload_bytes(blobs: &[LayerBlob]) -> u64 {
        blobs
            .iter()
            .map(|b| ((b.w.data().len() + b.b.data().len()) * 8) as u64)
            .sum()
    }

    fn send_migration(&mut self) -> Result<(), ExecError> {
        let plan = self.plan.ok_or_else(|| self.err("no migration plan"))?;
        let k = plan.moved.len();
        let m = self.master.n_layers();
        let local: Range<usize> = if plan.downstream { m - k..m } else { 0..k };
        let blobs: Vec<LayerBlob> = local
            .clone()
            .map(|i| Self::blob(self.master.layer(i), self.master.act_kind(i)))
            .collect();
        let pending: Vec<u64> = self.stash.keys().map(|u| u.wire(self.m)).collect();
        {
            let mut mg = self.mig.lock().unwrap();
            mg.t_first = Some(self.now());
            mg.samples.push(self.in_flight.load(Ordering::SeqCst));
            mg.param_bytes += Self::payload_bytes(&blobs);
        }
        let master_frame = Frame::Master {
            first_layer: plan.moved.start as u32,
            layers: blobs,
            pending,
        };
        let len = self.send_on(self.migration_channel(), &master_frame)?;
        self.mig.lock().unwrap().wire_bytes += len as u64;
        // Stashed versions, newest first (§4.4: the copy of the later
        // active mini-batch migrates first).
        let versions: Vec<UnitId> = self.stash.keys().rev().copied().collect();
        for u in versions {
            let entry = &self.stash[&u];
            let ml = plan.moved.start - entry.lo;
            let input = entry
                .net
                .layer_input(ml)
                .ok_or_else(|| self.err(format!("mb {}: no cached input for migration", u.mb)))?
                .clone();
            let blobs: Vec<LayerBlob> = (ml..ml + k)
                .map(|i| Self::blob(entry.net.layer(i), entry.net.act_kind(i)))
                .collect();
            let frame = Frame::Stash {
                mb: u.wire(self.m),
                first_layer: plan.moved.start as u32,
                layers: blobs.clone(),
                input,
            };
            let len = self.send_on(self.migration_channel(), &frame)?;
            let mut mg = self.mig.lock().unwrap();
            mg.samples.push(self.in_flight.load(Ordering::SeqCst));
            mg.versions_sent.push(u.wire(self.m));
            mg.param_bytes += Self::payload_bytes(&blobs);
            mg.wire_bytes += len as u64;
        }
        // Shrink to the retained block. Stash entries are retained in
        // full: in-flight mini-batches back-propagate here, and their
        // moved-block updates leave as deltas.
        let keep: Range<usize> = if plan.downstream { 0..m - k } else { k..m };
        self.master = self.master.slice(keep);
        if !plan.downstream {
            self.lo += k;
        }
        self.migrated = true;
        Ok(())
    }

    /// Everything this stage currently holds, in bytes: the master and
    /// every stashed/popped/migrated weight clone (including their layer
    /// input caches) plus all staged and buffered matrices.
    fn resident_bytes(&self) -> u64 {
        mlp_bytes(&self.master)
            + self.stash.values().map(|e| mlp_bytes(&e.net)).sum::<u64>()
            + self.cur.values().map(|e| mlp_bytes(&e.net)).sum::<u64>()
            + self.migrated_stash.values().map(mlp_bytes).sum::<u64>()
            + self
                .act_buf
                .iter()
                .map(|(_, m)| matrix_bytes(m))
                .sum::<u64>()
            + self
                .grad_buf
                .iter()
                .map(|(_, m)| matrix_bytes(m))
                .sum::<u64>()
            + self.pending_act.values().map(matrix_bytes).sum::<u64>()
            + self.staged_out.values().map(matrix_bytes).sum::<u64>()
            + self.grad_in.values().map(matrix_bytes).sum::<u64>()
            + self.grad_out.values().map(matrix_bytes).sum::<u64>()
            + self.recomputed.values().map(matrix_bytes).sum::<u64>()
    }

    fn run(&mut self, ops: &[IrOp]) -> Result<(), ExecError> {
        // Stage 0 retires a mini-batch — decrements the in-flight counter
        // and records its completion time — after the last op carrying it
        // (its ApplyUpdate for most schedules; its final backward for
        // 2BW mini-batches inside a generation).
        let mut retire: BTreeMap<u64, usize> = BTreeMap::new();
        if self.s == 0 {
            for (i, op) in ops.iter().enumerate() {
                retire.insert(op.mb(), i);
            }
        }
        self.peak_bytes = self.resident_bytes();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                IrOp::Recv { payload, unit } => self.op_recv(payload, unit)?,
                IrOp::Send { payload, unit } => self.op_send(payload, unit)?,
                IrOp::StashPush { unit, .. } => self.op_stash_push(unit),
                IrOp::StashPop { unit } => self.op_stash_pop(unit)?,
                IrOp::Forward { unit } => self.op_forward(unit)?,
                IrOp::FusedFwdLossBwd { unit } => self.op_fused(unit)?,
                IrOp::Recompute { unit } => self.op_recompute(unit)?,
                IrOp::Backward { unit } => self.op_backward(unit)?,
                IrOp::ApplyUpdate { mb, units } => self.op_apply(mb, units)?,
            }
            self.peak_bytes = self.peak_bytes.max(self.resident_bytes());
            if self.s == 0 && retire.get(&op.mb()) == Some(&i) {
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                self.completions.push(self.now());
            }
        }
        // A late cutover can leave moved-layer deltas in flight after the
        // receiver's last scheduled op; drain them so no update is lost.
        while !self.outstanding.is_empty() {
            let chan = self
                .migration_channel()
                .ok_or_else(|| self.err("deltas outstanding but no migration channel"))?;
            let bytes = chan
                .recv()
                .ok_or_else(|| self.err("channel closed with deltas outstanding"))?;
            match decode_view(&bytes).map_err(|e| self.err(e))? {
                FrameView::Act { mb, data } => self.act_buf.push_back((mb, data.to_matrix())),
                FrameView::Grad { mb, data } => self.grad_buf.push_back((mb, data.to_matrix())),
                FrameView::Control(ctrl) => self.handle_ctrl(ctrl)?,
            }
            chan.recycle(bytes);
        }
        Ok(())
    }
}

/// Run a full pipeline training session. Blocks until every stage thread
/// has drained its schedule; returns the merged measurements.
pub fn run_pipeline(spec: &ExecSpec) -> Result<ExecResult, ExecError> {
    spec.validate()?;
    let plan = match &spec.switch {
        Some(sw) => Some(plan_move(spec, sw)?),
        None => None,
    };
    let n_stages = spec.n_stages();
    let starts = spec.starts();
    let full = Mlp::new(&spec.sizes, spec.act, spec.seed);

    // The schedule's one op-program: replayed here, and walked by ap-mem
    // for the modeled peak bytes.
    let program = match &plan {
        Some(p) => generate_spliced(
            spec.schedule,
            n_stages,
            spec.total,
            spec.in_flight,
            &SpliceSpec {
                sender: p.a,
                receiver: p.b,
                at_mb: p.at_mb,
                receiver_waits: !p.downstream,
            },
        )?,
        None => generate(spec.schedule, n_stages, spec.total, spec.in_flight),
    };
    program
        .validate()
        .map_err(|e| format!("ill-formed schedule program: {e}"))?;

    // Channel capacity: a few in-flight activations per link; anything
    // larger (migration frames) is admitted alone by the channel.
    let max_width = *spec.sizes.iter().max().unwrap();
    let frame_bytes = 32 + spec.batch * max_width * 8;
    let capacity = frame_bytes * (spec.in_flight.max(program.micro_batches) + 2);
    let fwd: Vec<ByteChannel> = (0..n_stages.saturating_sub(1))
        .map(|_| ByteChannel::new(capacity, spec.bytes_per_sec))
        .collect();
    let bwd: Vec<ByteChannel> = (0..n_stages.saturating_sub(1))
        .map(|_| ByteChannel::new(capacity, spec.bytes_per_sec))
        .collect();

    let in_flight = AtomicU64::new(0);
    let mig = Mutex::new(MigrationShared::default());
    let t0 = Instant::now();

    let program_ref = &program;
    let outcomes: Vec<Result<StageOut, ExecError>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_stages);
        for s in 0..n_stages {
            let master = full.slice(starts[s]..starts[s + 1]);
            let role = match &plan {
                Some(p) if p.a == s => Role::Sender,
                Some(p) if p.b == s => Role::Receiver,
                _ => Role::None,
            };
            let (fwd_ref, bwd_ref) = (&fwd, &bwd);
            let (in_flight_ref, mig_ref, plan_ref) = (&in_flight, &mig, plan.as_ref());
            let lo = starts[s];
            handles.push(scope.spawn(move || {
                let mut stage = Stage {
                    s,
                    last: s == n_stages - 1,
                    spec,
                    kind: spec.schedule,
                    m: program_ref.micro_batches,
                    lo,
                    master,
                    stash: BTreeMap::new(),
                    spare_nets: Vec::new(),
                    migrated_stash: BTreeMap::new(),
                    fwd_in: if s > 0 { Some(&fwd_ref[s - 1]) } else { None },
                    fwd_out: if s + 1 < n_stages {
                        Some(&fwd_ref[s])
                    } else {
                        None
                    },
                    bwd_in: if s + 1 < n_stages {
                        Some(&bwd_ref[s])
                    } else {
                        None
                    },
                    bwd_out: if s > 0 { Some(&bwd_ref[s - 1]) } else { None },
                    act_buf: VecDeque::new(),
                    grad_buf: VecDeque::new(),
                    pending_act: BTreeMap::new(),
                    staged_out: BTreeMap::new(),
                    grad_in: BTreeMap::new(),
                    grad_out: BTreeMap::new(),
                    recomputed: BTreeMap::new(),
                    cur: BTreeMap::new(),
                    loss_acc: BTreeMap::new(),
                    plan: plan_ref,
                    role,
                    migrated: false,
                    seq: None,
                    outstanding: BTreeSet::new(),
                    mig: mig_ref,
                    in_flight: in_flight_ref,
                    t0,
                    times: LayerTimes::new(spec.n_layers()),
                    segments: Vec::new(),
                    losses: Vec::new(),
                    completions: Vec::new(),
                    peak_bytes: 0,
                };
                let run = stage.run(&program_ref.stages[s].ops);
                // Unblock neighbors if this stage failed mid-schedule.
                if run.is_err() {
                    for c in fwd_ref.iter().chain(bwd_ref.iter()) {
                        c.close();
                    }
                }
                run.map(|()| StageOut {
                    lo: stage.lo,
                    weights: stage.master.weights(),
                    times: stage.times,
                    segments: stage.segments,
                    losses: stage.losses,
                    completions: stage.completions,
                    peak_bytes: stage.peak_bytes,
                })
            }));
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(_) => Err("stage thread panicked".to_string()),
            })
            .collect()
    });
    let wall_seconds = t0.elapsed().as_secs_f64();

    let mut outs = Vec::with_capacity(n_stages);
    for o in outcomes {
        outs.push(o?);
    }

    let mut times = LayerTimes::new(spec.n_layers());
    let mut segments = Vec::new();
    for o in &outs {
        times.merge(&o.times);
        segments.extend(o.segments.iter().cloned());
    }
    segments.sort_by(|a, b| {
        a.start
            .total_cmp(&b.start)
            .then_with(|| a.worker.cmp(&b.worker))
    });
    let mut losses: Vec<(u64, f64)> = outs.last().unwrap().losses.clone();
    losses.sort_by_key(|(mb, _)| *mb);
    let completions = outs[0].completions.clone();

    let fwd_times: Vec<f64> = (0..spec.n_layers()).map(|j| times.mean_fwd(j)).collect();
    let bwd_times: Vec<f64> = (0..spec.n_layers()).map(|j| times.mean_bwd(j)).collect();
    let metrics = metrics_from_times(
        &spec.sizes,
        spec.batch,
        n_stages,
        &fwd_times,
        &bwd_times,
        spec.bytes_per_sec.unwrap_or(1e12),
    );

    let migration = plan.map(|p| {
        let m = mig.into_inner().unwrap();
        MigrationReport {
            cutover_mb: p.at_mb,
            from_stage: p.a,
            to_stage: p.b,
            moved_layers: p.moved.clone(),
            versions_moved: 1 + m.versions_sent.len(),
            param_bytes: m.param_bytes,
            wire_bytes: m.wire_bytes,
            versions_sent: m.versions_sent,
            in_flight_samples: m.samples,
            switch_seconds: match (m.t_first, m.t_last) {
                (Some(a), Some(b)) => (b - a).max(0.0),
                _ => 0.0,
            },
        }
    });

    Ok(ExecResult {
        n_stages,
        completed: losses.len() as u64,
        losses: losses.into_iter().map(|(_, l)| l).collect(),
        wall_seconds,
        completion_times: completions,
        fwd_channels: fwd.iter().map(|c| c.stats()).collect(),
        bwd_channels: bwd.iter().map(|c| c.stats()).collect(),
        metrics,
        times,
        segments,
        final_weights: outs.iter().map(|o| (o.lo, o.weights.clone())).collect(),
        peak_stage_bytes: outs.iter().map(|o| o.peak_bytes).collect(),
        migration,
    })
}
