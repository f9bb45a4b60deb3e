//! Request schemas, validation, and the `/plan` and `/simulate`
//! handlers.
//!
//! Error discipline: transport-level garbage (bad JSON, wrong shapes,
//! missing fields) is **400**; well-formed requests naming things that do
//! not exist or cannot run (unknown model, out-of-range GPU, structurally
//! invalid partition) are **422**. Every error body is JSON. Handlers
//! never panic on request content — anything user-controlled is validated
//! before it reaches the planner or engine.
//!
//! Planning is the `paper_autopipe_plan` recipe behind an API: start from
//! PipeDream's static plan (nominal bandwidth, exclusive GPUs), refine
//! with two-worker moves scored by the analytic model against the *true*
//! cluster state, then verify both on the event engine and keep the
//! faster. Every step lands in a [`DecisionJournal`] echoed in the
//! response.

use std::collections::VecDeque;
use std::sync::OnceLock;

use ap_cluster::dynamics::BgJobId;
use ap_cluster::{
    gbps, ClusterState, ClusterTopology, EventKind, GpuId, GpuKind, ResourceTimeline,
};
use ap_json::{Json, ToJson};
use ap_mem::{check as mem_check, clamp_in_flight, fit_schedule, MemCheck, MemoryModel};
use ap_models::{ModelDesc, ModelProfile};
use ap_pipesim::{
    AnalyticModel, Calibration, Engine, EngineConfig, Framework, Partition, ScheduleKind, Stage,
    SyncScheme,
};
use ap_planner::{pipedream_plan, sort_stage_workers_by, PipeDreamView};
use ap_resilience::Deadline;
use autopipe::controller::{refine, DecisionJournal, MoveEnumerator, ScoreCtx};
use autopipe::{DecisionEvent, Scorer};

/// Bytes per GiB, for human-readable memory figures in responses.
pub(crate) const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// An API failure with its HTTP status.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiError {
    /// 400 for malformed requests, 422 for semantically invalid ones,
    /// 500 for internal failures.
    pub status: u16,
    /// Short kebab-case class.
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
    /// Optional structured detail (e.g. per-stage memory deficits);
    /// emitted as `error.detail` only when present, so plain errors keep
    /// their historical shape.
    pub detail: Option<Json>,
}

impl ApiError {
    /// Malformed request content (HTTP 400).
    pub fn bad_request(kind: &str, message: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            kind: kind.to_string(),
            message: message.into(),
            detail: None,
        }
    }

    /// Well-formed but semantically impossible (HTTP 422).
    pub fn unprocessable(kind: &str, message: impl Into<String>) -> Self {
        ApiError {
            status: 422,
            kind: kind.to_string(),
            message: message.into(),
            detail: None,
        }
    }

    /// Internal failure (HTTP 500).
    pub fn internal(message: impl Into<String>) -> Self {
        ApiError {
            status: 500,
            kind: "internal".to_string(),
            message: message.into(),
            detail: None,
        }
    }

    /// Attach a structured `error.detail` object.
    pub fn with_detail(mut self, detail: Json) -> Self {
        self.detail = Some(detail);
        self
    }

    /// The JSON error body.
    pub fn body(&self) -> Json {
        let mut fields = vec![
            ("status", self.status.to_json()),
            ("kind", self.kind.as_str().to_json()),
            ("message", self.message.as_str().to_json()),
        ];
        if let Some(d) = &self.detail {
            fields.push(("detail", d.clone()));
        }
        Json::obj(vec![("error", Json::obj(fields))])
    }
}

/// Parse a request body as JSON, mapping parser errors to 400.
pub fn parse_body(body: &[u8]) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("bad-utf8", "request body is not UTF-8"))?;
    ap_json::parse(text)
        .map_err(|e| ApiError::bad_request(&format!("bad-json:{}", e.kind.label()), e.to_string()))
}

fn field<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
    obj.get(key)
}

fn usize_field(
    obj: &Json,
    key: &str,
    default: usize,
    lo: usize,
    hi: usize,
) -> Result<usize, ApiError> {
    match field(obj, key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => {
            let n = v.as_usize().ok_or_else(|| {
                ApiError::bad_request("bad-field", format!("{key} must be a non-negative integer"))
            })?;
            if n < lo || n > hi {
                return Err(ApiError::unprocessable(
                    "out-of-range",
                    format!("{key} must be in [{lo}, {hi}], got {n}"),
                ));
            }
            Ok(n)
        }
    }
}

fn f64_field(obj: &Json, key: &str, default: f64, lo: f64, hi: f64) -> Result<f64, ApiError> {
    match field(obj, key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => {
            let x = v.as_f64().ok_or_else(|| {
                ApiError::bad_request("bad-field", format!("{key} must be a number"))
            })?;
            if !x.is_finite() || x < lo || x > hi {
                return Err(ApiError::unprocessable(
                    "out-of-range",
                    format!("{key} must be in [{lo}, {hi}], got {x}"),
                ));
            }
            Ok(x)
        }
    }
}

/// A background job sharing part of the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct BgJobSpec {
    /// GPU ids the job time-shares.
    pub gpus: Vec<usize>,
    /// Network traffic it adds on its servers' links, Gbps.
    pub gbps: f64,
}

/// The cluster a request plans against: the paper's single-switch shape,
/// parameterized.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of servers behind the switch.
    pub n_servers: usize,
    /// GPUs per server.
    pub gpus_per_server: usize,
    /// GPU kind everywhere.
    pub gpu: GpuKind,
    /// NIC line rate, Gbps.
    pub link_gbps: f64,
    /// Uniform per-GPU memory override, GiB. `None` keeps the GPU kind's
    /// native capacity; setting it models memory-starved (or over-
    /// provisioned) devices without inventing a new GPU kind.
    pub memory_gb: Option<f64>,
    /// Background jobs contending for GPUs and links.
    pub background_jobs: Vec<BgJobSpec>,
}

fn gpu_kind_of(name: &str) -> Option<GpuKind> {
    match name.to_ascii_lowercase().as_str() {
        "p100" => Some(GpuKind::P100),
        "v100" => Some(GpuKind::V100),
        "a100" => Some(GpuKind::A100),
        _ => None,
    }
}

fn gpu_kind_name(kind: GpuKind) -> &'static str {
    match kind {
        GpuKind::P100 => "p100",
        GpuKind::V100 => "v100",
        GpuKind::A100 => "a100",
    }
}

impl ClusterSpec {
    /// The paper's testbed (5x2 P100 at 25 Gbps), exclusive.
    pub fn default_testbed() -> Self {
        ClusterSpec {
            n_servers: 5,
            gpus_per_server: 2,
            gpu: GpuKind::P100,
            link_gbps: 25.0,
            memory_gb: None,
            background_jobs: Vec::new(),
        }
    }

    /// Parse and validate from the `"cluster"` object (missing → default
    /// testbed).
    pub fn from_json(v: Option<&Json>) -> Result<Self, ApiError> {
        let d = ClusterSpec::default_testbed();
        let obj = match v {
            None | Some(Json::Null) => return Ok(d),
            Some(o @ Json::Obj(_)) => o,
            Some(_) => {
                return Err(ApiError::bad_request(
                    "bad-field",
                    "cluster must be an object",
                ))
            }
        };
        let n_servers = usize_field(obj, "n_servers", d.n_servers, 1, 64)?;
        let gpus_per_server = usize_field(obj, "gpus_per_server", d.gpus_per_server, 1, 16)?;
        let link_gbps = f64_field(obj, "link_gbps", d.link_gbps, 0.1, 1000.0)?;
        let memory_gb = match field(obj, "memory_gb") {
            None | Some(Json::Null) => None,
            Some(_) => Some(f64_field(obj, "memory_gb", 0.0, 0.125, 4096.0)?),
        };
        let gpu = match field(obj, "gpu") {
            None | Some(Json::Null) => d.gpu,
            Some(v) => {
                let name = v
                    .as_str()
                    .ok_or_else(|| ApiError::bad_request("bad-field", "gpu must be a string"))?;
                gpu_kind_of(name).ok_or_else(|| {
                    ApiError::unprocessable(
                        "unknown-gpu",
                        format!("unknown gpu kind {name:?}; known: p100, v100, a100"),
                    )
                })?
            }
        };
        let n_gpus = n_servers * gpus_per_server;
        let mut background_jobs = Vec::new();
        if let Some(jobs) = field(obj, "background_jobs") {
            let arr = jobs.as_arr().ok_or_else(|| {
                ApiError::bad_request("bad-field", "background_jobs must be an array")
            })?;
            if arr.len() > 32 {
                return Err(ApiError::unprocessable(
                    "out-of-range",
                    "at most 32 background jobs",
                ));
            }
            for (i, job) in arr.iter().enumerate() {
                let gpus_json = field(job, "gpus").and_then(Json::as_arr).ok_or_else(|| {
                    ApiError::bad_request(
                        "bad-field",
                        format!("background_jobs[{i}].gpus must be an array"),
                    )
                })?;
                let mut gpus = Vec::with_capacity(gpus_json.len());
                for g in gpus_json {
                    let id = g.as_usize().ok_or_else(|| {
                        ApiError::bad_request(
                            "bad-field",
                            format!("background_jobs[{i}].gpus entries must be integers"),
                        )
                    })?;
                    if id >= n_gpus {
                        return Err(ApiError::unprocessable(
                            "infeasible-cluster",
                            format!(
                                "background_jobs[{i}] names gpu {id} but the cluster has {n_gpus}"
                            ),
                        ));
                    }
                    gpus.push(id);
                }
                let job_gbps = f64_field(job, "gbps", 0.0, 0.0, 1000.0)?;
                background_jobs.push(BgJobSpec {
                    gpus,
                    gbps: job_gbps,
                });
            }
        }
        Ok(ClusterSpec {
            n_servers,
            gpus_per_server,
            gpu,
            link_gbps,
            memory_gb,
            background_jobs,
        })
    }

    /// Canonical JSON: defaults filled, fields in fixed order. Two
    /// requests meaning the same cluster serialize identically, so they
    /// share a cache entry.
    pub fn canonical(&self) -> Json {
        Json::obj(vec![
            ("n_servers", self.n_servers.to_json()),
            ("gpus_per_server", self.gpus_per_server.to_json()),
            ("gpu", gpu_kind_name(self.gpu).to_json()),
            ("link_gbps", self.link_gbps.to_json()),
            ("memory_gb", self.memory_gb.to_json()),
            (
                "background_jobs",
                Json::Arr(
                    self.background_jobs
                        .iter()
                        .map(|j| {
                            Json::obj(vec![("gpus", j.gpus.to_json()), ("gbps", j.gbps.to_json())])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Total GPUs.
    pub fn n_gpus(&self) -> usize {
        self.n_servers * self.gpus_per_server
    }

    /// Materialize the cluster state the planner scores against.
    pub fn to_state(&self) -> ClusterState {
        let mut topo = ClusterTopology::single_switch(
            self.n_servers,
            self.gpus_per_server,
            self.gpu,
            self.link_gbps,
        );
        if let Some(gb) = self.memory_gb {
            topo.set_uniform_memory_bytes(gb * GIB);
        }
        let mut state = ClusterState::new(topo);
        for (i, job) in self.background_jobs.iter().enumerate() {
            state.apply(&EventKind::JobArrive {
                id: BgJobId(1000 + i as u64),
                gpus: job.gpus.iter().map(|&g| GpuId(g)).collect(),
                net_bytes_per_sec: gbps(job.gbps),
            });
        }
        state
    }
}

/// Planner knobs a request may override.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Greedy refinement rounds.
    pub refine_rounds: usize,
    /// Engine iterations per measurement.
    pub measure_iters: usize,
    /// Fitted runtime overheads (see `ap_pipesim::Calibration`); when
    /// present the plan is scored and verified against the calibrated
    /// cost model instead of the raw one.
    pub calibration: Option<Calibration>,
    /// Per-request planning budget, milliseconds. `None` uses the
    /// server's default. `0` is legal and means "no budget": refinement
    /// is skipped and the response degrades to the analytic answer —
    /// which also makes it a deterministic lever for exercising the
    /// degraded path. A QoS knob, **not** part of the cache key: two
    /// requests for the same plan share an entry regardless of patience.
    pub deadline_ms: Option<u64>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            refine_rounds: 40,
            measure_iters: 10,
            calibration: None,
            deadline_ms: None,
        }
    }
}

impl PlannerConfig {
    /// Parse and validate from the `"planner"` object (missing →
    /// defaults).
    pub fn from_json(v: Option<&Json>) -> Result<Self, ApiError> {
        let d = PlannerConfig::default();
        let obj = match v {
            None | Some(Json::Null) => return Ok(d),
            Some(o @ Json::Obj(_)) => o,
            Some(_) => {
                return Err(ApiError::bad_request(
                    "bad-field",
                    "planner must be an object",
                ))
            }
        };
        let calibration = match obj.get("calibration") {
            None | Some(Json::Null) => None,
            Some(v @ Json::Obj(_)) => {
                Some(Calibration::from_json(v).map_err(|e| ApiError::bad_request("bad-field", e))?)
            }
            Some(_) => {
                return Err(ApiError::bad_request(
                    "bad-field",
                    "planner.calibration must be an object",
                ))
            }
        };
        let deadline_ms = match field(obj, "deadline_ms") {
            None | Some(Json::Null) => None,
            Some(_) => Some(usize_field(obj, "deadline_ms", 0, 0, 600_000)? as u64),
        };
        Ok(PlannerConfig {
            refine_rounds: usize_field(obj, "refine_rounds", d.refine_rounds, 1, 200)?,
            measure_iters: usize_field(obj, "measure_iters", d.measure_iters, 1, 256)?,
            calibration,
            deadline_ms,
        })
    }

    /// Canonical JSON (fixed order, defaults filled). `deadline_ms` is
    /// deliberately absent: the budget shapes *when* an answer arrives,
    /// not *what* the answer is, so it must not split the cache.
    pub fn canonical(&self) -> Json {
        Json::obj(vec![
            ("refine_rounds", self.refine_rounds.to_json()),
            ("measure_iters", self.measure_iters.to_json()),
            (
                "calibration",
                match self.calibration {
                    Some(c) => c.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Names the daemon's model zoo answers to.
pub const KNOWN_MODELS: &[&str] = &[
    "alexnet",
    "vgg16",
    "resnet50",
    "resnet101",
    "resnet152",
    "bert12",
    "bert24",
    "bert48",
    "gpt2-small",
    "gpt2-medium",
];

/// Look up a model by serving name. Builds the whole description, so
/// request handling reads [`zoo_profile`] instead; this fills that table
/// and serves `/jobs` requests that name a custom batch size.
pub fn model_by_name(name: &str) -> Option<ModelDesc> {
    match name {
        "alexnet" => Some(ap_models::alexnet()),
        "vgg16" => Some(ap_models::vgg16()),
        "resnet50" => Some(ap_models::resnet50()),
        "resnet101" => Some(ap_models::resnet101()),
        "resnet152" => Some(ap_models::resnet152()),
        "bert12" => Some(ap_models::bert_n(12)),
        "bert24" => Some(ap_models::bert_n(24)),
        "bert48" => Some(ap_models::bert48()),
        "gpt2-small" => Some(ap_models::gpt2_small()),
        "gpt2-medium" => Some(ap_models::gpt2_medium()),
        _ => None,
    }
}

/// The profile of a [`KNOWN_MODELS`] entry at its default batch size.
/// The table is built once per process, on first use, so a request
/// borrows its model's profile instead of building the model again.
pub fn zoo_profile(name: &str) -> Option<&'static ModelProfile> {
    static ZOO: OnceLock<Vec<ModelProfile>> = OnceLock::new();
    let i = KNOWN_MODELS.iter().position(|&n| n == name)?;
    let zoo = ZOO.get_or_init(|| {
        KNOWN_MODELS
            .iter()
            .map(|n| ModelProfile::of(&model_by_name(n).expect("every known model builds")))
            .collect()
    });
    Some(&zoo[i])
}

/// The validated `"model"` field: a name check against [`KNOWN_MODELS`].
pub(crate) fn model_field(obj: &Json) -> Result<&str, ApiError> {
    let name = field(obj, "model")
        .ok_or_else(|| ApiError::bad_request("missing-field", "request needs a \"model\""))?
        .as_str()
        .ok_or_else(|| ApiError::bad_request("bad-field", "model must be a string"))?;
    if !KNOWN_MODELS.contains(&name) {
        return Err(ApiError::unprocessable(
            "unknown-model",
            format!("unknown model {name:?}; known: {}", KNOWN_MODELS.join(", ")),
        ));
    }
    Ok(name)
}

/// Parse the optional `"schedule"` field: a [`ScheduleKind`] id
/// (`pipedream_async`, `gpipe`, `dapple`, `chimera`, `pipedream_2bw`),
/// defaulting to PipeDream async. Unknown ids are semantically invalid
/// (422), a non-string is malformed (400).
fn schedule_field(v: &Json) -> Result<ScheduleKind, ApiError> {
    match field(v, "schedule") {
        None | Some(Json::Null) => Ok(ScheduleKind::PipeDreamAsync),
        Some(j) => {
            let id = j
                .as_str()
                .ok_or_else(|| ApiError::bad_request("bad-field", "schedule must be a string"))?;
            ScheduleKind::parse(id).ok_or_else(|| {
                ApiError::unprocessable(
                    "unknown-schedule",
                    format!(
                        "unknown schedule {id:?}; known: {}",
                        ScheduleKind::zoo().map(|k| k.id()).join(", ")
                    ),
                )
            })
        }
    }
}

/// A validated `/plan` request.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRequest {
    /// Model serving name (validated against [`KNOWN_MODELS`]).
    pub model: String,
    /// The cluster to plan for.
    pub cluster: ClusterSpec,
    /// Planner knobs.
    pub planner: PlannerConfig,
    /// Pipeline schedule to plan under (default PipeDream async).
    pub schedule: ScheduleKind,
}

impl PlanRequest {
    /// Parse and validate a `/plan` body.
    pub fn from_json(v: &Json) -> Result<Self, ApiError> {
        if v.as_obj().is_none() {
            return Err(ApiError::bad_request(
                "bad-body",
                "request body must be a JSON object",
            ));
        }
        Ok(PlanRequest {
            model: model_field(v)?.to_string(),
            cluster: ClusterSpec::from_json(field(v, "cluster"))?,
            planner: PlannerConfig::from_json(field(v, "planner"))?,
            schedule: schedule_field(v)?,
        })
    }

    /// The canonical cache key: model + cluster signature + planner
    /// config + schedule, defaults filled, fixed field order.
    pub fn canonical_key(&self) -> String {
        Json::obj(vec![
            ("model", self.model.as_str().to_json()),
            ("cluster", self.cluster.canonical()),
            ("planner", self.planner.canonical()),
            ("schedule", self.schedule.id().to_json()),
        ])
        .pretty()
    }
}

fn experiment_env() -> (SyncScheme, Framework) {
    (SyncScheme::RingAllReduce, Framework::pytorch())
}

fn engine_throughput(
    profile: &ModelProfile,
    partition: &Partition,
    state: &ClusterState,
    schedule: ScheduleKind,
    iterations: usize,
    calibration: Option<Calibration>,
) -> Result<f64, ApiError> {
    let (scheme, framework) = experiment_env();
    let cfg = EngineConfig {
        scheme,
        framework,
        schedule,
        record_timeline: false,
        calibration,
    };
    let engine = Engine::new(
        profile,
        partition.clone(),
        state.clone(),
        ResourceTimeline::empty(),
        cfg,
    )
    .map_err(|e| ApiError::unprocessable("invalid-partition", e.to_string()))?;
    let n = iterations.max(3 * partition.in_flight).max(12);
    let skip = n / 3;
    let r = engine
        .run(n)
        .map_err(|e| ApiError::internal(format!("engine run failed: {e}")))?;
    Ok(r.steady_throughput(skip))
}

/// The analytic half of planning: PipeDream seed plus journaled greedy
/// refinement. Produced by [`refine_plan`]; already a servable answer
/// (the degraded path stops here).
#[derive(Debug, Clone)]
pub struct RefinedPlan {
    /// The PipeDream seed.
    pub start: Partition,
    /// The analytically refined candidate (== `start` when no move won).
    pub refined: Partition,
    /// Analytic prediction for the seed.
    pub start_pred: f64,
    /// Analytic prediction for the refined candidate.
    pub predicted: f64,
    /// Refinement rounds executed.
    pub rounds: usize,
    /// Candidate partitions scored across all rounds.
    pub scored: usize,
    /// Whether a deadline stopped refinement before its natural end.
    pub deadline_cut: bool,
    /// The schedule the plan actually runs under — the requested one when
    /// it fits device memory (possibly at a shallower in-flight depth),
    /// otherwise the best-scoring feasible alternative.
    pub schedule: ScheduleKind,
    /// True when memory forced a different schedule than requested.
    pub schedule_switched: bool,
    /// Per-stage memory check of the refined candidate (all stages fit).
    pub mem: MemCheck,
}

/// The engine half of planning: measured throughputs for seed and
/// candidate, and the verdict. Produced by [`verify_plan`].
#[derive(Debug, Clone)]
pub struct VerifiedPlan {
    /// The plan that measured faster.
    pub chosen: Partition,
    /// Its engine-measured throughput.
    pub measured: f64,
    /// The seed's engine-measured throughput.
    pub start_measured: f64,
    /// Whether the refined candidate beat the seed on the engine.
    pub refined_won: bool,
}

/// The typed 422 for a plan no schedule can fit: per-stage demand vs
/// capacity at in-flight depth 1 under the requested schedule, so the
/// caller sees exactly how far over budget each stage is.
fn memory_infeasible_error(
    profile: &ModelProfile,
    partition: &Partition,
    requested: ScheduleKind,
    model: &MemoryModel,
    state: &ClusterState,
) -> ApiError {
    let mut probe = partition.clone();
    probe.in_flight = 1;
    let check = mem_check(profile, &probe, requested, model, state);
    let stages = Json::Arr(
        check
            .stages
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("stage", s.stage.to_json()),
                    ("required_gb", (s.required / GIB).to_json()),
                    ("capacity_gb", (s.capacity / GIB).to_json()),
                    ("deficit_gb", (s.deficit() / GIB).to_json()),
                ])
            })
            .collect(),
    );
    ApiError::unprocessable(
        "memory-infeasible",
        format!(
            "no schedule fits device memory: worst stage over by {:.2} GiB even at in-flight depth 1",
            check.worst_deficit() / GIB
        ),
    )
    .with_detail(Json::obj(vec![
        ("requested_schedule", requested.id().to_json()),
        ("in_flight", 1usize.to_json()),
        ("stages", stages),
    ]))
}

/// PipeDream seed + analytic greedy refinement through the controller's
/// [`refine`] loop, which reports its round and candidate counts. When a
/// `deadline` is supplied the loop checks remaining budget between rounds
/// and stops early rather than overrun — the partial answer is still
/// valid, just less refined.
///
/// After refinement the candidate is fitted to device memory: its
/// in-flight depth is clamped to what the tightest stage holds, and if
/// the requested schedule cannot fit at any depth the best-scoring
/// feasible alternative is taken instead (`schedule_switched`). A model
/// no schedule can host is a typed 422 `memory-infeasible` error with
/// per-stage deficits.
pub fn refine_plan(
    req: &PlanRequest,
    deadline: Option<&Deadline>,
) -> Result<RefinedPlan, ApiError> {
    let profile = zoo_profile(&req.model).expect("model validated at parse time");
    let state = req.cluster.to_state();
    let (scheme, framework) = experiment_env();

    // PipeDream's one-shot view: nominal line rate, exclusive GPUs.
    let all_gpus: Vec<GpuId> = (0..req.cluster.n_gpus()).map(GpuId).collect();
    let start = pipedream_plan(
        profile,
        &all_gpus,
        PipeDreamView {
            bandwidth: gbps(req.cluster.link_gbps),
            gpu_flops: req.cluster.gpu.peak_flops(),
        },
    );

    let history = VecDeque::new();
    let ctx = ScoreCtx {
        model: AnalyticModel {
            profile,
            scheme,
            framework,
            schedule: req.schedule,
            calibration: req.planner.calibration,
        },
        history: &history,
        state: &state,
    };
    let mut current = start.clone();
    sort_stage_workers_by(&mut current, |g| state.effective_flops(g));
    let refined = refine(
        &MoveEnumerator::new(),
        &Scorer::Analytic,
        &ctx,
        current,
        &[],
        req.planner.refine_rounds,
        || deadline.is_some_and(Deadline::expired),
    );
    let mut current = refined.partition;
    let mut current_pred = refined.score;
    // Memory fit: clamp the candidate's depth to what its devices hold,
    // switching schedule when the requested one cannot fit at any depth.
    let mem_model = MemoryModel::default();
    let analytic_of = |part: &Partition, kind: ScheduleKind| -> f64 {
        AnalyticModel {
            schedule: kind,
            ..ctx.model
        }
        .throughput(part, &state)
    };
    let shape = current.clone();
    let fit_score = |kind: ScheduleKind, n: usize| {
        let mut cand = shape.clone();
        cand.in_flight = n;
        analytic_of(&cand, kind)
    };
    let fit = fit_schedule(
        profile,
        &current,
        req.schedule,
        &mem_model,
        &state,
        &fit_score,
    )
    .ok_or_else(|| memory_infeasible_error(profile, &current, req.schedule, &mem_model, &state))?;
    let mut start_pred = refined.start_score;
    if fit.switched || fit.in_flight != current.in_flight {
        current.in_flight = fit.in_flight;
        current_pred = analytic_of(&current, fit.kind);
    }
    // The seed must stay a feasible comparison point for verification:
    // clamp it under the chosen schedule, falling back to the refined
    // candidate when even depth 1 does not fit its (different) stages.
    let mut start = start;
    let seed_depth = start.in_flight;
    if clamp_in_flight(profile, &mut start, fit.kind, &mem_model, &state).is_none() {
        start = current.clone();
    }
    if fit.switched || start.in_flight != seed_depth {
        start_pred = analytic_of(&start, fit.kind);
    }
    Ok(RefinedPlan {
        start,
        refined: current,
        start_pred,
        predicted: current_pred,
        rounds: refined.rounds,
        scored: refined.scored,
        deadline_cut: refined.stopped,
        schedule: fit.kind,
        schedule_switched: fit.switched,
        mem: fit.check,
    })
}

/// Verify by measurement: run seed and refined candidate on the event
/// engine and keep the faster — the accepted plan never loses to the
/// PipeDream seed.
pub fn verify_plan(req: &PlanRequest, refined: &RefinedPlan) -> Result<VerifiedPlan, ApiError> {
    let profile = zoo_profile(&req.model).expect("model validated at parse time");
    let state = req.cluster.to_state();
    let start_measured = engine_throughput(
        profile,
        &refined.start,
        &state,
        refined.schedule,
        req.planner.measure_iters,
        req.planner.calibration,
    )?;
    let (chosen, measured, refined_won) = if refined.refined == refined.start {
        (refined.start.clone(), start_measured, false)
    } else {
        let refined_measured = engine_throughput(
            profile,
            &refined.refined,
            &state,
            refined.schedule,
            req.planner.measure_iters,
            req.planner.calibration,
        )?;
        if refined_measured > start_measured {
            (refined.refined.clone(), refined_measured, true)
        } else {
            (refined.start.clone(), start_measured, false)
        }
    };
    Ok(VerifiedPlan {
        chosen,
        measured,
        start_measured,
        refined_won,
    })
}

/// Assemble the `/plan` response body. With a [`VerifiedPlan`] this is
/// the full engine-verified answer; without one (`degraded_reason` set)
/// the analytic candidate is served as-is: `measured_throughput` is null,
/// `"degraded"` is true, and the reason says why the engine never ran.
pub fn plan_response(
    req: &PlanRequest,
    refined: &RefinedPlan,
    verified: Option<&VerifiedPlan>,
    degraded_reason: Option<&str>,
) -> Json {
    let mut journal = DecisionJournal::new();
    let (chosen, refined_won) = match verified {
        Some(v) => (&v.chosen, v.refined_won),
        None => (&refined.refined, false),
    };
    journal.record(
        0,
        0,
        0.0,
        DecisionEvent::CandidatesScored {
            rounds: refined.rounds,
            scored: refined.scored,
            current_pred: refined.start_pred,
            best_pred: refined.predicted,
            best: refined.refined.summary(),
        },
    );
    if let Some(v) = verified {
        journal.record(
            0,
            0,
            0.0,
            DecisionEvent::ArbiterVerdict {
                approved: v.refined_won,
                predicted_speedup: refined.predicted / refined.start_pred.max(1e-12),
                switch_cost_seconds: 0.0,
                reward: v.measured / v.start_measured.max(1e-12) - 1.0,
            },
        );
    }
    Json::obj(vec![
        ("model", req.model.as_str().to_json()),
        ("schedule", refined.schedule.id().to_json()),
        ("requested_schedule", req.schedule.id().to_json()),
        ("schedule_switched", refined.schedule_switched.to_json()),
        ("partition", chosen.to_json()),
        ("summary", chosen.summary().to_json()),
        (
            "memory",
            Json::Arr(
                refined
                    .mem
                    .stages
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("stage", s.stage.to_json()),
                            ("required_gb", (s.required / GIB).to_json()),
                            ("capacity_gb", (s.capacity / GIB).to_json()),
                            ("fits", s.fits().to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("predicted_throughput", refined.predicted.to_json()),
        (
            "measured_throughput",
            match verified {
                Some(v) => v.measured.to_json(),
                None => Json::Null,
            },
        ),
        (
            "journal",
            Json::obj(vec![
                ("events", journal.records.len().to_json()),
                ("rounds", refined.rounds.to_json()),
                ("candidates_scored", refined.scored.to_json()),
                ("refined", refined_won.to_json()),
                ("records", journal.to_json()),
            ]),
        ),
        ("degraded", degraded_reason.is_some().to_json()),
        (
            "degraded_reason",
            match degraded_reason {
                Some(r) => r.to_json(),
                None => Json::Null,
            },
        ),
        ("cached", false.to_json()),
    ])
}

/// Serve a validated `/plan` request end to end, with no deadline and no
/// degradation: PipeDream seed, analytic greedy refinement (journaled),
/// engine verification, response assembly. The daemon's resilient path in
/// `server::handle_plan` composes the same three stages with a budget and
/// a breaker around the engine.
pub fn compute_plan(req: &PlanRequest) -> Result<Json, ApiError> {
    let refined = refine_plan(req, None)?;
    let verified = verify_plan(req, &refined)?;
    Ok(plan_response(req, &refined, Some(&verified), None))
}

/// A validated `/simulate` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateRequest {
    /// Model serving name.
    pub model: String,
    /// The cluster to simulate on.
    pub cluster: ClusterSpec,
    /// The partition to execute.
    pub partition: Partition,
    /// Pipeline schedule to simulate (default PipeDream async).
    pub schedule: ScheduleKind,
    /// Mini-batches to simulate.
    pub iterations: usize,
}

/// Parse `"partition"`: `{"stages": [{"layers": [s, e], "workers":
/// [...]}, ...], "in_flight": n}` (`in_flight` optional).
fn partition_from_json(v: &Json, n_gpus: usize) -> Result<Partition, ApiError> {
    let stages_json = field(v, "stages")
        .and_then(Json::as_arr)
        .ok_or_else(|| ApiError::bad_request("bad-field", "partition.stages must be an array"))?;
    if stages_json.is_empty() || stages_json.len() > 256 {
        return Err(ApiError::unprocessable(
            "invalid-partition",
            "partition needs 1..=256 stages",
        ));
    }
    let mut stages = Vec::with_capacity(stages_json.len());
    for (i, s) in stages_json.iter().enumerate() {
        let layers = field(s, "layers").and_then(Json::as_arr).ok_or_else(|| {
            ApiError::bad_request(
                "bad-field",
                format!("stages[{i}].layers must be [start, end]"),
            )
        })?;
        let (Some(lo), Some(hi)) = (
            layers.first().and_then(Json::as_usize),
            layers.get(1).and_then(Json::as_usize),
        ) else {
            return Err(ApiError::bad_request(
                "bad-field",
                format!("stages[{i}].layers must be two non-negative integers"),
            ));
        };
        if layers.len() != 2 || hi > 100_000 {
            return Err(ApiError::bad_request(
                "bad-field",
                format!("stages[{i}].layers must be [start, end]"),
            ));
        }
        let workers_json = field(s, "workers").and_then(Json::as_arr).ok_or_else(|| {
            ApiError::bad_request("bad-field", format!("stages[{i}].workers must be an array"))
        })?;
        let mut workers = Vec::with_capacity(workers_json.len());
        for w in workers_json {
            let id = w.as_usize().ok_or_else(|| {
                ApiError::bad_request(
                    "bad-field",
                    format!("stages[{i}].workers entries must be integers"),
                )
            })?;
            if id >= n_gpus {
                return Err(ApiError::unprocessable(
                    "infeasible-partition",
                    format!("stages[{i}] names gpu {id} but the cluster has {n_gpus}"),
                ));
            }
            workers.push(GpuId(id));
        }
        stages.push(Stage::new(lo..hi, workers));
    }
    let mut partition = Partition {
        stages,
        in_flight: 1,
    };
    partition.in_flight = match field(v, "in_flight") {
        None | Some(Json::Null) => partition.default_in_flight(),
        Some(n) => {
            let n = n.as_usize().ok_or_else(|| {
                ApiError::bad_request("bad-field", "in_flight must be a non-negative integer")
            })?;
            if n == 0 || n > 4096 {
                return Err(ApiError::unprocessable(
                    "invalid-partition",
                    "in_flight must be in [1, 4096]",
                ));
            }
            n
        }
    };
    Ok(partition)
}

impl SimulateRequest {
    /// Parse and validate a `/simulate` body, including the partition's
    /// structural validity against the model.
    pub fn from_json(v: &Json) -> Result<Self, ApiError> {
        if v.as_obj().is_none() {
            return Err(ApiError::bad_request(
                "bad-body",
                "request body must be a JSON object",
            ));
        }
        let model = model_field(v)?.to_string();
        let cluster = ClusterSpec::from_json(field(v, "cluster"))?;
        let partition_json = field(v, "partition").ok_or_else(|| {
            ApiError::bad_request("missing-field", "request needs a \"partition\"")
        })?;
        let partition = partition_from_json(partition_json, cluster.n_gpus())?;
        let n_layers = zoo_profile(&model)
            .expect("model validated above")
            .n_layers();
        partition
            .validate(n_layers)
            .map_err(|e| ApiError::unprocessable("invalid-partition", e.to_string()))?;
        let iterations = usize_field(v, "iterations", 64, 1, 512)?;
        Ok(SimulateRequest {
            model,
            cluster,
            partition,
            schedule: schedule_field(v)?,
            iterations,
        })
    }
}

/// Serve a validated `/simulate` request: run the event engine, report
/// timings.
pub fn compute_simulate(req: &SimulateRequest) -> Result<Json, ApiError> {
    let profile = zoo_profile(&req.model).expect("model validated at parse time");
    let state = req.cluster.to_state();
    let (scheme, framework) = experiment_env();
    let cfg = EngineConfig {
        scheme,
        framework,
        schedule: req.schedule,
        record_timeline: false,
        calibration: None,
    };
    let engine = Engine::new(
        profile,
        req.partition.clone(),
        state,
        ResourceTimeline::empty(),
        cfg,
    )
    .map_err(|e| ApiError::unprocessable("invalid-partition", e.to_string()))?;
    let r = engine
        .run(req.iterations)
        .map_err(|e| ApiError::unprocessable("simulation-failed", e.to_string()))?;
    Ok(Json::obj(vec![
        ("model", req.model.as_str().to_json()),
        ("schedule", req.schedule.id().to_json()),
        ("partition", req.partition.to_json()),
        ("iterations", r.iterations.len().to_json()),
        ("throughput", r.throughput().to_json()),
        (
            "steady_throughput",
            r.steady_throughput(req.iterations / 3).to_json(),
        ),
        ("makespan", r.makespan.to_json()),
        ("mean_staleness", r.mean_staleness.to_json()),
        ("utilization", r.utilization().to_json()),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Json {
        ap_json::parse(s).unwrap()
    }

    #[test]
    fn plan_request_fills_defaults_and_canonicalizes() {
        let a = PlanRequest::from_json(&parse(r#"{"model": "vgg16"}"#)).unwrap();
        let b = PlanRequest::from_json(&parse(
            r#"{"model": "vgg16", "cluster": {"n_servers": 5, "gpus_per_server": 2,
                "gpu": "p100", "link_gbps": 25.0, "background_jobs": []},
                "planner": {"refine_rounds": 40, "measure_iters": 10}}"#,
        ))
        .unwrap();
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(a.cluster, ClusterSpec::default_testbed());
    }

    #[test]
    fn zoo_profiles_equal_fresh_profiles_field_by_field() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for &name in KNOWN_MODELS {
            let zoo = zoo_profile(name).unwrap();
            let fresh = ModelProfile::of(&model_by_name(name).unwrap());
            assert_eq!(zoo.name, fresh.name, "{name}");
            assert_eq!(zoo.batch, fresh.batch, "{name}");
            assert_eq!(bits(&zoo.out_bytes), bits(&fresh.out_bytes), "{name}");
            assert_eq!(bits(&zoo.grad_bytes), bits(&fresh.grad_bytes), "{name}");
            assert_eq!(bits(&zoo.param_bytes), bits(&fresh.param_bytes), "{name}");
            assert_eq!(
                bits(&zoo.eff_flops_fwd),
                bits(&fresh.eff_flops_fwd),
                "{name}"
            );
            assert_eq!(
                bits(&zoo.eff_flops_bwd),
                bits(&fresh.eff_flops_bwd),
                "{name}"
            );
            // The prefix sums are private; every range query reads them.
            let n = fresh.n_layers();
            assert_eq!(zoo.n_layers(), n, "{name}");
            for lo in 0..=n {
                for hi in lo..=n {
                    assert_eq!(
                        zoo.range_work(lo, hi).to_bits(),
                        fresh.range_work(lo, hi).to_bits(),
                        "{name} work {lo}..{hi}"
                    );
                    assert_eq!(
                        zoo.range_params(lo, hi).to_bits(),
                        fresh.range_params(lo, hi).to_bits(),
                        "{name} params {lo}..{hi}"
                    );
                }
            }
        }
        assert!(zoo_profile("vgg9000").is_none());
    }

    #[test]
    fn unknown_model_is_422() {
        let e = PlanRequest::from_json(&parse(r#"{"model": "vgg99"}"#)).unwrap_err();
        assert_eq!(e.status, 422);
        assert_eq!(e.kind, "unknown-model");
        assert!(e.message.contains("vgg16"));
    }

    #[test]
    fn missing_model_is_400() {
        let e = PlanRequest::from_json(&parse("{}")).unwrap_err();
        assert_eq!(e.status, 400);
        assert_eq!(e.kind, "missing-field");
    }

    #[test]
    fn infeasible_cluster_is_422() {
        let e = PlanRequest::from_json(&parse(
            r#"{"model": "vgg16", "cluster": {"n_servers": 2, "gpus_per_server": 2,
                "background_jobs": [{"gpus": [7], "gbps": 1.0}]}}"#,
        ))
        .unwrap_err();
        assert_eq!(e.status, 422);
        assert_eq!(e.kind, "infeasible-cluster");
        let e =
            PlanRequest::from_json(&parse(r#"{"model": "vgg16", "cluster": {"n_servers": 0}}"#))
                .unwrap_err();
        assert_eq!(e.status, 422);
    }

    #[test]
    fn plan_is_deterministic_and_beats_or_matches_seed() {
        let req = PlanRequest::from_json(&parse(
            r#"{"model": "resnet50", "cluster": {"link_gbps": 10.0,
                "background_jobs": [{"gpus": [0, 1, 2, 3], "gbps": 5.0}]},
                "planner": {"measure_iters": 8}}"#,
        ))
        .unwrap();
        let a = compute_plan(&req).unwrap();
        let b = compute_plan(&req).unwrap();
        assert_eq!(a.pretty(), b.pretty());
        let measured = a.get("measured_throughput").and_then(Json::as_f64).unwrap();
        assert!(measured > 0.0);
        assert_eq!(a.get("cached").and_then(Json::as_bool), Some(false));
        assert!(a.get("journal").unwrap().get("records").is_some());
    }

    #[test]
    fn deadline_ms_is_a_qos_knob_not_a_cache_key() {
        let patient = PlanRequest::from_json(&parse(r#"{"model": "vgg16"}"#)).unwrap();
        let hurried = PlanRequest::from_json(&parse(
            r#"{"model": "vgg16", "planner": {"deadline_ms": 0}}"#,
        ))
        .unwrap();
        assert_eq!(hurried.planner.deadline_ms, Some(0));
        assert_eq!(patient.planner.deadline_ms, None);
        assert_eq!(patient.canonical_key(), hurried.canonical_key());
        let e = PlanRequest::from_json(&parse(
            r#"{"model": "vgg16", "planner": {"deadline_ms": "soon"}}"#,
        ))
        .unwrap_err();
        assert_eq!(e.status, 400);
    }

    #[test]
    fn expired_deadline_skips_refinement_and_degrades() {
        use ap_resilience::{Deadline, FakeClock};
        let req = PlanRequest::from_json(&parse(r#"{"model": "alexnet"}"#)).unwrap();
        let clock = FakeClock::shared();
        let spent = Deadline::after(clock, std::time::Duration::ZERO);
        let refined = refine_plan(&req, Some(&spent)).unwrap();
        assert!(refined.deadline_cut);
        assert_eq!(refined.rounds, 0);
        assert_eq!(refined.refined, refined.start, "no moves were taken");
        let body = plan_response(&req, &refined, None, Some("deadline-exhausted"));
        assert_eq!(body.get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(
            body.get("degraded_reason").and_then(Json::as_str),
            Some("deadline-exhausted")
        );
        assert!(matches!(body.get("measured_throughput"), Some(Json::Null)));
        assert!(
            body.get("predicted_throughput")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0,
            "the analytic answer is still a real answer"
        );
    }

    #[test]
    fn full_plan_reports_not_degraded() {
        let req = PlanRequest::from_json(&parse(
            r#"{"model": "alexnet", "planner": {"measure_iters": 4}}"#,
        ))
        .unwrap();
        let out = compute_plan(&req).unwrap();
        assert_eq!(out.get("degraded").and_then(Json::as_bool), Some(false));
        assert!(matches!(out.get("degraded_reason"), Some(Json::Null)));
    }

    #[test]
    fn memory_starved_cluster_is_a_typed_422_with_deficits() {
        let req = PlanRequest::from_json(&parse(
            r#"{"model": "bert48", "cluster": {"memory_gb": 0.25}}"#,
        ))
        .unwrap();
        let e = refine_plan(&req, None).unwrap_err();
        assert_eq!(e.status, 422);
        assert_eq!(e.kind, "memory-infeasible");
        let detail = e.detail.expect("per-stage deficits in the body");
        let stages = detail.get("stages").and_then(Json::as_arr).unwrap();
        assert!(!stages.is_empty());
        assert!(
            stages
                .iter()
                .any(|s| s.get("deficit_gb").and_then(Json::as_f64).unwrap() > 0.0),
            "at least one stage is over budget"
        );
    }

    #[test]
    fn plans_report_per_stage_memory_that_fits() {
        let req = PlanRequest::from_json(&parse(r#"{"model": "vgg16"}"#)).unwrap();
        let refined = refine_plan(&req, None).unwrap();
        assert!(!refined.schedule_switched);
        assert!(refined.mem.fits());
        let body = plan_response(&req, &refined, None, Some("breaker-open"));
        let mem = body.get("memory").and_then(Json::as_arr).unwrap();
        assert_eq!(mem.len(), refined.refined.stages.len());
        assert!(mem
            .iter()
            .all(|s| s.get("fits").and_then(Json::as_bool) == Some(true)));
        assert_eq!(
            body.get("schedule_switched").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(
            body.get("requested_schedule").and_then(Json::as_str),
            Some("pipedream_async")
        );
    }

    #[test]
    fn tight_memory_switches_schedule_instead_of_failing() {
        // Probe the refined shape's demand at depth 1 under the requested
        // schedule, then replan with capacity a hair below it: the
        // requested schedule cannot fit at any depth, but a flatter-
        // memory alternative (e.g. recompute) can.
        let probe = PlanRequest::from_json(&parse(r#"{"model": "bert48"}"#)).unwrap();
        let rich = refine_plan(&probe, None).unwrap();
        let profile = zoo_profile("bert48").unwrap();
        let state = probe.cluster.to_state();
        let mut depth1 = rich.refined.clone();
        depth1.in_flight = 1;
        let need = mem_check(
            profile,
            &depth1,
            ScheduleKind::PipeDreamAsync,
            &MemoryModel::default(),
            &state,
        )
        .stages
        .iter()
        .map(|s| s.required)
        .fold(0.0, f64::max);
        let capacity_gb = need * 0.98 / GIB;
        let req = PlanRequest::from_json(&parse(&format!(
            r#"{{"model": "bert48", "cluster": {{"memory_gb": {capacity_gb}}}}}"#
        )))
        .unwrap();
        let refined = refine_plan(&req, None).unwrap();
        assert!(refined.schedule_switched, "expected a schedule switch");
        assert_ne!(refined.schedule, ScheduleKind::PipeDreamAsync);
        assert!(refined.mem.fits());
        let body = plan_response(&req, &refined, None, Some("breaker-open"));
        assert_eq!(
            body.get("schedule_switched").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            body.get("schedule").and_then(Json::as_str),
            Some(refined.schedule.id())
        );
    }

    #[test]
    fn memory_override_splits_the_cache_key() {
        let a = PlanRequest::from_json(&parse(r#"{"model": "vgg16"}"#)).unwrap();
        let b = PlanRequest::from_json(&parse(
            r#"{"model": "vgg16", "cluster": {"memory_gb": 12.0}}"#,
        ))
        .unwrap();
        assert_ne!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn simulate_validates_partition_structure() {
        // Gap between stages → 422 with the validator's message.
        let e = SimulateRequest::from_json(&parse(
            r#"{"model": "alexnet", "partition": {"stages": [
                {"layers": [0, 3], "workers": [0]},
                {"layers": [4, 11], "workers": [1]}]}}"#,
        ))
        .unwrap_err();
        assert_eq!(e.status, 422);
        assert_eq!(e.kind, "invalid-partition");
        // Worker beyond the cluster → 422.
        let e = SimulateRequest::from_json(&parse(
            r#"{"model": "alexnet", "cluster": {"n_servers": 1, "gpus_per_server": 2},
                "partition": {"stages": [{"layers": [0, 11], "workers": [5]}]}}"#,
        ))
        .unwrap_err();
        assert_eq!(e.kind, "infeasible-partition");
    }

    #[test]
    fn simulate_runs_a_valid_partition() {
        let req = SimulateRequest::from_json(&parse(
            r#"{"model": "alexnet", "partition": {"stages": [
                {"layers": [0, 11], "workers": [0, 1, 2, 3]}]}, "iterations": 24}"#,
        ))
        .unwrap();
        let out = compute_simulate(&req).unwrap();
        assert!(out.get("throughput").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(out.get("iterations").and_then(Json::as_usize), Some(24));
    }
}
