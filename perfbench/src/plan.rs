//! The `plan-cold` and `plan-hot` workloads: `POST /plan` over loopback
//! to an in-process ap-serve daemon, and their traced in-process replay.

use std::collections::HashSet;
use std::hint::black_box;
use std::io;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ap_cluster::{gbps, GpuId, GpuKind};
use ap_json::{Json, ToJson};
use ap_mem::{fit_schedule, FitOutcome, MemoryModel};
use ap_models::ModelProfile;
use ap_pipesim::{AnalyticModel, Framework, Partition, ScheduleKind, SyncScheme};
use ap_planner::{pipedream_plan, PipeDreamView};
use ap_resilience::{Clock, Deadline, SystemClock};
use ap_rng::Rng;
use ap_serve::api::{self, PlanRequest, RefinedPlan};
use ap_serve::cache::fnv1a64;
use ap_serve::client::{Client, Response};
use ap_serve::{spawn, PlanCache, ServeConfig, ServerHandle};

use crate::report::{cpu_s, geomean, Outcome, Timing};
use crate::span;

/// `(servers, GPUs per server)` shapes a request draws from: 2 to 12
/// GPUs, around the paper's 5x2 testbed. Planning cost grows steeply
/// with GPU count (a 32-GPU plan takes tens of ms), so larger shapes
/// would turn the stream into a handful of giant plans.
const SHAPES: [(usize, usize); 10] = [
    (2, 1),
    (3, 1),
    (4, 1),
    (2, 2),
    (3, 2),
    (4, 2),
    (5, 2),
    (6, 2),
    (3, 3),
    (4, 3),
];
const GPUS: [&str; 3] = ["p100", "v100", "a100"];
/// Requests served during each plan-cold set-up repetition.
const COLD_WARMUP: usize = ROUND;
/// Leading answers of the stream that `quality` is computed over: one
/// full block of (model, shape, schedule) triples.
const QUALITY_ANSWERS: usize = 5 * ROUND;
/// plan-hot working set: one round, inside the daemon's 128-entry cache.
const HOT_SET: usize = ROUND;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Requests per chunk between (untimed) generation and checking.
const COLD_CHUNK: usize = 128;
const HOT_CHUNK: usize = 2048;
/// Most operations a traced plan pass replays: bounds the span buffer
/// (about seven spans per operation) for plan-hot's ~30k requests/s.
const MAX_TRACED_OPS: usize = 50_000;

/// One generated `/plan` request.
#[derive(Debug, Clone)]
pub struct PlanInput {
    /// Request body, rendered like `Client::request` renders it.
    pub body: String,
    /// Full HTTP/1.1 request bytes (head + body).
    pub raw: Vec<u8>,
    /// Layers of the requested model.
    pub n_layers: usize,
    /// GPUs in the requested cluster.
    pub n_gpus: usize,
}

/// Per-GPU memory floor of each model, GiB: above it, some schedule fits
/// every stage of every partition on up to 12 GPUs at in-flight depth 1,
/// so no request gets a `memory-infeasible` answer. A stage never needs
/// more than the whole model would as that stage, so the floor is the
/// largest, over pipeline depths 1 to 12, of the least (over schedules)
/// footprint of an all-layers stage. Fixed here, not recomputed, so the
/// requests stay the same when the memory model changes; the
/// `floors_bound_the_memory_model` test keeps the table honest.
const MEMORY_FLOOR_GB: [(&str, f64); 10] = [
    ("alexnet", 1.394),
    ("vgg16", 3.728),
    ("resnet50", 1.855),
    ("resnet101", 2.748),
    ("resnet152", 3.734),
    ("bert12", 3.723),
    ("bert24", 6.348),
    ("bert48", 11.598),
    ("gpt2-small", 2.529),
    ("gpt2-medium", 6.278),
];

struct ModelInfo {
    name: &'static str,
    n_layers: usize,
    floor_gb: f64,
}

fn model_infos() -> Vec<ModelInfo> {
    MEMORY_FLOOR_GB
        .iter()
        .map(|&(name, floor_gb)| ModelInfo {
            name,
            n_layers: ModelProfile::of(&api::model_by_name(name).expect("known model")).n_layers(),
            floor_gb,
        })
        .collect()
}

/// Seeded stream of distinct `/plan` requests varying the model, cluster
/// shape, GPU kind, link rate, background jobs, per-GPU memory and
/// schedule. Every request is valid and memory-feasible.
///
/// Planning cost is set mostly by the model, the cluster shape and the
/// schedule, so the stream is stratified over them: every [`ROUND`]
/// consecutive requests hold each (model, shape) pair once, and every
/// `5 * ROUND` hold each (model, shape, schedule) triple once, in seeded
/// order. The other dimensions are drawn freely. Different seeds then
/// differ in their requests but hardly in their mix.
pub struct PlanGen {
    rng: Rng,
    models: Vec<ModelInfo>,
    /// The rest of the current `5 * ROUND` block, last request first.
    block: Vec<(usize, usize, ScheduleKind)>,
    seen: HashSet<String>,
}

/// Requests per round: every (model, shape) pair once.
pub const ROUND: usize = MEMORY_FLOOR_GB.len() * SHAPES.len();

impl PlanGen {
    /// The stream `stream` of workload seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        PlanGen {
            rng: Rng::stream(seed, stream),
            models: model_infos(),
            block: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// The next request not generated before.
    pub fn next_input(&mut self) -> PlanInput {
        if self.block.is_empty() {
            self.refill();
        }
        let (model, shape, schedule) = self.block.pop().expect("block refilled");
        loop {
            let (body, n_layers, n_gpus) = self.draw(model, shape, schedule);
            if self.seen.insert(body.clone()) {
                let raw = format!(
                    "POST /plan HTTP/1.1\r\nHost: ap-serve\r\nContent-Length: {}\r\nContent-Type: application/json\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes();
                return PlanInput {
                    body,
                    raw,
                    n_layers,
                    n_gpus,
                };
            }
        }
    }

    /// Five rounds; pair `p` runs schedule `orders[p][k]` in round `k`.
    fn refill(&mut self) {
        let pairs: Vec<(usize, usize)> = (0..self.models.len())
            .flat_map(|m| (0..SHAPES.len()).map(move |s| (m, s)))
            .collect();
        let orders: Vec<[ScheduleKind; 5]> = pairs
            .iter()
            .map(|_| {
                let mut zoo = ScheduleKind::zoo();
                self.rng.shuffle(&mut zoo);
                zoo
            })
            .collect();
        let mut rounds = Vec::with_capacity(5 * pairs.len());
        for k in 0..5 {
            let mut round: Vec<_> = pairs
                .iter()
                .zip(&orders)
                .map(|(&(m, s), order)| (m, s, order[k]))
                .collect();
            self.rng.shuffle(&mut round);
            rounds.extend(round);
        }
        rounds.reverse();
        self.block = rounds;
    }

    fn draw(
        &mut self,
        model: usize,
        shape: usize,
        schedule: ScheduleKind,
    ) -> (String, usize, usize) {
        let r = &mut self.rng;
        let info = &self.models[model];
        let (servers, per) = SHAPES[shape];
        let n_gpus = servers * per;
        let gpu = GPUS[r.gen_range(0..GPUS.len())];
        let link = 0.25 * r.gen_range(20..=400usize) as f64;
        let mut jobs = Vec::new();
        for _ in 0..r.gen_range(0..=2usize) {
            let mut ids: Vec<usize> = (0..n_gpus).collect();
            r.shuffle(&mut ids);
            ids.truncate(r.gen_range(1..=n_gpus.min(2)));
            ids.sort_unstable();
            let job_gbps = 0.5 * r.gen_range(1..=20usize) as f64;
            jobs.push(Json::obj(vec![
                ("gpus", ids.to_json()),
                ("gbps", job_gbps.to_json()),
            ]));
        }
        let native_gb = match gpu {
            "p100" => GpuKind::P100,
            "v100" => GpuKind::V100,
            _ => GpuKind::A100,
        }
        .memory_bytes()
            / (1u64 << 30) as f64;
        // Half the requests keep native memory where it is feasible; the
        // rest get a tight budget just above the model's floor, where
        // ap-mem clamps the in-flight depth or switches schedule.
        let tight = r.f64() < 0.5 || native_gb < info.floor_gb;
        let memory_gb = if tight {
            let gb = info.floor_gb * (1.0 + 0.6 * r.f64());
            (gb * 100.0).ceil() / 100.0
        } else {
            0.0
        };
        let mut cluster = vec![
            ("n_servers", servers.to_json()),
            ("gpus_per_server", per.to_json()),
            ("gpu", gpu.to_json()),
            ("link_gbps", link.to_json()),
            ("background_jobs", Json::Arr(jobs)),
        ];
        if tight {
            cluster.push(("memory_gb", memory_gb.to_json()));
        }
        let body = Json::obj(vec![
            ("model", info.name.to_json()),
            ("cluster", Json::obj(cluster)),
            ("schedule", schedule.id().to_json()),
        ])
        .pretty();
        (body, info.n_layers, n_gpus)
    }
}

/// Check a cold answer; `Ok(1 + reward)` — the chosen plan's measured
/// throughput over the PipeDream seed's — when it is sound.
fn check_answer(input: &PlanInput, resp: &Json) -> Result<f64, String> {
    if resp.get("degraded").and_then(Json::as_bool) != Some(false) {
        return Err("degraded answer".into());
    }
    let stages = resp
        .get("partition")
        .and_then(|p| p.get("stages"))
        .and_then(Json::as_arr)
        .ok_or("no partition")?;
    let mut next = 0;
    for st in stages {
        let layers = st.get("layers").and_then(Json::as_arr).ok_or("no layers")?;
        let lo = layers.first().and_then(Json::as_usize);
        let hi = layers.get(1).and_then(Json::as_usize);
        match (lo, hi) {
            (Some(lo), Some(hi)) if lo == next && hi > lo => next = hi,
            _ => return Err(format!("stage layers {layers:?} do not continue at {next}")),
        }
        let workers = st
            .get("workers")
            .and_then(Json::as_arr)
            .ok_or("no workers")?;
        let ok = !workers.is_empty()
            && workers
                .iter()
                .all(|w| w.as_usize().is_some_and(|g| g < input.n_gpus));
        if !ok {
            return Err(format!("workers {workers:?} outside {} GPUs", input.n_gpus));
        }
    }
    if next != input.n_layers {
        return Err(format!(
            "partition covers {next} of {} layers",
            input.n_layers
        ));
    }
    let memory = resp
        .get("memory")
        .and_then(Json::as_arr)
        .ok_or("no memory")?;
    if memory.is_empty()
        || !memory
            .iter()
            .all(|m| m.get("fits").and_then(Json::as_bool) == Some(true))
    {
        return Err("a stage does not fit memory".into());
    }
    let reward = resp
        .get("journal")
        .and_then(|j| j.get("records"))
        .and_then(Json::as_arr)
        .and_then(|rs| {
            rs.iter()
                .find(|r| r.get("event").and_then(Json::as_str) == Some("verdict"))
        })
        .and_then(|r| r.get("reward"))
        .and_then(Json::as_f64)
        .ok_or("no arbiter verdict")?;
    Ok(1.0 + reward)
}

/// Check an HTTP response to a cold request.
fn check_response(input: &PlanInput, resp: &io::Result<Response>) -> Result<f64, String> {
    let resp = resp.as_ref().map_err(|e| format!("transport: {e}"))?;
    if resp.status != 200 {
        return Err(format!(
            "status {}: {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    let json = resp.json().ok_or("response is not JSON")?;
    check_answer(input, &json)
}

/// A daemon with `ServeConfig::default()` and one keep-alive client.
struct Daemon {
    handle: ServerHandle,
    client: Client,
}

impl Daemon {
    fn start() -> io::Result<Daemon> {
        let handle = spawn(ServeConfig::default())?;
        let client = Client::connect(handle.addr())?;
        Ok(Daemon { handle, client })
    }

    fn post(&mut self, input: &PlanInput) -> io::Result<Response> {
        match self.client.send_raw(&input.raw) {
            Ok(r) => Ok(r),
            Err(e) => {
                // Count the failure, then carry on over a new connection.
                if let Ok(c) = Client::connect(self.handle.addr()) {
                    self.client = c;
                }
                Err(e)
            }
        }
    }

    fn stop(self) {
        let Daemon { mut handle, client } = self;
        drop(client);
        handle.shutdown();
    }
}

/// Serve `inputs` once, checking every answer; returns `1 + reward` per
/// answer (0 for a failed one).
fn serve_all(d: &mut Daemon, inputs: &[PlanInput], out: &mut Outcome) -> Vec<f64> {
    inputs
        .iter()
        .map(|input| {
            let resp = d.post(input);
            out.attempted += 1;
            match check_response(input, &resp) {
                Ok(ratio) => ratio,
                Err(e) => {
                    out.failed += 1;
                    out.check(false, || format!("plan: {e}"));
                    0.0
                }
            }
        })
        .collect()
}

/// `plan-cold`: every request distinct, so every request plans.
pub fn cold(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new();
    let mut gen = PlanGen::new(seed, 10);
    let warm: Vec<PlanInput> = (0..COLD_WARMUP).map(|_| gen.next_input()).collect();

    let mut timing = Timing::new();
    let mut daemon: Option<Daemon> = None;
    let mut ratios = Vec::new();
    for _ in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            d.stop();
        }
        let started = timing.setup(|| {
            let mut d = Daemon::start()?;
            ratios = serve_all(&mut d, &warm, &mut out);
            Ok::<_, io::Error>(d)
        });
        match started {
            Ok(d) => daemon = Some(d),
            Err(e) => {
                out.check(false, || format!("daemon: {e}"));
                return out;
            }
        }
    }
    let mut d = daemon.expect("set-up ran");

    let budget = Duration::from_secs_f64(seconds);
    let mut timed = Duration::ZERO;
    while timed < budget || ratios.len() < QUALITY_ANSWERS {
        let chunk: Vec<PlanInput> = (0..COLD_CHUNK).map(|_| gen.next_input()).collect();
        let mut replies = Vec::with_capacity(chunk.len());
        let (t, cpu) = (Instant::now(), cpu_s());
        for input in &chunk {
            if timed + t.elapsed() >= budget && ratios.len() + replies.len() >= QUALITY_ANSWERS {
                break;
            }
            let t_op = Instant::now();
            replies.push(d.post(input));
            timing.latencies_s.push(t_op.elapsed().as_secs_f64());
        }
        timed += t.elapsed();
        timing.chunk(replies.len(), cpu);
        for (input, resp) in chunk.iter().zip(&replies) {
            out.attempted += 1;
            match check_response(input, resp) {
                Ok(r) => ratios.push(r),
                Err(e) => {
                    out.failed += 1;
                    ratios.push(0.0);
                    out.check(false, || format!("plan-cold: {e}"));
                }
            }
        }
    }
    d.stop();
    let quality = geomean(&ratios[..QUALITY_ANSWERS]);
    out.end_to_end(&timing, quality);
    out
}

/// The hot working set and the answers it was planned to.
struct HotSet {
    inputs: Vec<PlanInput>,
    /// Expected bytes of each hit: the set-up answer marked cached.
    hits: Vec<Vec<u8>>,
    ratios: Vec<f64>,
}

fn hot_set(seed: u64) -> Vec<PlanInput> {
    let mut gen = PlanGen::new(seed, 11);
    (0..HOT_SET).map(|_| gen.next_input()).collect()
}

/// Plan the working set on a fresh daemon; the timed loop then hits it.
fn hot_setup(inputs: Vec<PlanInput>, out: &mut Outcome) -> Option<(Daemon, HotSet)> {
    let mut d = match Daemon::start() {
        Ok(d) => d,
        Err(e) => {
            out.check(false, || format!("daemon: {e}"));
            return None;
        }
    };
    let mut hits = Vec::with_capacity(inputs.len());
    let mut ratios = Vec::with_capacity(inputs.len());
    for input in &inputs {
        let resp = d.post(input);
        out.attempted += 1;
        let ratio = check_response(input, &resp);
        let body = resp.map(|r| r.body).unwrap_or_default();
        let text = String::from_utf8_lossy(&body);
        let hit = match text.rfind("\"cached\": false") {
            Some(at) => format!("{}\"cached\": true{}", &text[..at], &text[at + 15..]),
            None => String::new(),
        };
        match ratio {
            Ok(r) if !hit.is_empty() => ratios.push(r),
            other => {
                out.failed += 1;
                ratios.push(0.0);
                out.check(false, || format!("plan-hot set-up: {other:?}"));
            }
        }
        hits.push(hit.into_bytes());
    }
    Some((
        d,
        HotSet {
            inputs,
            hits,
            ratios,
        },
    ))
}

/// `plan-hot`: a working set planned during set-up, then only hits.
pub fn hot(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new();
    let inputs = hot_set(seed);
    let mut timing = Timing::new();
    let mut state: Option<(Daemon, HotSet)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((d, _)) = state.take() {
            d.stop();
        }
        state = timing.setup(|| hot_setup(inputs.clone(), &mut out));
        if state.is_none() {
            return out;
        }
    }
    let (mut d, set) = state.expect("set-up ran");

    let mut draws = Rng::stream(seed, 12);
    let budget = Duration::from_secs_f64(seconds);
    let mut timed = Duration::ZERO;
    while timed < budget {
        let picks: Vec<usize> = (0..HOT_CHUNK)
            .map(|_| draws.gen_range(0..set.inputs.len()))
            .collect();
        let mut replies = Vec::with_capacity(picks.len());
        let (t, cpu) = (Instant::now(), cpu_s());
        for &i in &picks {
            if timed + t.elapsed() >= budget {
                break;
            }
            let t_op = Instant::now();
            replies.push(d.post(&set.inputs[i]));
            timing.latencies_s.push(t_op.elapsed().as_secs_f64());
        }
        timed += t.elapsed();
        timing.chunk(replies.len(), cpu);
        for (&i, resp) in picks.iter().zip(&replies) {
            out.attempted += 1;
            let ok = matches!(resp, Ok(r) if r.status == 200 && r.body == set.hits[i]);
            if !ok {
                out.failed += 1;
                out.check(false, || {
                    format!("plan-hot: hit {i} differs from its set-up answer")
                });
            }
        }
    }
    d.stop();
    let quality = geomean(&set.ratios);
    out.end_to_end(&timing, quality);
    out
}

// ---------------------------------------------------------------------
// Traced in-process replay.

/// What the probes and the replay count per operation.
#[derive(Debug, Default)]
struct ReplayCounts {
    hits: u64,
    plans: u64,
    scored: u64,
    switched: u64,
    response_bytes: u64,
    errors: u64,
}

fn set_cached(resp: &mut Json) {
    if let Json::Obj(fields) = resp {
        for (k, v) in fields.iter_mut() {
            if k == "cached" {
                *v = true.to_json();
            }
        }
    }
}

/// The `handle_plan` call sequence, one span per layer boundary. Returns
/// the rendered answer and, on a miss, the request and its refined plan
/// for the probes.
fn handle(
    body: &[u8],
    cache: &mut PlanCache,
    clock: &Arc<dyn Clock>,
) -> Result<(String, Option<(PlanRequest, RefinedPlan)>), api::ApiError> {
    let parsed = span::span("json.parse", || api::parse_body(body))?;
    let req = span::span("serve.validate", || PlanRequest::from_json(&parsed))?;
    let digest = span::span("cache.key", || fnv1a64(&req.canonical_key()));
    if let Some(mut hit) = span::span("cache.lookup", || cache.get(digest)) {
        let text = span::span("json.render", || {
            set_cached(&mut hit);
            hit.pretty()
        });
        return Ok((text, None));
    }
    let deadline = Deadline::after(Arc::clone(clock), default_deadline());
    let refined = span::span("core.refine", || api::refine_plan(&req, Some(&deadline)))?;
    let verified = span::span("pipesim.verify", || api::verify_plan(&req, &refined))?;
    let response = span::span("json.render", || {
        api::plan_response(&req, &refined, Some(&verified), None)
    });
    span::span("cache.insert", || cache.insert(digest, response.clone()));
    let text = span::span("json.render", || response.pretty());
    Ok((text, Some((req, refined))))
}

/// The daemon's planning budget when a request names none.
fn default_deadline() -> Duration {
    static BUDGET: OnceLock<Duration> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        Duration::from_millis(ServeConfig::default().resilience.default_deadline_ms)
    })
}

/// Re-run the two steps `refine_plan` performs internally that the
/// benchmark can call on their own: the PipeDream seed and the memory
/// fit of the refined candidate (at its depth before clamping).
///
/// This mirrors `refine_plan`'s private set-up (ring all-reduce, the
/// PyTorch framework model, the analytic fit score), so `mem.fit_us` and
/// `core.refine_us` are estimates from a mirrored call, not timings of
/// the program's own. `probe_fit_matches_refine_plan` checks that the
/// mirror still reaches the program's fit decision.
fn probes(req: &PlanRequest, refined: &RefinedPlan) -> Option<FitOutcome> {
    let desc = api::model_by_name(&req.model).expect("validated model");
    let profile = ModelProfile::of(&desc);
    let state = req.cluster.to_state();
    let all: Vec<GpuId> = (0..req.cluster.n_gpus()).map(GpuId).collect();
    span::span("planner.seed", || {
        black_box(pipedream_plan(
            &profile,
            &all,
            PipeDreamView {
                bandwidth: gbps(req.cluster.link_gbps),
                gpu_flops: req.cluster.gpu.peak_flops(),
            },
        ))
    });
    let mut current = refined.refined.clone();
    // Seed and moves both leave a partition at its default depth; the
    // fit only lowers it.
    current.in_flight = current.default_in_flight();
    let analytic = |part: &Partition, kind: ScheduleKind| {
        AnalyticModel {
            profile: &profile,
            scheme: SyncScheme::RingAllReduce,
            framework: Framework::pytorch(),
            schedule: kind,
            calibration: req.planner.calibration,
        }
        .throughput(part, &state)
    };
    let shape = current.clone();
    let score = |kind: ScheduleKind, n: usize| {
        let mut cand = shape.clone();
        cand.in_flight = n;
        analytic(&cand, kind)
    };
    span::span("mem.fit", || {
        fit_schedule(
            &profile,
            &current,
            req.schedule,
            &MemoryModel::default(),
            &state,
            &score,
        )
    })
}

/// Run one request in process against `cache`: a `plan.op` root span
/// when recording, and with `probe` the two probes as separate roots
/// after a miss.
fn replay_one(body: &[u8], cache: &mut PlanCache, counts: &mut ReplayCounts, probe: bool) {
    let clock = SystemClock::shared();
    match span::span("plan.op", || handle(body, cache, &clock)) {
        Ok((text, miss)) => {
            counts.response_bytes += text.len() as u64;
            match miss {
                Some((req, refined)) => {
                    counts.plans += 1;
                    counts.scored += refined.scored as u64;
                    counts.switched += u64::from(refined.schedule_switched);
                    if probe {
                        probes(&req, &refined);
                    }
                }
                None => counts.hits += 1,
            }
        }
        Err(_) => counts.errors += 1,
    }
}

/// Per-layer metrics of one plan workload. Each of the workload's
/// requests runs three times back to back, so host drift hits all three
/// alike: over HTTP, in process untraced, and in process traced. The two
/// in-process runs each have their own cache (holding the working set,
/// for plan-hot).
pub fn traced(
    hot_mode: bool,
    seed: u64,
    budget: Duration,
    spans_out: &mut Vec<(&'static str, Vec<span::Span>)>,
) -> Outcome {
    let prefix = if hot_mode { "plan-hot" } else { "plan-cold" };
    let mut out = Outcome::new();
    let set = if hot_mode { hot_set(seed) } else { Vec::new() };
    let mut gen = PlanGen::new(seed, 10);
    let mut draws = Rng::stream(seed, 12);

    let Ok(mut d) = Daemon::start() else {
        out.check(false, || "daemon failed to start".into());
        return out;
    };
    let fresh_cache = || {
        let mut cache = PlanCache::new(ServeConfig::default().cache_capacity);
        for input in &set {
            replay_one(
                input.body.as_bytes(),
                &mut cache,
                &mut ReplayCounts::default(),
                false,
            );
        }
        cache
    };
    for input in &set {
        out.attempted += 1;
        if check_response(input, &d.post(input)).is_err() {
            out.failed += 1;
        }
    }
    let (mut plain_cache, mut cache) = (fresh_cache(), fresh_cache());
    let mut counts = ReplayCounts::default();
    let (mut http_s, mut plain_s, mut n) = (0.0, 0.0, 0usize);
    span::start();
    let t = Instant::now();
    while t.elapsed() < budget && n < MAX_TRACED_OPS {
        let next;
        let input = if hot_mode {
            &set[draws.gen_range(0..set.len())]
        } else {
            next = gen.next_input();
            &next
        };
        // The first run of a request meets colder CPU caches than the two
        // after it, so the three take turns going first.
        let body = input.body.as_bytes();
        for turn in 0..3 {
            let t_op = Instant::now();
            match (n + turn) % 3 {
                0 => {
                    let resp = d.post(input);
                    http_s += t_op.elapsed().as_secs_f64();
                    out.attempted += 1;
                    if !matches!(&resp, Ok(r) if r.status == 200) {
                        out.failed += 1;
                    }
                }
                1 => {
                    span::untraced(|| {
                        replay_one(body, &mut plain_cache, &mut ReplayCounts::default(), false)
                    });
                    plain_s += t_op.elapsed().as_secs_f64();
                }
                _ => {
                    span::set_op(n as u64);
                    replay_one(body, &mut cache, &mut counts, true);
                }
            }
        }
        n += 1;
    }
    let spans = span::finish();
    d.stop();

    out.check(counts.errors == 0, || {
        format!("{prefix}: {} replay errors", counts.errors)
    });
    let roots = match span::check_nesting(&spans, "plan.op") {
        Ok(roots) => roots,
        Err(e) => {
            out.check(false, || format!("{prefix}: {e}"));
            0
        }
    };
    let t = span::totals(&spans);
    let n = n as f64;
    // Self time per operation, in µs.
    let per_op = |name: &str| t.get(name).map_or(0.0, |x| x.self_ns as f64) / n / 1e3;
    let plain_op_us = plain_s / n * 1e6;
    let traced_op_us = roots as f64 / n / 1e3;
    let mut m =
        |name: &str, v: f64, unit: &'static str| out.push(format!("{prefix}.{name}"), v, unit);
    m("json.parse_us", per_op("json.parse"), "us");
    m("serve.validate_us", per_op("serve.validate"), "us");
    m("cache.key_us", per_op("cache.key"), "us");
    m("cache.lookup_us", per_op("cache.lookup"), "us");
    m("cache.hit_ratio", counts.hits as f64 / n, "ratio");
    m("json.render_us", per_op("json.render"), "us");
    m(
        "json.response_bytes",
        counts.response_bytes as f64 / n,
        "bytes",
    );
    if !hot_mode {
        let (_, _, entries, _, _) = cache.stats();
        let plans = counts.plans.max(1) as f64;
        // Every plan-cold request misses, so per operation is per plan.
        let seed_us = per_op("planner.seed");
        let fit_us = per_op("mem.fit");
        m("cache.insert_us", per_op("cache.insert"), "us");
        m(
            "cache.evictions",
            counts.plans.saturating_sub(entries as u64) as f64,
            "count",
        );
        m("planner.seed_us", seed_us, "us");
        m(
            "core.refine_us",
            per_op("core.refine") - seed_us - fit_us,
            "us",
        );
        m(
            "core.candidates_per_plan",
            counts.scored as f64 / plans,
            "count",
        );
        m("mem.fit_us", fit_us, "us");
        m("mem.switch_ratio", counts.switched as f64 / plans, "ratio");
        m("pipesim.verify_us", per_op("pipesim.verify"), "us");
    }
    m("serve.transport_us", http_s / n * 1e6 - plain_op_us, "us");
    m("trace.op_us", traced_op_us, "us");
    m("trace.unattributed_us", per_op("plan.op"), "us");
    m("trace.overhead", traced_op_us / plain_op_us, "ratio");
    let mut parts = vec![
        "json.parse_us",
        "serve.validate_us",
        "cache.key_us",
        "cache.lookup_us",
        "json.render_us",
        "trace.unattributed_us",
    ];
    if !hot_mode {
        parts.extend([
            "cache.insert_us",
            "planner.seed_us",
            "core.refine_us",
            "mem.fit_us",
            "pipesim.verify_us",
        ]);
    }
    let parts: Vec<String> = parts.iter().map(|p| format!("{prefix}.{p}")).collect();
    let parts: Vec<&str> = parts.iter().map(String::as_str).collect();
    out.check_sum(&parts, &format!("{prefix}.trace.op_us"));
    spans_out.push((prefix, spans));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_mem::footprint;
    use ap_pipesim::Stage;
    use ap_serve::api::KNOWN_MODELS;

    #[test]
    fn floors_bound_the_memory_model() {
        let mem = MemoryModel::default();
        assert_eq!(MEMORY_FLOOR_GB.len(), KNOWN_MODELS.len());
        for (name, floor_gb) in MEMORY_FLOOR_GB {
            let profile = ModelProfile::of(&api::model_by_name(name).expect("known model"));
            let l = profile.n_layers();
            for depth in 1..=12usize {
                let all_layers = Partition {
                    stages: (0..depth)
                        .map(|i| Stage::new(0..l, vec![GpuId(i)]))
                        .collect(),
                    in_flight: 1,
                };
                let need = ScheduleKind::zoo()
                    .into_iter()
                    .map(|k| {
                        footprint(&profile, &all_layers, k, &mem)
                            .iter()
                            .map(|f| f.total())
                            .fold(0.0, f64::max)
                    })
                    .fold(f64::INFINITY, f64::min);
                let need_gb = need / (1u64 << 30) as f64;
                assert!(
                    need_gb <= floor_gb,
                    "{name} at depth {depth}: {need_gb} > {floor_gb}"
                );
            }
        }
    }

    #[test]
    fn probe_fit_matches_refine_plan() {
        let mut gen = PlanGen::new(5, 10);
        let mut switched = 0;
        for _ in 0..60 {
            let input = gen.next_input();
            let parsed = api::parse_body(input.body.as_bytes()).unwrap();
            let req = PlanRequest::from_json(&parsed).unwrap();
            let refined = api::refine_plan(&req, None).unwrap();
            let fit = probes(&req, &refined).expect("the program's fit succeeded");
            assert_eq!(fit.kind, refined.schedule, "{}", input.body);
            assert_eq!(fit.switched, refined.schedule_switched, "{}", input.body);
            assert_eq!(fit.in_flight, refined.refined.in_flight, "{}", input.body);
            switched += usize::from(fit.switched);
        }
        assert!(switched > 0, "no request of the sample switched schedule");
    }

    #[test]
    fn streams_are_distinct_and_seeded() {
        let mut a = PlanGen::new(3, 10);
        let mut b = PlanGen::new(3, 10);
        let xs: Vec<String> = (0..200).map(|_| a.next_input().body).collect();
        let ys: Vec<String> = (0..200).map(|_| b.next_input().body).collect();
        assert_eq!(xs, ys);
        assert_eq!(xs.iter().collect::<HashSet<_>>().len(), xs.len());
    }
}
