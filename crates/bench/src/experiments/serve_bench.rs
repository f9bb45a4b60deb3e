//! `repro serve-bench` — an in-process load generator for the `ap-serve`
//! daemon, over real sockets.
//!
//! Spawns the daemon on an ephemeral loopback port and drives every
//! endpoint through [`ap_serve::client::Client`]: functional checks
//! (plan, cache hit, invalidation, simulate, malformed input), a
//! single-connection latency sweep, a fixed-concurrency throughput sweep
//! on the cached plan path, a 4x-admission-capacity overload burst
//! against a one-worker daemon (shed clients honor the computed
//! `Retry-After` via [`ap_resilience::Retry`] and recover), a graceful
//! shutdown, and a degraded-operation drill: induced verification
//! failures trip the circuit breaker, `/plan` keeps answering 200 with
//! `"degraded": true`, and the half-open probe closes the breaker again.
//!
//! Two modes share the code path:
//!
//! * **full** — real measurements; `repro serve-bench` exports
//!   `BENCH_serve.json` (latency percentiles, throughput, cache speedup).
//! * **`--smoke`** — the same checks gated for CI with every wall-clock
//!   reading reported as zero (fixed-clock reporting) and racy overload
//!   tallies reduced to their boolean verdicts, so the emitted JSON is
//!   byte-identical across runs.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ap_json::{Json, ToJson};
use ap_resilience::{Retry, RetryConfig, SystemClock};
use ap_serve::client::Client;
use ap_serve::{spawn, ResilienceConfig, ServeConfig};

use crate::timing::percentile;

/// One pass/fail probe of the daemon.
#[derive(Debug, Clone)]
pub struct CheckRow {
    /// What was probed.
    pub name: String,
    /// Short outcome description (deterministic in smoke mode).
    pub status: String,
    /// Whether the probe passed.
    pub ok: bool,
}

/// The `/plan` cold-vs-cached story.
#[derive(Debug, Clone)]
pub struct PlanSummary {
    /// Model planned.
    pub model: String,
    /// Chosen partition, summary form.
    pub partition: String,
    /// The analytic scorer's throughput prediction, samples/sec.
    pub predicted_throughput: f64,
    /// Wall seconds for the cold plan (0 in smoke).
    pub cold_seconds: f64,
    /// Median wall seconds for a cached plan (0 in smoke).
    pub cached_seconds: f64,
    /// `cold / cached` (0 in smoke).
    pub cache_speedup: f64,
}

/// Single-connection latency for one endpoint.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Endpoint label.
    pub endpoint: String,
    /// Requests timed.
    pub requests: usize,
    /// Median latency, ms (0 in smoke).
    pub p50_ms: f64,
    /// 95th percentile, ms (0 in smoke).
    pub p95_ms: f64,
    /// 99th percentile, ms (0 in smoke).
    pub p99_ms: f64,
}

/// Sustained cached-plan throughput at one concurrency level.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Concurrent connections.
    pub connections: usize,
    /// Total requests completed.
    pub requests: usize,
    /// Requests per second (0 in smoke).
    pub req_per_sec: f64,
    /// Median per-request latency, ms (0 in smoke).
    pub p50_ms: f64,
    /// 95th percentile, ms (0 in smoke).
    pub p95_ms: f64,
    /// 99th percentile, ms (0 in smoke).
    pub p99_ms: f64,
    /// Cache hit rate over the phase (prewarmed, so 1.0 when healthy).
    pub cache_hit_rate: f64,
}

/// What the 4x-capacity burst did to a one-worker daemon.
#[derive(Debug, Clone)]
pub struct OverloadSummary {
    /// Connections offered at once.
    pub offered_connections: usize,
    /// The admission bound.
    pub queue_capacity: usize,
    /// Connections shed with 503 (0 in smoke — racy tally).
    pub shed_503: u64,
    /// Connections served with 200 (0 in smoke — racy tally).
    pub served_200: u64,
    /// Every 503 carried `Retry-After`.
    pub got_retry_after: bool,
    /// Peak admission-queue depth observed (0 in smoke).
    pub peak_queue_depth: usize,
    /// Peak depth never exceeded the configured bound.
    pub depth_within_bound: bool,
    /// Shed clients that came back after honoring `Retry-After` and got a
    /// 200 (0 in smoke — racy tally).
    pub recovered_after_hint: u64,
    /// Every shed client recovered within its retry budget.
    pub all_shed_recovered: bool,
}

/// The degraded-operation drill against a tight-breaker daemon.
#[derive(Debug, Clone)]
pub struct DegradedSummary {
    /// Zero-budget (`deadline_ms: 0`) requests used to trip the breaker.
    pub induced_failures: usize,
    /// Responses degraded `deadline-exhausted` (equals `induced_failures`
    /// when healthy).
    pub degraded_deadline: u64,
    /// Responses degraded `breaker-open` while the breaker cooled down.
    pub degraded_breaker_open: u64,
    /// `/metrics` showed `ap_breaker_state 1` after the induced failures.
    pub breaker_opened: bool,
    /// The first request past the cooldown rode the half-open probe,
    /// verified fine, and closed the breaker again.
    pub breaker_recovered: bool,
    /// p99 of the degraded answers, ms (0 in smoke) — degrading must be
    /// cheap, that is the point.
    pub degraded_p99_ms: f64,
    /// A zero-capacity plan bulkhead shed with `503 + Retry-After` while
    /// `/simulate` kept working.
    pub bulkhead_shed: bool,
}

/// The full serve-bench outcome.
#[derive(Debug, Clone)]
pub struct ServeBenchResult {
    /// `"full"` or `"smoke"`.
    pub mode: String,
    /// Worker threads the main daemon ran.
    pub workers: usize,
    /// Its admission bound.
    pub queue_capacity: usize,
    /// Its plan-cache capacity.
    pub cache_capacity: usize,
    /// Functional probes, in execution order.
    pub checks: Vec<CheckRow>,
    /// Cold-vs-cached plan economics.
    pub plan: PlanSummary,
    /// Per-endpoint latency.
    pub latency: Vec<LatencyRow>,
    /// Cached-plan throughput by concurrency.
    pub throughput: Vec<ThroughputRow>,
    /// The overload burst.
    pub overload: OverloadSummary,
    /// The breaker/degradation drill.
    pub degraded: DegradedSummary,
}

impl ServeBenchResult {
    /// Whether every check passed.
    pub fn all_ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

fn check(name: &str, ok: bool, status: impl Into<String>) -> CheckRow {
    CheckRow {
        name: name.to_string(),
        status: status.into(),
        ok,
    }
}

/// The canonical bench plan request: vgg16 on a contended testbed so
/// refinement has something to do.
fn plan_body(link_gbps: f64) -> Json {
    Json::obj(vec![
        ("model", "vgg16".to_json()),
        (
            "cluster",
            Json::obj(vec![
                ("link_gbps", link_gbps.to_json()),
                (
                    "background_jobs",
                    Json::Arr(vec![Json::obj(vec![
                        ("gpus", vec![0usize, 1].to_json()),
                        ("gbps", 5.0.to_json()),
                    ])]),
                ),
            ]),
        ),
        (
            "planner",
            Json::obj(vec![("measure_iters", 8usize.to_json())]),
        ),
    ])
}

/// A cheap cold-plan request with a distinct cache key per index (used to
/// keep the overload worker busy without cache help).
fn cold_plan_body(i: usize) -> Json {
    Json::obj(vec![
        ("model", "alexnet".to_json()),
        (
            "cluster",
            Json::obj(vec![("link_gbps", (40.0 + i as f64).to_json())]),
        ),
        (
            "planner",
            Json::obj(vec![("measure_iters", 4usize.to_json())]),
        ),
    ])
}

/// Drop the volatile `cached` flag so cold and hit responses compare
/// equal.
fn strip_cached(j: &Json) -> Json {
    match j {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "cached")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run the bench. `smoke` shrinks request counts and zeroes every
/// wall-clock field in the result.
pub fn run(smoke: bool) -> Result<ServeBenchResult, String> {
    fn err(stage: &'static str) -> impl Fn(std::io::Error) -> String {
        move |e| format!("{stage}: {e}")
    }
    let workers = if smoke { 2 } else { 4 };
    let queue_capacity = 8;
    let cache_capacity = 32;
    let mut handle = spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity,
        cache_capacity,
        ..ServeConfig::default()
    })
    .map_err(err("spawn"))?;
    let addr = handle.addr();
    let mut checks = Vec::new();

    let mut c = Client::connect(addr).map_err(err("connect"))?;

    // -- functional checks ------------------------------------------------
    let r = c.request("GET", "/health", None).map_err(err("health"))?;
    let healthy = r.status == 200
        && r.json()
            .and_then(|j| j.get("status").and_then(Json::as_str).map(String::from))
            .as_deref()
            == Some("ok");
    checks.push(check(
        "health",
        healthy,
        if healthy { "200 ok" } else { "bad" },
    ));

    let body = plan_body(10.0);
    let t0 = Instant::now();
    let cold = c
        .request("POST", "/plan", Some(&body))
        .map_err(err("plan"))?;
    let cold_seconds = t0.elapsed().as_secs_f64();
    let cold_json = cold.json().unwrap_or(Json::Null);
    let plan_ok = cold.status == 200
        && cold_json.get("cached").and_then(Json::as_bool) == Some(false)
        && cold_json.get("partition").is_some();
    checks.push(check(
        "plan_cold",
        plan_ok,
        if plan_ok { "200 cached=false" } else { "bad" },
    ));

    let mut cached_samples = Vec::new();
    let reps = if smoke { 5 } else { 40 };
    let mut hit_json = Json::Null;
    let mut hit_ok = true;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = c
            .request("POST", "/plan", Some(&body))
            .map_err(err("plan hit"))?;
        cached_samples.push(t0.elapsed().as_secs_f64());
        hit_json = r.json().unwrap_or(Json::Null);
        hit_ok &= r.status == 200 && hit_json.get("cached").and_then(Json::as_bool) == Some(true);
    }
    let hit_matches = strip_cached(&hit_json).pretty() == strip_cached(&cold_json).pretty();
    checks.push(check(
        "plan_cache_hit",
        hit_ok && hit_matches,
        if hit_ok && hit_matches {
            "200 cached=true, body matches cold plan"
        } else {
            "mismatch"
        },
    ));
    let cached_seconds = percentile(cached_samples.clone(), 50.0);

    let r = c
        .request("POST", "/invalidate", None)
        .map_err(err("invalidate"))?;
    let gen_bumped = r.status == 200
        && r.json()
            .and_then(|j| j.get("generation").and_then(Json::as_usize))
            == Some(1);
    let recomputed = c
        .request("POST", "/plan", Some(&body))
        .map_err(err("replan"))?;
    let recomputed_json = recomputed.json().unwrap_or(Json::Null);
    let recompute_ok = gen_bumped
        && recomputed_json.get("cached").and_then(Json::as_bool) == Some(false)
        && strip_cached(&recomputed_json).pretty() == strip_cached(&cold_json).pretty();
    checks.push(check(
        "invalidate_then_recompute",
        recompute_ok,
        if recompute_ok {
            "generation bumped; recomputed plan is byte-identical"
        } else {
            "mismatch"
        },
    ));

    let sim_body = Json::obj(vec![
        ("model", "vgg16".to_json()),
        (
            "cluster",
            Json::obj(vec![
                ("link_gbps", 10.0.to_json()),
                (
                    "background_jobs",
                    Json::Arr(vec![Json::obj(vec![
                        ("gpus", vec![0usize, 1].to_json()),
                        ("gbps", 5.0.to_json()),
                    ])]),
                ),
            ]),
        ),
        (
            "partition",
            cold_json.get("partition").cloned().unwrap_or(Json::Null),
        ),
        ("iterations", 32usize.to_json()),
    ]);
    let r = c
        .request("POST", "/simulate", Some(&sim_body))
        .map_err(err("simulate"))?;
    let sim_ok = r.status == 200
        && r.json()
            .and_then(|j| j.get("throughput").and_then(Json::as_f64))
            .is_some_and(|t| t > 0.0);
    checks.push(check(
        "simulate_planned_partition",
        sim_ok,
        if sim_ok { "200, throughput > 0" } else { "bad" },
    ));

    let bad = c
        .send_raw(b"POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"model\":")
        .map_err(err("bad json"))?;
    let bad_ok = bad.status == 400;
    checks.push(check("bad_json_is_400", bad_ok, bad.status.to_string()));
    drop(c); // send_raw's 400 closes the connection

    let mut c = Client::connect(addr).map_err(err("reconnect"))?;
    let unk = c
        .request(
            "POST",
            "/plan",
            Some(&Json::obj(vec![("model", "vgg99".to_json())])),
        )
        .map_err(err("unknown model"))?;
    let unk_ok = unk.status == 422
        && unk
            .json()
            .and_then(|j| {
                j.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str)
                    .map(String::from)
            })
            .as_deref()
            == Some("unknown-model");
    checks.push(check(
        "unknown_model_is_422",
        unk_ok,
        unk.status.to_string(),
    ));

    let nf = c.request("GET", "/nope", None).map_err(err("404"))?;
    checks.push(check(
        "unknown_route_is_404",
        nf.status == 404,
        nf.status.to_string(),
    ));
    let mna = c.request("DELETE", "/plan", None).map_err(err("405"))?;
    checks.push(check(
        "wrong_method_is_405",
        mna.status == 405,
        mna.status.to_string(),
    ));

    // A client that dies mid-body must get a clean 400, not wedge a worker.
    let mut t = Client::connect(addr).map_err(err("truncated connect"))?;
    t.send_partial(b"POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: 400\r\n\r\n{\"model\"")
        .map_err(err("truncated write"))?;
    t.shutdown_write().map_err(err("truncated shutdown"))?;
    let tr = t.read_any().map_err(err("truncated read"))?;
    checks.push(check(
        "truncated_body_is_400",
        tr.status == 400,
        tr.status.to_string(),
    ));
    drop(t);

    // -- latency sweep ----------------------------------------------------
    let lat_reps = if smoke { 8 } else { 200 };
    let mut latency = Vec::new();
    let sim_small = sim_body.clone();
    for (endpoint, method, path, body) in [
        ("health", "GET", "/health", None),
        ("plan-cached", "POST", "/plan", Some(&body)),
        ("simulate", "POST", "/simulate", Some(&sim_small)),
    ] {
        let mut samples = Vec::with_capacity(lat_reps);
        for _ in 0..lat_reps {
            let t0 = Instant::now();
            let r = c.request(method, path, body).map_err(err("latency"))?;
            samples.push(ms(t0.elapsed()));
            if r.status != 200 {
                return Err(format!("latency sweep: {endpoint} returned {}", r.status));
            }
        }
        latency.push(LatencyRow {
            endpoint: endpoint.to_string(),
            requests: lat_reps,
            p50_ms: if smoke {
                0.0
            } else {
                percentile(samples.clone(), 50.0)
            },
            p95_ms: if smoke {
                0.0
            } else {
                percentile(samples.clone(), 95.0)
            },
            p99_ms: if smoke {
                0.0
            } else {
                percentile(samples, 99.0)
            },
        });
    }

    // -- throughput sweep (cached plan path) ------------------------------
    let conn_levels: &[usize] = if smoke { &[2] } else { &[2, 4, 8] };
    let per_conn = if smoke { 5 } else { 100 };
    let mut throughput = Vec::new();
    for &conns in conn_levels {
        let stats_before = c.request("GET", "/stats", None).map_err(err("stats"))?;
        let hits_before = cache_hits(&stats_before);
        let barrier = Arc::new(Barrier::new(conns));
        let t0 = Instant::now();
        let threads: Vec<_> = (0..conns)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let body = plan_body(10.0);
                std::thread::spawn(move || -> Result<Vec<f64>, String> {
                    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
                    barrier.wait();
                    let mut samples = Vec::with_capacity(per_conn);
                    for _ in 0..per_conn {
                        let t = Instant::now();
                        let r = c
                            .request("POST", "/plan", Some(&body))
                            .map_err(|e| e.to_string())?;
                        samples.push(ms(t.elapsed()));
                        if r.status != 200 {
                            return Err(format!("throughput request got {}", r.status));
                        }
                    }
                    Ok(samples)
                })
            })
            .collect();
        let mut samples = Vec::new();
        for t in threads {
            samples.extend(t.join().map_err(|_| "throughput thread panicked")??);
        }
        let wall = t0.elapsed().as_secs_f64();
        let stats_after = c.request("GET", "/stats", None).map_err(err("stats"))?;
        let hits_after = cache_hits(&stats_after);
        let requests = conns * per_conn;
        let hit_rate = (hits_after - hits_before) as f64 / requests as f64;
        throughput.push(ThroughputRow {
            connections: conns,
            requests,
            req_per_sec: if smoke { 0.0 } else { requests as f64 / wall },
            p50_ms: if smoke {
                0.0
            } else {
                percentile(samples.clone(), 50.0)
            },
            p95_ms: if smoke {
                0.0
            } else {
                percentile(samples.clone(), 95.0)
            },
            p99_ms: if smoke {
                0.0
            } else {
                percentile(samples, 99.0)
            },
            cache_hit_rate: hit_rate,
        });
    }
    let warm_hits = throughput.iter().all(|t| t.cache_hit_rate >= 0.999);
    checks.push(check(
        "throughput_all_cache_hits",
        warm_hits,
        if warm_hits {
            "hit rate 1.0"
        } else {
            "cold misses"
        },
    ));

    // -- graceful shutdown ------------------------------------------------
    let r = c
        .request("POST", "/shutdown", None)
        .map_err(err("shutdown"))?;
    let drain_acked = r.status == 200
        && r.json()
            .and_then(|j| j.get("draining").and_then(Json::as_bool))
            == Some(true);
    drop(c);
    handle.shutdown();
    let refused = Client::connect(addr).is_err();
    checks.push(check(
        "graceful_shutdown",
        drain_acked && refused,
        if drain_acked && refused {
            "drained; listener closed"
        } else {
            "bad"
        },
    ));

    // -- overload: 4x admission capacity against one worker ---------------
    let overload_queue = 4;
    let offered = 4 * overload_queue;
    let mut small = spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: overload_queue,
        cache_capacity: 4,
        ..ServeConfig::default()
    })
    .map_err(err("overload spawn"))?;
    let small_addr = small.addr();
    let barrier = Arc::new(Barrier::new(offered));
    let threads: Vec<_> = (0..offered)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || -> Result<(u16, bool, bool), String> {
                let mut c = Client::connect(small_addr).map_err(|e| e.to_string())?;
                barrier.wait();
                // Shed connections get their 503 unprompted at accept time.
                let Some(r) = c.read_unsolicited(Duration::from_millis(400)) else {
                    let r = c
                        .request("POST", "/plan", Some(&cold_plan_body(i)))
                        .map_err(|e| e.to_string())?;
                    return Ok((r.status, r.header("retry-after").is_some(), false));
                };
                let Some(hint) = r.retry_after() else {
                    return Ok((r.status, false, false));
                };
                // A well-behaved client honors the hint: wait it out, then
                // come back under the composed retry policy (seeded
                // backoff, stretched by any further Retry-After).
                drop(c);
                std::thread::sleep(hint);
                let clock = SystemClock::new();
                let mut retry = Retry::new(
                    RetryConfig {
                        max_attempts: 5,
                        base_delay: Duration::from_millis(100),
                        max_delay: Duration::from_secs(2),
                    },
                    i as u64,
                );
                let recovered = retry
                    .run(&clock, std::thread::sleep, |_| {
                        let mut c =
                            Client::connect(small_addr).map_err(|e| (e.to_string(), None))?;
                        if let Some(r) = c.read_unsolicited(Duration::from_millis(200)) {
                            return Err((format!("re-shed {}", r.status), r.retry_after()));
                        }
                        let r = c
                            .request("POST", "/plan", Some(&cold_plan_body(i)))
                            .map_err(|e| (e.to_string(), None))?;
                        if r.status == 200 {
                            Ok(())
                        } else {
                            Err((format!("retry got {}", r.status), r.retry_after()))
                        }
                    })
                    .is_ok();
                Ok((r.status, true, recovered))
            })
        })
        .collect();
    let mut shed_503 = 0u64;
    let mut served_200 = 0u64;
    let mut recovered_after_hint = 0u64;
    let mut got_retry_after = true;
    let mut all_shed_recovered = true;
    let mut overload_errors = Vec::new();
    for t in threads {
        match t.join().map_err(|_| "overload thread panicked")? {
            Ok((200, _, _)) => served_200 += 1,
            Ok((503, retry, recovered)) => {
                shed_503 += 1;
                got_retry_after &= retry;
                all_shed_recovered &= recovered;
                recovered_after_hint += recovered as u64;
            }
            Ok((other, _, _)) => overload_errors.push(format!("unexpected status {other}")),
            Err(e) => overload_errors.push(e),
        }
    }
    let mut probe = Client::connect(small_addr).map_err(err("overload stats"))?;
    let stats = probe
        .request("GET", "/stats", None)
        .map_err(err("overload stats"))?;
    let peak_depth = stats
        .json()
        .and_then(|j| {
            j.get("queue")
                .and_then(|q| q.get("peak_depth"))
                .and_then(Json::as_usize)
        })
        .unwrap_or(usize::MAX);
    drop(probe);
    small.shutdown();
    let depth_within_bound = peak_depth <= overload_queue;
    let overload_ok = overload_errors.is_empty()
        && shed_503 > 0
        && served_200 > 0
        && served_200 + shed_503 == offered as u64
        && got_retry_after
        && depth_within_bound;
    checks.push(check(
        "overload_sheds_with_503",
        overload_ok,
        if overload_ok {
            "shed with Retry-After; queue depth stayed within bound".to_string()
        } else {
            format!(
                "served={served_200} shed={shed_503} retry_after={got_retry_after} \
                 peak_depth_ok={depth_within_bound} errors={overload_errors:?}"
            )
        },
    ));
    checks.push(check(
        "shed_clients_recover_after_hint",
        all_shed_recovered,
        if all_shed_recovered {
            "every shed client got a 200 after honoring Retry-After".to_string()
        } else {
            format!("recovered {recovered_after_hint}/{shed_503}")
        },
    ));

    let overload = OverloadSummary {
        offered_connections: offered,
        queue_capacity: overload_queue,
        shed_503: if smoke { 0 } else { shed_503 },
        served_200: if smoke { 0 } else { served_200 },
        got_retry_after,
        peak_queue_depth: if smoke { 0 } else { peak_depth },
        depth_within_bound,
        recovered_after_hint: if smoke { 0 } else { recovered_after_hint },
        all_shed_recovered,
    };

    // -- degraded operation: breaker trip, degrade, recover ---------------
    let degraded = degraded_drill(smoke, &mut checks)?;

    let cache_speedup = cold_seconds / cached_seconds.max(1e-9);
    if !smoke {
        checks.push(check(
            "cache_hit_at_least_10x_faster",
            cache_speedup >= 10.0,
            format!("cold {cold_seconds:.4}s / cached {cached_seconds:.6}s = {cache_speedup:.0}x"),
        ));
    }

    Ok(ServeBenchResult {
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        workers,
        queue_capacity,
        cache_capacity,
        checks,
        plan: PlanSummary {
            model: "vgg16".to_string(),
            partition: cold_json
                .get("summary")
                .and_then(Json::as_str)
                .map(String::from)
                .unwrap_or_default(),
            predicted_throughput: cold_json
                .get("predicted_throughput")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            cold_seconds: if smoke { 0.0 } else { cold_seconds },
            cached_seconds: if smoke { 0.0 } else { cached_seconds },
            cache_speedup: if smoke { 0.0 } else { cache_speedup },
        },
        latency,
        throughput,
        overload,
        degraded,
    })
}

/// A `/plan` request with a born-expired budget (`deadline_ms: 0`) and a
/// distinct cache key per index: each one must degrade
/// `deadline-exhausted` and charge a failure to the verify breaker.
fn hurried_plan_body(i: usize) -> Json {
    Json::obj(vec![
        ("model", "alexnet".to_json()),
        (
            "cluster",
            Json::obj(vec![("link_gbps", (50.0 + i as f64).to_json())]),
        ),
        (
            "planner",
            Json::obj(vec![("deadline_ms", 0usize.to_json())]),
        ),
    ])
}

fn degraded_of(j: &Json) -> (Option<bool>, Option<String>) {
    (
        j.get("degraded").and_then(Json::as_bool),
        j.get("degraded_reason")
            .and_then(Json::as_str)
            .map(String::from),
    )
}

fn breaker_metric_gauge(c: &mut Client) -> Result<u64, String> {
    let r = c
        .request("GET", "/metrics", None)
        .map_err(|e| format!("metrics: {e}"))?;
    let text = String::from_utf8(r.body.clone()).map_err(|e| e.to_string())?;
    text.lines()
        .find_map(|l| l.strip_prefix("ap_breaker_state{breaker=\"verify\"} "))
        .ok_or_else(|| "breaker state series missing from /metrics".to_string())?
        .parse::<u64>()
        .map_err(|e| e.to_string())
}

/// Trip the verify breaker with induced failures, show `/plan` degrading
/// instead of failing, recover through the half-open probe, and prove the
/// zero-capacity bulkhead lever sheds cleanly.
fn degraded_drill(smoke: bool, checks: &mut Vec<CheckRow>) -> Result<DegradedSummary, String> {
    fn err(stage: &'static str) -> impl Fn(std::io::Error) -> String {
        move |e| format!("{stage}: {e}")
    }
    // Tight breaker: window 4, min 4, rate 0.5 -> four failures trip it.
    // The cooldown is long enough that the three in-between requests
    // cannot accidentally ride the probe, short enough to wait out.
    let cooldown = Duration::from_millis(400);
    let induced = 4usize;
    let mut dg = spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 8,
        cache_capacity: 8,
        resilience: ResilienceConfig {
            breaker_window: 4,
            breaker_min_samples: 4,
            breaker_failure_rate: 0.5,
            breaker_cooldown_ms: cooldown.as_millis() as u64,
            breaker_probes: 1,
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    })
    .map_err(err("degraded spawn"))?;
    let mut c = Client::connect(dg.addr()).map_err(err("degraded connect"))?;

    // Phase 1: four zero-budget requests, each 200 but degraded.
    let mut degraded_deadline = 0u64;
    let mut phase1_ok = true;
    for i in 0..induced {
        let r = c
            .request("POST", "/plan", Some(&hurried_plan_body(i)))
            .map_err(err("hurried plan"))?;
        let j = r.json().unwrap_or(Json::Null);
        let (flag, reason) = degraded_of(&j);
        let ok = r.status == 200
            && flag == Some(true)
            && reason.as_deref() == Some("deadline-exhausted")
            && j.get("partition").is_some();
        phase1_ok &= ok;
        degraded_deadline += ok as u64;
    }
    checks.push(check(
        "exhausted_deadline_degrades_not_fails",
        phase1_ok,
        if phase1_ok {
            format!("{induced}/{induced} zero-budget plans answered 200 degraded")
        } else {
            "a zero-budget plan failed outright".to_string()
        },
    ));

    // Phase 2: the failure rate tripped the breaker; patient requests now
    // degrade breaker-open — and cheaply, since the engine is skipped.
    let breaker_opened = breaker_metric_gauge(&mut c)? == 1;
    checks.push(check(
        "induced_failures_open_breaker",
        breaker_opened,
        if breaker_opened {
            "ap_breaker_state 1 after four failures"
        } else {
            "breaker still closed"
        },
    ));
    let mut degraded_breaker_open = 0u64;
    let mut open_samples = Vec::new();
    let mut phase2_ok = true;
    for i in 0..3usize {
        let body = cold_plan_body(100 + i);
        let t0 = Instant::now();
        let r = c
            .request("POST", "/plan", Some(&body))
            .map_err(err("open-breaker plan"))?;
        open_samples.push(ms(t0.elapsed()));
        let j = r.json().unwrap_or(Json::Null);
        let (flag, reason) = degraded_of(&j);
        let ok = r.status == 200
            && flag == Some(true)
            && reason.as_deref() == Some("breaker-open")
            && matches!(j.get("measured_throughput"), Some(Json::Null))
            && j.get("predicted_throughput")
                .and_then(Json::as_f64)
                .is_some_and(|t| t > 0.0);
        phase2_ok &= ok;
        degraded_breaker_open += ok as u64;
    }
    checks.push(check(
        "open_breaker_serves_analytic_plans",
        phase2_ok,
        if phase2_ok {
            "3/3 answered 200 degraded breaker-open, analytic prediction attached"
        } else {
            "a request under an open breaker misbehaved"
        },
    ));

    // Phase 3: wait out the cooldown; the next request is the half-open
    // probe, verification succeeds, and the breaker closes.
    std::thread::sleep(cooldown + Duration::from_millis(150));
    let r = c
        .request("POST", "/plan", Some(&cold_plan_body(200)))
        .map_err(err("probe plan"))?;
    let j = r.json().unwrap_or(Json::Null);
    let probe_full = r.status == 200
        && degraded_of(&j) == (Some(false), None)
        && j.get("measured_throughput")
            .and_then(Json::as_f64)
            .is_some_and(|t| t > 0.0);
    let breaker_recovered = probe_full && breaker_metric_gauge(&mut c)? == 0;
    checks.push(check(
        "half_open_probe_closes_breaker",
        breaker_recovered,
        if breaker_recovered {
            "first post-cooldown request verified fully; ap_breaker_state back to 0"
        } else {
            "probe did not close the breaker"
        },
    ));
    drop(c);
    dg.shutdown();

    // Bulkhead lever: capacity 0 on /plan sheds deterministically with a
    // computed Retry-After while /simulate (its own bulkhead) still works.
    let mut bh = spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 4,
        cache_capacity: 4,
        resilience: ResilienceConfig {
            plan_bulkhead: 0,
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    })
    .map_err(err("bulkhead spawn"))?;
    let mut c = Client::connect(bh.addr()).map_err(err("bulkhead connect"))?;
    let r = c
        .request("POST", "/plan", Some(&cold_plan_body(0)))
        .map_err(err("bulkhead plan"))?;
    let shed_right = r.status == 503
        && r.json()
            .and_then(|j| {
                j.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str)
                    .map(String::from)
            })
            .as_deref()
            == Some("bulkhead-full")
        && r.retry_after()
            .is_some_and(|h| h >= Duration::from_secs(1) && h <= Duration::from_secs(30));
    let sim = Json::obj(vec![
        ("model", "alexnet".to_json()),
        (
            "partition",
            Json::obj(vec![(
                "stages",
                Json::Arr(vec![Json::obj(vec![
                    ("layers", vec![0usize, 11].to_json()),
                    ("workers", vec![0usize, 1].to_json()),
                ])]),
            )]),
        ),
        ("iterations", 12usize.to_json()),
    ]);
    let r = c
        .request("POST", "/simulate", Some(&sim))
        .map_err(err("bulkhead simulate"))?;
    let bulkhead_shed = shed_right && r.status == 200;
    checks.push(check(
        "zero_bulkhead_sheds_plan_only",
        bulkhead_shed,
        if bulkhead_shed {
            "plan 503 bulkhead-full with Retry-After; simulate unaffected"
        } else {
            "bulkhead lever misbehaved"
        },
    ));
    drop(c);
    bh.shutdown();

    Ok(DegradedSummary {
        induced_failures: induced,
        degraded_deadline,
        degraded_breaker_open,
        breaker_opened,
        breaker_recovered,
        degraded_p99_ms: if smoke {
            0.0
        } else {
            percentile(open_samples, 99.0)
        },
        bulkhead_shed,
    })
}

fn cache_hits(stats: &ap_serve::client::Response) -> u64 {
    stats
        .json()
        .and_then(|j| {
            j.get("cache")
                .and_then(|c| c.get("hits"))
                .and_then(Json::as_usize)
        })
        .unwrap_or(0) as u64
}
