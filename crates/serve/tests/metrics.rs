//! Exact-content tests for `GET /metrics`: every expected family is
//! present, every line is a valid Prometheus text-exposition line, the
//! ordering is stable scrape to scrape, and `/metrics` agrees with
//! `/stats` value for value.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ap_json::{Json, ToJson};
use ap_serve::client::Client;
use ap_serve::{spawn, ResilienceConfig, ServeConfig, ServerHandle};

fn server() -> ServerHandle {
    spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 4,
        ..ServeConfig::default()
    })
    .expect("spawn")
}

fn scrape(c: &mut Client) -> String {
    let r = c.request("GET", "/metrics", None).unwrap();
    assert_eq!(r.status, 200);
    assert!(
        r.header("content-type")
            .is_some_and(|t| t.starts_with("text/plain")),
        "exposition is text/plain, not JSON"
    );
    String::from_utf8(r.body.clone()).expect("exposition is UTF-8")
}

/// Every metric family the daemon promises, in the order promised.
const FAMILIES: &[&str] = &[
    "ap_uptime_seconds",
    "ap_requests_total",
    "ap_error_responses_total",
    "ap_degraded_responses_total",
    "ap_cache_hits_total",
    "ap_cache_misses_total",
    "ap_cache_entries",
    "ap_cache_capacity",
    "ap_cache_generation",
    "ap_queue_depth",
    "ap_queue_capacity",
    "ap_queue_peak_depth",
    "ap_queue_admitted_total",
    "ap_queue_shed_total",
    "ap_breaker_state",
    "ap_breaker_opens_total",
    "ap_breaker_rejected_total",
    "ap_breaker_failures_total",
    "ap_breaker_successes_total",
    "ap_bulkhead_in_use",
    "ap_bulkhead_capacity",
    "ap_bulkhead_rejected_total",
    "ap_request_duration_seconds",
    "ap_request_latency_seconds",
    "ap_workers",
    "ap_draining",
    "ap_sched_jobs_resident",
    "ap_sched_jobs_queued",
    "ap_sched_admissions_total",
    "ap_sched_jobs_completed_total",
    "ap_sched_jobs_evacuated_total",
    "ap_sched_events_total",
    "ap_sched_replans_considered_total",
    "ap_sched_plans_moved_total",
    "ap_sched_neighborhood_size",
    "ap_sched_aggregate_predicted_throughput",
    "ap_sched_replan_duration_seconds",
    "ap_mem_checks_total",
    "ap_mem_schedule_switches_total",
    "ap_mem_modeled_peak_stage_bytes",
];

#[test]
fn every_promised_family_is_present_in_order() {
    let mut handle = server();
    let mut c = Client::connect(handle.addr()).unwrap();
    let text = scrape(&mut c);
    let mut last = 0usize;
    for fam in FAMILIES {
        let needle = format!("# TYPE {fam} ");
        let pos = text
            .find(&needle)
            .unwrap_or_else(|| panic!("family {fam} missing from exposition"));
        assert!(pos >= last, "family {fam} out of declared order");
        last = pos;
    }
    // Every labelled series exists from the very first scrape, value 0 —
    // no series pops into existence later.
    for series in [
        "ap_requests_total{endpoint=\"plan\"} ",
        "ap_requests_total{endpoint=\"simulate\"} ",
        "ap_requests_total{endpoint=\"health\"} ",
        "ap_requests_total{endpoint=\"stats\"} ",
        "ap_requests_total{endpoint=\"metrics\"} ",
        "ap_requests_total{endpoint=\"invalidate\"} ",
        "ap_requests_total{endpoint=\"breaker\"} ",
        "ap_requests_total{endpoint=\"shutdown\"} ",
        "ap_requests_total{endpoint=\"jobs\"} ",
        "ap_requests_total{endpoint=\"schedule\"} ",
        "ap_sched_admissions_total{outcome=\"placed\"} 0",
        "ap_sched_admissions_total{outcome=\"queued\"} 0",
        "ap_sched_admissions_total{outcome=\"rejected\"} 0",
        "ap_sched_jobs_resident 0",
        "ap_sched_replan_duration_seconds_bucket{le=\"+Inf\"} 0",
        "ap_mem_checks_total{outcome=\"fit\"} 0",
        "ap_mem_checks_total{outcome=\"infeasible\"} 0",
        "ap_mem_schedule_switches_total 0",
        "ap_mem_modeled_peak_stage_bytes 0",
        "ap_degraded_responses_total{reason=\"breaker-open\"} 0",
        "ap_degraded_responses_total{reason=\"deadline-exhausted\"} 0",
        "ap_degraded_responses_total{reason=\"verification-failed\"} 0",
        "ap_breaker_state{breaker=\"verify\"} 0",
        "ap_bulkhead_in_use{endpoint=\"plan\"} 0",
        "ap_bulkhead_in_use{endpoint=\"simulate\"} 0",
        "ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"+Inf\"} 0",
        "ap_request_latency_seconds{endpoint=\"plan\",quantile=\"0.99\"} 0",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(series)),
            "series {series:?} missing from first scrape"
        );
    }
    handle.shutdown();
}

#[test]
fn every_line_is_valid_exposition_syntax() {
    let mut handle = server();
    let mut c = Client::connect(handle.addr()).unwrap();
    // Drive some traffic first so counters and histograms are non-zero.
    let plan = Json::obj(vec![
        ("model", "alexnet".to_json()),
        (
            "planner",
            Json::obj(vec![("measure_iters", 4usize.to_json())]),
        ),
    ]);
    assert_eq!(c.request("POST", "/plan", Some(&plan)).unwrap().status, 200);
    assert_eq!(c.request("GET", "/health", None).unwrap().status, 200);
    let text = scrape(&mut c);
    assert!(text.ends_with('\n'), "exposition ends with a newline");
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.chars()
                .all(|ch| ch.is_ascii_alphanumeric() || ch == '_' || ch == ':')
            && !s.starts_with(|ch: char| ch.is_ascii_digit())
    };
    for line in text.lines() {
        assert!(!line.is_empty(), "no blank lines");
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap();
            assert!(
                keyword == "HELP" || keyword == "TYPE",
                "bad comment keyword in {line:?}"
            );
            let name = parts.next().expect("comment names a metric");
            assert!(name_ok(name), "bad metric name in {line:?}");
            let tail = parts.next().expect("comment has content");
            if keyword == "TYPE" {
                assert!(
                    ["counter", "gauge", "histogram"].contains(&tail),
                    "unknown type in {line:?}"
                );
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "unparseable value in {line:?}"
        );
        let name = match series.find('{') {
            None => series,
            Some(brace) => {
                assert!(series.ends_with('}'), "unterminated labels in {line:?}");
                let labels = &series[brace + 1..series.len() - 1];
                for pair in labels.split(',') {
                    let (k, v) = pair.split_once('=').expect("label is k=v");
                    assert!(name_ok(k), "bad label name in {line:?}");
                    assert!(
                        v.starts_with('"') && v.ends_with('"') && v.len() >= 2,
                        "unquoted label value in {line:?}"
                    );
                }
                &series[..brace]
            }
        };
        assert!(name_ok(name), "bad series name in {line:?}");
    }
    // The traffic we drove is visible.
    assert!(text.contains("ap_requests_total{endpoint=\"plan\"} 1\n"));
    assert!(text.contains("ap_requests_total{endpoint=\"health\"} 1\n"));
    assert!(text.contains("ap_cache_misses_total 1\n"));
    assert!(text.contains("ap_request_duration_seconds_count{endpoint=\"plan\"} 1\n"));
    // The plan passed its memory check and left a modeled peak behind.
    assert!(text.contains("ap_mem_checks_total{outcome=\"fit\"} 1\n"));
    assert!(!text.contains("ap_mem_modeled_peak_stage_bytes 0\n"));
    handle.shutdown();
}

#[test]
fn series_ordering_is_stable_across_scrapes() {
    let mut handle = server();
    let mut c = Client::connect(handle.addr()).unwrap();
    let skeleton = |text: &str| -> Vec<String> {
        text.lines()
            .map(|l| {
                if l.starts_with('#') {
                    l.to_string()
                } else {
                    // Keep the series identity, drop the (moving) value.
                    l.rsplit_once(' ').unwrap().0.to_string()
                }
            })
            .collect()
    };
    let first = skeleton(&scrape(&mut c));
    // Mutate state between scrapes: traffic, a cache entry, an error.
    let plan = Json::obj(vec![
        ("model", "alexnet".to_json()),
        (
            "planner",
            Json::obj(vec![("measure_iters", 4usize.to_json())]),
        ),
    ]);
    assert_eq!(c.request("POST", "/plan", Some(&plan)).unwrap().status, 200);
    assert_eq!(c.request("GET", "/nope", None).unwrap().status, 404);
    let second = skeleton(&scrape(&mut c));
    assert_eq!(first, second, "series set and order must not move");
    handle.shutdown();
}

#[test]
fn scheduler_traffic_moves_the_sched_families() {
    let mut handle = server();
    let mut c = Client::connect(handle.addr()).unwrap();
    let job = Json::obj(vec![
        ("model", "alexnet".to_json()),
        ("gpus", 2usize.to_json()),
    ]);
    let r = c.request("POST", "/jobs", Some(&job)).unwrap();
    assert_eq!(r.status, 200);
    let text = scrape(&mut c);
    assert!(text.contains("ap_sched_jobs_resident 1\n"));
    assert!(text.contains("ap_sched_admissions_total{outcome=\"placed\"} 1\n"));
    assert!(text.contains("ap_sched_events_total 1\n"));
    assert!(text.contains("ap_requests_total{endpoint=\"jobs\"} 1\n"));
    assert!(text.contains("ap_sched_replan_duration_seconds_count 1\n"));
    // Departure frees the gauge and bumps the completion counter.
    let id = r.json().unwrap().get("id").unwrap().as_usize().unwrap();
    let r = c.request("DELETE", &format!("/jobs/{id}"), None).unwrap();
    assert_eq!(r.status, 200);
    let text = scrape(&mut c);
    assert!(text.contains("ap_sched_jobs_resident 0\n"));
    assert!(text.contains("ap_sched_jobs_completed_total 1\n"));
    handle.shutdown();
}

#[test]
fn memory_infeasible_plans_move_the_mem_families() {
    let mut handle = server();
    let mut c = Client::connect(handle.addr()).unwrap();
    // bert48 cannot fit 0.25 GiB devices under any schedule or depth.
    let plan = ap_json::parse(r#"{"model": "bert48", "cluster": {"memory_gb": 0.25}}"#).unwrap();
    let r = c.request("POST", "/plan", Some(&plan)).unwrap();
    assert_eq!(r.status, 422);
    let text = scrape(&mut c);
    assert!(text.contains("ap_mem_checks_total{outcome=\"infeasible\"} 1\n"));
    assert!(text.contains("ap_mem_checks_total{outcome=\"fit\"} 0\n"));
    handle.shutdown();
}

#[test]
fn metrics_rejects_post() {
    let mut handle = server();
    let mut c = Client::connect(handle.addr()).unwrap();
    let r = c
        .request("POST", "/metrics", Some(&Json::obj(vec![])))
        .unwrap();
    assert_eq!(r.status, 405);
    assert!(
        r.header("content-type")
            .is_some_and(|t| t.starts_with("application/json")),
        "errors stay JSON even on /metrics"
    );
    handle.shutdown();
}

/// Series keys (name plus label set) of a fresh daemon's first scrape, in
/// order — the exposition skeleton, pinned whole.
const GOLDEN_SERIES: &str = "\
ap_uptime_seconds
ap_requests_total{endpoint=\"plan\"}
ap_requests_total{endpoint=\"simulate\"}
ap_requests_total{endpoint=\"health\"}
ap_requests_total{endpoint=\"stats\"}
ap_requests_total{endpoint=\"metrics\"}
ap_requests_total{endpoint=\"invalidate\"}
ap_requests_total{endpoint=\"breaker\"}
ap_requests_total{endpoint=\"shutdown\"}
ap_requests_total{endpoint=\"jobs\"}
ap_requests_total{endpoint=\"schedule\"}
ap_error_responses_total
ap_degraded_responses_total{reason=\"breaker-open\"}
ap_degraded_responses_total{reason=\"deadline-exhausted\"}
ap_degraded_responses_total{reason=\"verification-failed\"}
ap_cache_hits_total
ap_cache_misses_total
ap_cache_entries
ap_cache_capacity
ap_cache_generation
ap_queue_depth
ap_queue_capacity
ap_queue_peak_depth
ap_queue_admitted_total
ap_queue_shed_total
ap_breaker_state{breaker=\"verify\"}
ap_breaker_opens_total{breaker=\"verify\"}
ap_breaker_rejected_total{breaker=\"verify\"}
ap_breaker_failures_total{breaker=\"verify\"}
ap_breaker_successes_total{breaker=\"verify\"}
ap_bulkhead_in_use{endpoint=\"plan\"}
ap_bulkhead_in_use{endpoint=\"simulate\"}
ap_bulkhead_capacity{endpoint=\"plan\"}
ap_bulkhead_capacity{endpoint=\"simulate\"}
ap_bulkhead_rejected_total{endpoint=\"plan\"}
ap_bulkhead_rejected_total{endpoint=\"simulate\"}
ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"0.00001\"}
ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"0.000025\"}
ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"0.00005\"}
ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"0.0001\"}
ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"0.00025\"}
ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"0.0005\"}
ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"0.001\"}
ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"0.0025\"}
ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"0.005\"}
ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"0.01\"}
ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"0.025\"}
ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"0.05\"}
ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"0.1\"}
ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"0.25\"}
ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"0.5\"}
ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"1\"}
ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"2.5\"}
ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"5\"}
ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"10\"}
ap_request_duration_seconds_bucket{endpoint=\"plan\",le=\"+Inf\"}
ap_request_duration_seconds_sum{endpoint=\"plan\"}
ap_request_duration_seconds_count{endpoint=\"plan\"}
ap_request_duration_seconds_bucket{endpoint=\"simulate\",le=\"0.00001\"}
ap_request_duration_seconds_bucket{endpoint=\"simulate\",le=\"0.000025\"}
ap_request_duration_seconds_bucket{endpoint=\"simulate\",le=\"0.00005\"}
ap_request_duration_seconds_bucket{endpoint=\"simulate\",le=\"0.0001\"}
ap_request_duration_seconds_bucket{endpoint=\"simulate\",le=\"0.00025\"}
ap_request_duration_seconds_bucket{endpoint=\"simulate\",le=\"0.0005\"}
ap_request_duration_seconds_bucket{endpoint=\"simulate\",le=\"0.001\"}
ap_request_duration_seconds_bucket{endpoint=\"simulate\",le=\"0.0025\"}
ap_request_duration_seconds_bucket{endpoint=\"simulate\",le=\"0.005\"}
ap_request_duration_seconds_bucket{endpoint=\"simulate\",le=\"0.01\"}
ap_request_duration_seconds_bucket{endpoint=\"simulate\",le=\"0.025\"}
ap_request_duration_seconds_bucket{endpoint=\"simulate\",le=\"0.05\"}
ap_request_duration_seconds_bucket{endpoint=\"simulate\",le=\"0.1\"}
ap_request_duration_seconds_bucket{endpoint=\"simulate\",le=\"0.25\"}
ap_request_duration_seconds_bucket{endpoint=\"simulate\",le=\"0.5\"}
ap_request_duration_seconds_bucket{endpoint=\"simulate\",le=\"1\"}
ap_request_duration_seconds_bucket{endpoint=\"simulate\",le=\"2.5\"}
ap_request_duration_seconds_bucket{endpoint=\"simulate\",le=\"5\"}
ap_request_duration_seconds_bucket{endpoint=\"simulate\",le=\"10\"}
ap_request_duration_seconds_bucket{endpoint=\"simulate\",le=\"+Inf\"}
ap_request_duration_seconds_sum{endpoint=\"simulate\"}
ap_request_duration_seconds_count{endpoint=\"simulate\"}
ap_request_latency_seconds{endpoint=\"plan\",quantile=\"0.5\"}
ap_request_latency_seconds{endpoint=\"plan\",quantile=\"0.95\"}
ap_request_latency_seconds{endpoint=\"plan\",quantile=\"0.99\"}
ap_request_latency_seconds{endpoint=\"simulate\",quantile=\"0.5\"}
ap_request_latency_seconds{endpoint=\"simulate\",quantile=\"0.95\"}
ap_request_latency_seconds{endpoint=\"simulate\",quantile=\"0.99\"}
ap_workers
ap_draining
ap_sched_jobs_resident
ap_sched_jobs_queued
ap_sched_admissions_total{outcome=\"placed\"}
ap_sched_admissions_total{outcome=\"queued\"}
ap_sched_admissions_total{outcome=\"rejected\"}
ap_sched_jobs_completed_total
ap_sched_jobs_evacuated_total
ap_sched_events_total
ap_sched_replans_considered_total
ap_sched_plans_moved_total
ap_sched_neighborhood_size
ap_sched_aggregate_predicted_throughput
ap_sched_replan_duration_seconds_bucket{le=\"0.00001\"}
ap_sched_replan_duration_seconds_bucket{le=\"0.000025\"}
ap_sched_replan_duration_seconds_bucket{le=\"0.00005\"}
ap_sched_replan_duration_seconds_bucket{le=\"0.0001\"}
ap_sched_replan_duration_seconds_bucket{le=\"0.00025\"}
ap_sched_replan_duration_seconds_bucket{le=\"0.0005\"}
ap_sched_replan_duration_seconds_bucket{le=\"0.001\"}
ap_sched_replan_duration_seconds_bucket{le=\"0.0025\"}
ap_sched_replan_duration_seconds_bucket{le=\"0.005\"}
ap_sched_replan_duration_seconds_bucket{le=\"0.01\"}
ap_sched_replan_duration_seconds_bucket{le=\"0.025\"}
ap_sched_replan_duration_seconds_bucket{le=\"0.05\"}
ap_sched_replan_duration_seconds_bucket{le=\"0.1\"}
ap_sched_replan_duration_seconds_bucket{le=\"0.25\"}
ap_sched_replan_duration_seconds_bucket{le=\"0.5\"}
ap_sched_replan_duration_seconds_bucket{le=\"1\"}
ap_sched_replan_duration_seconds_bucket{le=\"2.5\"}
ap_sched_replan_duration_seconds_bucket{le=\"5\"}
ap_sched_replan_duration_seconds_bucket{le=\"10\"}
ap_sched_replan_duration_seconds_bucket{le=\"+Inf\"}
ap_sched_replan_duration_seconds_sum
ap_sched_replan_duration_seconds_count
ap_mem_checks_total{outcome=\"fit\"}
ap_mem_checks_total{outcome=\"infeasible\"}
ap_mem_schedule_switches_total
ap_mem_modeled_peak_stage_bytes
";

/// Sample lines of an exposition as `(series key, value)`.
fn samples(text: &str) -> Vec<(&str, f64)> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (key, value) = l.rsplit_once(' ').unwrap();
            (key, value.parse().unwrap())
        })
        .collect()
}

#[test]
fn fresh_scrape_matches_the_golden_series_skeleton() {
    let mut handle = server();
    let mut c = Client::connect(handle.addr()).unwrap();
    let text = scrape(&mut c);
    let keys: Vec<&str> = samples(&text).into_iter().map(|(k, _)| k).collect();
    let golden: Vec<&str> = GOLDEN_SERIES.lines().collect();
    assert_eq!(keys, golden);
    handle.shutdown();
}

/// Every value `/stats` and `/metrics` both report, as (JSON path, series
/// key). Booleans and the breaker state compare through their gauge
/// encodings.
const SHARED: &[(&str, &str)] = &[
    ("requests.plan", "ap_requests_total{endpoint=\"plan\"}"),
    (
        "requests.simulate",
        "ap_requests_total{endpoint=\"simulate\"}",
    ),
    ("requests.health", "ap_requests_total{endpoint=\"health\"}"),
    ("requests.stats", "ap_requests_total{endpoint=\"stats\"}"),
    (
        "requests.metrics",
        "ap_requests_total{endpoint=\"metrics\"}",
    ),
    (
        "requests.invalidate",
        "ap_requests_total{endpoint=\"invalidate\"}",
    ),
    (
        "requests.breaker",
        "ap_requests_total{endpoint=\"breaker\"}",
    ),
    (
        "requests.shutdown",
        "ap_requests_total{endpoint=\"shutdown\"}",
    ),
    ("requests.jobs", "ap_requests_total{endpoint=\"jobs\"}"),
    (
        "requests.schedule",
        "ap_requests_total{endpoint=\"schedule\"}",
    ),
    ("requests.errors", "ap_error_responses_total"),
    (
        "resilience.degraded.breaker_open",
        "ap_degraded_responses_total{reason=\"breaker-open\"}",
    ),
    (
        "resilience.degraded.deadline_exhausted",
        "ap_degraded_responses_total{reason=\"deadline-exhausted\"}",
    ),
    (
        "resilience.degraded.verification_failed",
        "ap_degraded_responses_total{reason=\"verification-failed\"}",
    ),
    ("cache.hits", "ap_cache_hits_total"),
    ("cache.misses", "ap_cache_misses_total"),
    ("cache.entries", "ap_cache_entries"),
    ("cache.capacity", "ap_cache_capacity"),
    ("cache.generation", "ap_cache_generation"),
    ("queue.depth", "ap_queue_depth"),
    ("queue.capacity", "ap_queue_capacity"),
    ("queue.peak_depth", "ap_queue_peak_depth"),
    ("queue.admitted", "ap_queue_admitted_total"),
    ("queue.shed", "ap_queue_shed_total"),
    (
        "resilience.breaker.state",
        "ap_breaker_state{breaker=\"verify\"}",
    ),
    (
        "resilience.breaker.opens",
        "ap_breaker_opens_total{breaker=\"verify\"}",
    ),
    (
        "resilience.breaker.rejected",
        "ap_breaker_rejected_total{breaker=\"verify\"}",
    ),
    (
        "resilience.breaker.failures",
        "ap_breaker_failures_total{breaker=\"verify\"}",
    ),
    (
        "resilience.breaker.successes",
        "ap_breaker_successes_total{breaker=\"verify\"}",
    ),
    (
        "resilience.bulkheads.plan.in_use",
        "ap_bulkhead_in_use{endpoint=\"plan\"}",
    ),
    (
        "resilience.bulkheads.simulate.in_use",
        "ap_bulkhead_in_use{endpoint=\"simulate\"}",
    ),
    (
        "resilience.bulkheads.plan.capacity",
        "ap_bulkhead_capacity{endpoint=\"plan\"}",
    ),
    (
        "resilience.bulkheads.simulate.capacity",
        "ap_bulkhead_capacity{endpoint=\"simulate\"}",
    ),
    (
        "resilience.bulkheads.plan.rejected",
        "ap_bulkhead_rejected_total{endpoint=\"plan\"}",
    ),
    (
        "resilience.bulkheads.simulate.rejected",
        "ap_bulkhead_rejected_total{endpoint=\"simulate\"}",
    ),
    ("workers", "ap_workers"),
    ("draining", "ap_draining"),
    ("scheduler.resident", "ap_sched_jobs_resident"),
    ("scheduler.queued", "ap_sched_jobs_queued"),
    (
        "scheduler.placed",
        "ap_sched_admissions_total{outcome=\"placed\"}",
    ),
    (
        "scheduler.enqueued",
        "ap_sched_admissions_total{outcome=\"queued\"}",
    ),
    (
        "scheduler.rejected",
        "ap_sched_admissions_total{outcome=\"rejected\"}",
    ),
    ("scheduler.completed", "ap_sched_jobs_completed_total"),
    ("scheduler.evacuated", "ap_sched_jobs_evacuated_total"),
    ("scheduler.events", "ap_sched_events_total"),
    (
        "scheduler.replans_considered",
        "ap_sched_replans_considered_total",
    ),
    ("scheduler.plans_moved", "ap_sched_plans_moved_total"),
    (
        "scheduler.aggregate_predicted_throughput",
        "ap_sched_aggregate_predicted_throughput",
    ),
];

/// The value at dotted `path`, as its exposition number.
fn stats_value(stats: &Json, path: &str) -> f64 {
    let v = path
        .split('.')
        .try_fold(stats, |j, key| j.get(key))
        .unwrap_or_else(|| panic!("/stats has no {path}"));
    match v {
        Json::Bool(b) => f64::from(u8::from(*b)),
        Json::Str(s) => match s.as_str() {
            "closed" => 0.0,
            "open" => 1.0,
            "half_open" => 2.0,
            other => panic!("{path}: unexpected state {other:?}"),
        },
        other => other
            .as_f64()
            .unwrap_or_else(|| panic!("{path} is not a number")),
    }
}

#[test]
fn stats_and_metrics_agree_after_a_scripted_sequence() {
    let mut handle = spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 4,
        resilience: ResilienceConfig {
            simulate_bulkhead: 0,
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("spawn");
    let mut c = Client::connect(handle.addr()).unwrap();
    let plan = |model: &str, extra: &str| {
        ap_json::parse(&format!(
            r#"{{"model": "{model}", "planner": {{"measure_iters": 4{extra}}}}}"#
        ))
        .unwrap()
    };
    let job = ap_json::parse(r#"{"model": "alexnet", "gpus": 2}"#).unwrap();
    let sim = ap_json::parse(
        r#"{"model": "alexnet", "partition": {"stages": [{"layers": [0, 11], "workers": [0, 1]}]}}"#,
    )
    .unwrap();
    let breaker = |mode: &str| ap_json::parse(&format!(r#"{{"mode": "{mode}"}}"#)).unwrap();
    let infeasible =
        ap_json::parse(r#"{"model": "bert48", "cluster": {"memory_gb": 0.25}}"#).unwrap();
    let steps: Vec<(&str, &str, Option<Json>, u16)> = vec![
        ("GET", "/health", None, 200),
        ("POST", "/plan", Some(plan("alexnet", "")), 200),
        ("POST", "/plan", Some(plan("alexnet", "")), 200),
        ("GET", "/plan", None, 405),
        ("DELETE", "/health", None, 405),
        ("GET", "/nope", None, 404),
        ("POST", "/plan", Some(infeasible), 422),
        ("POST", "/simulate", Some(sim), 503),
        ("POST", "/jobs", Some(job), 200),
        ("GET", "/schedule", None, 200),
        ("GET", "/jobs/0", None, 405),
        ("DELETE", "/jobs/0", None, 200),
        ("DELETE", "/jobs/7", None, 404),
        ("POST", "/breaker", Some(breaker("forced_open")), 200),
        ("POST", "/plan", Some(plan("vgg16", "")), 200),
        ("POST", "/breaker", Some(breaker("auto")), 200),
        (
            "POST",
            "/plan",
            Some(plan("resnet50", r#", "deadline_ms": 0"#)),
            200,
        ),
        ("POST", "/invalidate", None, 200),
    ];
    for (method, path, body, status) in &steps {
        let r = c.request(method, path, body.as_ref()).unwrap();
        assert_eq!(r.status, *status, "{method} {path}");
    }
    // /stats first: the /metrics scrape that follows sees it counted, and
    // differs from it only by counting itself.
    let stats = c.request("GET", "/stats", None).unwrap().json().unwrap();
    let text = scrape(&mut c);
    let series = samples(&text);
    for &(path, key) in SHARED {
        let exported = series
            .iter()
            .find(|(k, _)| *k == key)
            .unwrap_or_else(|| panic!("/metrics has no {key}"))
            .1;
        let own_scrape = f64::from(u8::from(path == "requests.metrics"));
        assert_eq!(
            stats_value(&stats, path) + own_scrape,
            exported,
            "{path} vs {key}"
        );
    }
    // The sequence moved the tallies it is meant to compare.
    for (path, expected) in [
        ("requests.plan", 5.0),
        ("requests.jobs", 4.0),
        ("requests.errors", 7.0),
        ("resilience.degraded.breaker_open", 1.0),
        ("resilience.degraded.deadline_exhausted", 1.0),
        ("resilience.bulkheads.simulate.rejected", 1.0),
        ("cache.hits", 1.0),
        ("scheduler.placed", 1.0),
        ("scheduler.completed", 1.0),
    ] {
        assert_eq!(stats_value(&stats, path), expected, "{path}");
    }
    handle.shutdown();
}

#[test]
fn every_scrape_is_one_consistent_snapshot() {
    let mut handle = server();
    let addr = handle.addr();
    let body = ap_json::parse(r#"{"model": "alexnet", "planner": {"measure_iters": 4}}"#).unwrap();
    // One miss plans the key; every request after it is a cache hit, so
    // the hit counter (and with it the hit rate) moves between scrapes.
    let mut c = Client::connect(addr).unwrap();
    assert_eq!(c.request("POST", "/plan", Some(&body)).unwrap().status, 200);
    drop(c);
    let stop = Arc::new(AtomicBool::new(false));
    // Two clients: one on a kept-alive connection, one opening a
    // connection per request so the admission queue moves too.
    let load: Vec<_> = [true, false]
        .into_iter()
        .map(|keep_alive| {
            let (stop, body) = (Arc::clone(&stop), body.clone());
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                while !stop.load(Ordering::Relaxed) {
                    if !keep_alive {
                        c = Client::connect(addr).unwrap();
                    }
                    assert_eq!(c.request("POST", "/plan", Some(&body)).unwrap().status, 200);
                }
            })
        })
        .collect();
    for _ in 0..150 {
        let mut c = Client::connect(addr).unwrap();
        let stats = c.request("GET", "/stats", None).unwrap().json().unwrap();
        let (hits, misses, hit_rate) = (
            stats_value(&stats, "cache.hits"),
            stats_value(&stats, "cache.misses"),
            stats_value(&stats, "cache.hit_rate"),
        );
        assert!(
            (hit_rate - hits / (hits + misses)).abs() < 1e-9,
            "hit_rate {hit_rate} but hits {hits} / misses {misses}"
        );
        let (depth, peak) = (
            stats_value(&stats, "queue.depth"),
            stats_value(&stats, "queue.peak_depth"),
        );
        assert!(
            depth <= peak,
            "/stats depth {depth} above peak_depth {peak}"
        );
        let text = scrape(&mut c);
        let series = samples(&text);
        let value = |key: &str| series.iter().find(|(k, _)| *k == key).unwrap().1;
        let (depth, peak) = (value("ap_queue_depth"), value("ap_queue_peak_depth"));
        assert!(depth <= peak, "/metrics depth {depth} above peak {peak}");
    }
    stop.store(true, Ordering::Relaxed);
    for t in load {
        t.join().unwrap();
    }
    handle.shutdown();
}
