//! `repro` — regenerate every figure of the AutoPipe paper.
//!
//! ```text
//! repro <experiment|list|all> [--json DIR] [--trace DIR] [--smoke] [--calibrate]
//! ```
//!
//! `repro list` prints every experiment with a one-line description; an
//! unknown experiment name prints the valid set and exits 2.
//!
//! Each subcommand prints the figure's rows/series as a markdown table
//! (the source for EXPERIMENTS.md) and, with `--json DIR`, also writes the
//! raw rows as JSON. With `--trace DIR`, the dynamic figures (fig9/fig10)
//! additionally re-run their AutoPipe arm with the engine timeline
//! recorded and write `<fig>_trace.json` — one merged chrome trace
//! (load it at `chrome://tracing` or Perfetto) of per-worker compute
//! segments plus a "controller" lane of decision-journal events — and
//! `<fig>_journal.json`, the raw decision journal.

use std::env;
use std::fs;
use std::path::PathBuf;

use ap_bench::experiments::motivation::{panel_bandwidths, panel_models, MotivationRow, Scenario};
use ap_bench::experiments::{
    ablations, chaos, cluster_bench, convergence, dynamic, enhanced, exec_validate, mem_bench,
    multi_job, overhead, pipeline_fill, serve_bench, static_alloc,
};
use ap_bench::json::ToJson;
use ap_pipesim::ScheduleKind;

/// Every experiment name with a one-line description (`repro list`).
const EXPERIMENTS: &[(&str, &str)] = &[
    ("fig2", "filling the pipeline: startup vs steady state"),
    ("fig3", "motivation: dynamic changing bandwidth"),
    ("fig4", "motivation: dynamic changing computation resource"),
    ("fig5", "motivation: a new distributed training job joins"),
    (
        "fig6",
        "motivation: an old distributed training job finishes",
    ),
    ("fig8", "static resource allocation grid"),
    ("fig9", "training under dynamic bandwidth"),
    ("fig10", "training under dynamic GPU contention"),
    ("fig11", "accuracy vs time across paradigms"),
    ("fig12", "computation time of worker-partition modeling"),
    ("fig13", "AutoPipe-enhanced pipeline variants"),
    ("multijob", "coordinated AutoPipe tenancy"),
    ("ablations", "design-choice ablations"),
    ("chaos", "seeded fault injection vs drain-and-restart"),
    (
        "cluster-bench",
        "ap-sched control plane: neighborhood vs whole-world re-planning at 10/100/1000 jobs",
    ),
    ("serve-bench", "ap-serve daemon under load"),
    (
        "exec-validate",
        "ap-exec runtime vs simulator prediction, with a live migration",
    ),
    (
        "mem-bench",
        "ap-mem memory-aware planning: schedule choice flipping with per-GPU capacity",
    ),
];

/// Iterations per engine measurement (kept moderate so `repro all`
/// finishes in minutes).
const MEASURE_ITERS: usize = 16;
/// Iterations for the dynamic speed-curve scenarios.
const DYNAMIC_ITERS: usize = 80;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let cmd = match args.first().map(String::as_str) {
        // Flags without an experiment name mean "all".
        None => "all",
        Some(c) if c.starts_with("--") => "all",
        Some(c) => c,
    };
    if cmd == "list" {
        println!("| experiment | description |");
        println!("|---|---|");
        for (name, desc) in EXPERIMENTS {
            println!("| {name} | {desc} |");
        }
        return;
    }
    if cmd != "all" && !EXPERIMENTS.iter().any(|(name, _)| *name == cmd) {
        eprintln!("unknown experiment '{cmd}'; valid names:");
        for (name, _) in EXPERIMENTS {
            eprintln!("  {name}");
        }
        eprintln!("  all");
        eprintln!("(or 'repro list' for descriptions)");
        std::process::exit(2);
    }
    let json_dir = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    let trace_dir = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);

    let run = |name: &str| cmd == name || cmd == "all";

    if run("fig2") {
        fig2(&json_dir);
    }
    for (name, scenario) in [
        ("fig3", Scenario::BandwidthHalved),
        ("fig4", Scenario::GpuContention),
        ("fig5", Scenario::JobJoins),
        ("fig6", Scenario::JobFinishes),
    ] {
        if run(name) {
            motivation_figure(name, scenario, &json_dir);
        }
    }
    if run("fig8") {
        fig8(&json_dir);
    }
    if run("fig9") {
        dynamic_figure("fig9", dynamic::fig9(DYNAMIC_ITERS), &json_dir);
        if trace_dir.is_some() {
            dump_trace(&trace_dir, "fig9", dynamic::fig9_trace(DYNAMIC_ITERS));
        }
    }
    if run("fig10") {
        dynamic_figure("fig10", dynamic::fig10(DYNAMIC_ITERS), &json_dir);
        if trace_dir.is_some() {
            dump_trace(&trace_dir, "fig10", dynamic::fig10_trace(DYNAMIC_ITERS));
        }
    }
    if run("fig11") {
        fig11(&json_dir);
    }
    if run("fig12") {
        fig12(&json_dir);
    }
    if run("fig13") {
        fig13(&json_dir);
    }
    if run("multijob") {
        run_multijob(&json_dir);
    }
    if run("ablations") {
        run_ablations(&json_dir);
    }
    if run("chaos") {
        let smoke = args.iter().any(|a| a == "--smoke");
        run_chaos(smoke, &json_dir);
    }
    if run("cluster-bench") {
        let smoke = args.iter().any(|a| a == "--smoke");
        run_cluster_bench(smoke, &json_dir);
    }
    if run("serve-bench") {
        let smoke = args.iter().any(|a| a == "--smoke");
        run_serve_bench(smoke, &json_dir);
    }
    if run("exec-validate") {
        let smoke = args.iter().any(|a| a == "--smoke");
        let calibrate = args.iter().any(|a| a == "--calibrate");
        let schedules = match args
            .iter()
            .position(|a| a == "--schedule")
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
        {
            None => vec![ScheduleKind::PipeDreamAsync],
            Some("all") => ScheduleKind::zoo().to_vec(),
            Some(id) => match ScheduleKind::parse(id) {
                Some(k) => vec![k],
                None => {
                    eprintln!("unknown schedule '{id}'; valid: all");
                    for k in ScheduleKind::zoo() {
                        eprintln!("  {}", k.id());
                    }
                    std::process::exit(2);
                }
            },
        };
        run_exec_validate(smoke, calibrate, &schedules, &json_dir);
    }
    if run("mem-bench") {
        let smoke = args.iter().any(|a| a == "--smoke");
        run_mem_bench(smoke, &json_dir);
    }
}

/// The memory-planning drill: price a BERT-48 pipeline with the ap-mem
/// model and sweep per-GPU capacity from rich to hopeless, letting
/// `fit_schedule` keep / clamp / switch / reject the requested deep-async
/// schedule at each rung. Closed-form and clock-free, so smoke output is
/// byte-identical across runs. The full run exports `BENCH_mem.json`.
/// Exits non-zero if a gate fails (a stage over capacity, or the choice
/// failing to flip across the ladder).
fn run_mem_bench(smoke: bool, json: &Option<PathBuf>) {
    println!("\n## Mem — memory-aware planning across a capacity ladder\n");
    let r = mem_bench::run(smoke);
    println!(
        "mode {}; {} batch {}, {} stages, requested {}@{}\n",
        r.mode, r.model, r.batch, r.n_stages, r.requested, r.requested_in_flight
    );
    println!("| cluster | GiB/GPU | feasible | chosen | in-flight | switched | predicted (samples/s) | requested deficit (GiB) |");
    println!("|---|---|---|---|---|---|---|---|");
    for c in &r.cells {
        println!(
            "| {} | {:.2} | {} | {} | {} | {} | {:.1} | {:.2} |",
            c.cluster,
            c.capacity_gb,
            if c.feasible { "yes" } else { "NO" },
            c.chosen,
            c.in_flight,
            if c.switched { "yes" } else { "-" },
            c.predicted,
            c.requested_deficit_gb
        );
    }
    if let Some(worst) = r
        .cells
        .iter()
        .filter(|c| c.feasible)
        .flat_map(|c| c.stages.iter().map(move |s| (c, s)))
        .max_by(|a, b| {
            let fa = a.1.required_gb / a.1.capacity_gb;
            let fb = b.1.required_gb / b.1.capacity_gb;
            fa.total_cmp(&fb)
        })
    {
        println!(
            "\nTightest placed stage: {} stage {} at {:.2}/{:.2} GiB ({:.0}% of capacity)",
            worst.0.cluster,
            worst.1.stage,
            worst.1.required_gb,
            worst.1.capacity_gb,
            100.0 * worst.1.required_gb / worst.1.capacity_gb
        );
    }
    if !smoke {
        let out = PathBuf::from("BENCH_mem.json");
        fs::write(&out, r.to_json().pretty()).expect("write BENCH_mem.json");
        eprintln!("wrote {}", out.display());
    }
    dump_json(json, "mem", &r);
    if !r.all_ok() {
        eprintln!("FAIL: mem-bench gate violated (stage over capacity or no schedule flip)");
        std::process::exit(3);
    }
}

/// Simulator-vs-reality: run the same (schedule, partition, bandwidth)
/// configs on the real `ap-exec` pipeline runtime and as an event-engine
/// prediction seeded from a host calibration pass, then replay one
/// controller-driven §4.4 reconfiguration live. `--schedule <id|all>`
/// picks which pipeline schedules get sim-vs-real rows (default
/// `pipedream_async`). The full run exports `BENCH_exec.json`; `--smoke`
/// zeroes every wall-clock-derived field so its `--json` output is
/// byte-identical across runs. Exits non-zero if the pipeline drains
/// during the switch, a pre-cutover loss diverges, or training fails to
/// make progress.
fn run_exec_validate(
    smoke: bool,
    calibrate: bool,
    schedules: &[ScheduleKind],
    json: &Option<PathBuf>,
) {
    println!("\n## Exec — real pipeline runtime vs simulator prediction\n");
    let r = match exec_validate::run_schedules(smoke, schedules) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("exec-validate failed to run: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "mode {}; model {:?}, batch {}, {} mini-batches per run\n",
        r.mode, r.sizes, r.batch, r.total
    );
    println!("| partition | raw pred (samples/s) | calibrated pred (samples/s) | measured (samples/s) | err raw | err cal | wire bytes | loss first -> last |");
    println!("|---|---|---|---|---|---|---|---|");
    for row in &r.rows {
        println!(
            "| {} | {:.1} | {:.1} | {:.1} | {:+.1}% | {:+.1}% | {} | {:.4} -> {:.4} |",
            row.label,
            row.predicted,
            row.predicted_calibrated,
            row.measured,
            row.rel_error * 100.0,
            row.rel_error_calibrated * 100.0,
            row.wire_bytes,
            row.first_loss,
            row.last_loss
        );
    }
    if calibrate {
        let c = &r.calibration;
        println!(
            "\nCalibration ({}): per_frame {:.3e} s, per_byte {:.3e} s/B, stage_overhead {:.3e} s, stash {:.3e} s/B",
            if smoke { "synthetic" } else { "fitted on this host" },
            c.per_frame_s,
            c.per_byte_s,
            c.stage_overhead_s,
            c.stash_byte_s
        );
        let path = match json {
            Some(d) => {
                fs::create_dir_all(d).expect("create json dir");
                d.join("calibration.json")
            }
            None => PathBuf::from("CALIBRATION.json"),
        };
        fs::write(&path, c.to_json().pretty()).expect("write calibration json");
        eprintln!("wrote {}", path.display());
    }
    if !smoke {
        println!(
            "\nCalibrated ranking matches measured: {}; max calibrated error {:+.1}%",
            r.calibrated_ranking_matches_measured(),
            r.max_calibrated_error() * 100.0
        );
    }
    let m = &r.migration;
    println!(
        "\nLive reconfiguration: cuts {:?} -> {:?} at mini-batch {} (layers {:?} moved)",
        m.from_cuts, m.to_cuts, m.cutover_mb, m.moved_layers
    );
    println!(
        "  {} weight versions moved (stash order {:?}), {} param bytes on the wire vs {} predicted ({} total migration bytes)",
        m.versions_moved, m.versions_sent, m.measured_param_bytes, m.predicted_bytes, m.wire_bytes
    );
    println!(
        "  drain-free: {} (min in-flight {}), pre-cutover losses bit-identical: {}",
        m.drain_free, m.min_in_flight, m.pre_cutover_losses_match
    );
    if !smoke {
        println!("  switch took {:.6}s wall-clock", m.switch_seconds);
        let out = PathBuf::from("BENCH_exec.json");
        fs::write(&out, r.to_json().pretty()).expect("write BENCH_exec.json");
        eprintln!("wrote {}", out.display());
    }
    dump_json(json, "exec_validate", &r);
    if !r.all_ok() {
        eprintln!("FAIL: exec-validate invariant violated");
        std::process::exit(3);
    }
}

/// The serving-layer drill: spawn the `ap-serve` daemon on an ephemeral
/// loopback port and drive every endpoint — functional checks, a latency
/// sweep, a cached-plan throughput sweep, a 4x-capacity overload burst and
/// a graceful shutdown. The full run exports `BENCH_serve.json`; `--smoke`
/// runs the same checks with fixed-clock reporting (every wall-clock field
/// zeroed), so its `--json` output is byte-identical across runs. Exits
/// non-zero if the daemon misbehaves.
fn run_serve_bench(smoke: bool, json: &Option<PathBuf>) {
    println!("\n## Serve — planning-as-a-service daemon under load\n");
    let r = match serve_bench::run(smoke) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve-bench failed to run: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "mode {}; {} workers, admission queue {}, plan cache {}\n",
        r.mode, r.workers, r.queue_capacity, r.cache_capacity
    );
    println!("| check | status | ok |");
    println!("|---|---|---|");
    for c in &r.checks {
        println!(
            "| {} | {} | {} |",
            c.name,
            c.status,
            if c.ok { "yes" } else { "NO" }
        );
    }
    if !smoke {
        println!(
            "\nPlan: {} -> {} (predicted {:.1} samples/s); cold {:.4}s, cached {:.6}s ({:.0}x)",
            r.plan.model,
            r.plan.partition,
            r.plan.predicted_throughput,
            r.plan.cold_seconds,
            r.plan.cached_seconds,
            r.plan.cache_speedup
        );
        println!("\n| endpoint | requests | p50 ms | p95 ms | p99 ms |");
        println!("|---|---|---|---|---|");
        for l in &r.latency {
            println!(
                "| {} | {} | {:.3} | {:.3} | {:.3} |",
                l.endpoint, l.requests, l.p50_ms, l.p95_ms, l.p99_ms
            );
        }
        println!("\n| connections | req/s | p50 ms | p95 ms | p99 ms | hit rate |");
        println!("|---|---|---|---|---|---|");
        for t in &r.throughput {
            println!(
                "| {} | {:.0} | {:.3} | {:.3} | {:.3} | {:.2} |",
                t.connections, t.req_per_sec, t.p50_ms, t.p95_ms, t.p99_ms, t.cache_hit_rate
            );
        }
        println!(
            "\nOverload: {} connections vs queue bound {}: {} served, {} shed with 503, peak depth {}; {} shed clients recovered after Retry-After",
            r.overload.offered_connections,
            r.overload.queue_capacity,
            r.overload.served_200,
            r.overload.shed_503,
            r.overload.peak_queue_depth,
            r.overload.recovered_after_hint
        );
        println!(
            "Degraded drill: {} induced failures -> {} degraded deadline-exhausted, breaker {}; \
             {} degraded breaker-open at p99 {:.3} ms; recovery {}; bulkhead shed {}",
            r.degraded.induced_failures,
            r.degraded.degraded_deadline,
            if r.degraded.breaker_opened {
                "opened"
            } else {
                "DID NOT OPEN"
            },
            r.degraded.degraded_breaker_open,
            r.degraded.degraded_p99_ms,
            if r.degraded.breaker_recovered {
                "via half-open probe"
            } else {
                "FAILED"
            },
            if r.degraded.bulkhead_shed {
                "ok"
            } else {
                "BAD"
            }
        );
        let out = PathBuf::from("BENCH_serve.json");
        fs::write(&out, r.to_json().pretty()).expect("write BENCH_serve.json");
        eprintln!("wrote {}", out.display());
    }
    dump_json(json, "serve", &r);
    if !r.all_ok() {
        eprintln!("FAIL: serve-bench checks failed");
        std::process::exit(3);
    }
}

/// The cluster control-plane drill: seeded arrival/departure/fault traces
/// at 10 → 100 → 1000 jobs through the ap-sched event loop, with
/// whole-world best-response forks sampled mid-trace for the latency and
/// quality comparison. The full run exports `BENCH_cluster.json` and
/// requires the largest scale's neighborhood re-planning to beat a
/// whole-world round by the declared factor; `--smoke` keeps to the small
/// scales with a fake clock (every wall-clock field zeroed), so its
/// `--json` output is byte-identical across runs. Exits non-zero if a
/// gate fails.
fn run_cluster_bench(smoke: bool, json: &Option<PathBuf>) {
    println!("\n## Cluster — the ap-sched control plane under a seeded job stream\n");
    let r = cluster_bench::run(smoke);
    println!(
        "mode {}; quality tolerance {:.0}% on instances ≤100 jobs{}\n",
        r.mode,
        r.equivalence_epsilon * 100.0,
        if smoke {
            String::new()
        } else {
            format!(
                ", required speedup {:.0}x at the largest scale",
                r.required_speedup
            )
        }
    );
    println!("| jobs | gpus | events | peak res | placed | queued | rejected | evacuated | moved | mean nbhd | worst Δ |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for s in &r.scales {
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {:.1} | {:+.2}% |",
            s.n_jobs,
            s.gpus,
            s.events,
            s.peak_resident,
            s.placed,
            s.queued,
            s.rejected,
            s.evacuated,
            s.plans_moved,
            s.mean_neighborhood,
            s.worst_quality_delta * 100.0
        );
    }
    if !smoke {
        println!("\n| jobs | event mean (ms) | event p99 (ms) | full round (ms) | speedup |");
        println!("|---|---|---|---|---|");
        for s in &r.scales {
            println!(
                "| {} | {:.3} | {:.3} | {:.3} | {:.0}x |",
                s.n_jobs,
                s.event_latency_mean_s * 1e3,
                s.event_latency_p99_s * 1e3,
                s.full_latency_mean_s * 1e3,
                s.full_replan_speedup
            );
        }
        let out = PathBuf::from("BENCH_cluster.json");
        fs::write(&out, r.to_json().pretty()).expect("write BENCH_cluster.json");
        eprintln!("wrote {}", out.display());
    }
    dump_json(json, "cluster", &r);
    if !r.all_ok() {
        eprintln!("FAIL: cluster-bench gate violated (placement, quality epsilon, or speedup)");
        std::process::exit(3);
    }
}

/// The chaos drill: a seeded fault schedule against AutoPipe-with-recovery
/// and a drain-and-restart baseline. The full run exports
/// `BENCH_chaos.json` to the working directory (same-seed runs are
/// byte-identical); `--smoke` is a pure gate and writes nothing, so a CI
/// run never clobbers the committed full-length artifact. Exits non-zero
/// if the simulation wedges or AutoPipe fails to complete work inside any
/// scored outage window.
fn run_chaos(smoke: bool, json: &Option<PathBuf>) {
    const CHAOS_SEED: u64 = 9;
    let iters = if smoke { 30 } else { DYNAMIC_ITERS };
    println!("\n## Chaos — seeded worker failures and NIC flaps (ResNet50)\n");
    let r = match chaos::run(iters, CHAOS_SEED) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos run failed: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "{} outage window(s), {} link-flap burst(s) over a {:.1}s horizon (seed {})\n",
        r.outages.len(),
        r.link_flaps,
        r.horizon,
        r.seed
    );
    println!("| outage | window (s) | AutoPipe units | drain-and-restart units |");
    println!("|---|---|---|---|");
    for w in &r.outages {
        println!(
            "| gpu{}{} | {:.1}-{:.1} | {} | {} |",
            w.worker,
            if w.scored { "" } else { " (unscored)" },
            w.start,
            w.end,
            w.autopipe_units,
            w.baseline_units
        );
    }
    println!(
        "\nMean throughput: AutoPipe {:.1} img/s vs drain-and-restart {:.1} img/s (+{:.0}%)",
        r.mean.0,
        r.mean.1,
        (r.mean.0 / r.mean.1.max(1e-12) - 1.0) * 100.0
    );
    println!(
        "Emergency repartitions: {}; rollbacks: {}; stranded-unit restarts: {}",
        r.emergency_switches, r.rollbacks, r.restarts
    );
    if !smoke {
        let out = PathBuf::from("BENCH_chaos.json");
        fs::write(&out, r.to_json().pretty()).expect("write BENCH_chaos.json");
        eprintln!("wrote {}", out.display());
    }
    dump_json(json, "chaos", &r);
    if !r.survived_all_outages {
        eprintln!("FAIL: AutoPipe completed no work inside a scored outage window");
        std::process::exit(3);
    }
}

fn run_multijob(json: &Option<PathBuf>) {
    println!("\n## Multi-job deployment — coordinated AutoPipe tenancy (§1)\n");
    let rows = multi_job::run();
    println!("| tenancy | resnet50 | vgg16 | bert12 | total (samples/s) | plan changes |");
    println!("|---|---|---|---|---|---|");
    for r in &rows {
        println!(
            "| {} | {:.1} | {:.1} | {:.1} | {:.1} | {} |",
            r.tenancy, r.per_job[0], r.per_job[1], r.per_job[2], r.total, r.changes
        );
    }
    println!(
        "\nTenancy-wide improvement: {:+.1}%",
        (rows[1].total / rows[0].total - 1.0) * 100.0
    );
    dump_json(json, "multijob", &rows);
}

fn dump_json<T: ToJson>(dir: &Option<PathBuf>, name: &str, value: &T) {
    if let Some(d) = dir {
        fs::create_dir_all(d).expect("create json dir");
        let path = d.join(format!("{name}.json"));
        fs::write(&path, value.to_json().pretty()).expect("write json");
        eprintln!("wrote {}", path.display());
    }
}

/// Write a dynamic figure's merged decision/compute chrome trace and its
/// decision journal (stderr-only reporting: stdout stays byte-identical
/// to a run without `--trace`).
fn dump_trace(dir: &Option<PathBuf>, name: &str, trace: dynamic::DynamicTrace) {
    if let Some(d) = dir {
        fs::create_dir_all(d).expect("create trace dir");
        let path = d.join(format!("{name}_trace.json"));
        fs::write(&path, &trace.chrome_trace).expect("write chrome trace");
        eprintln!(
            "wrote {} ({} decision events)",
            path.display(),
            trace.journal.len()
        );
        dump_json(dir, &format!("{name}_journal"), &trace.journal);
    }
}

fn fig2(json: &Option<PathBuf>) {
    println!("\n## Figure 2 — filling the pipeline (startup vs steady state)\n");
    let fill = pipeline_fill::fig2(24);
    for row in pipeline_fill::ascii_timeline(&fill, 96) {
        println!("    {row}");
    }
    println!(
        "\n| window | mean utilization |\n|---|---|\n| startup (first quarter) | {:.1}% |\n| steady state (last half) | {:.1}% |",
        fill.startup_utilization * 100.0,
        fill.steady_utilization * 100.0
    );
    dump_json(json, "fig2", &fill);
}

fn motivation_title(s: Scenario) -> &'static str {
    match s {
        Scenario::BandwidthHalved => "dynamic changing bandwidth (halved mid-training)",
        Scenario::GpuContention => "dynamic changing computation resource (extra job per GPU)",
        Scenario::JobJoins => "a new distributed training job joins",
        Scenario::JobFinishes => "an old distributed training job finishes",
    }
}

fn motivation_figure(name: &str, scenario: Scenario, json: &Option<PathBuf>) {
    println!(
        "\n## {} — impact of {} on PipeDream\n",
        name.to_uppercase(),
        motivation_title(scenario)
    );
    let print_panel = |title: &str, rows: &[MotivationRow]| {
        println!("**{title}**\n");
        println!("| case | actual (img/s) | optimal (img/s) | degradation |");
        println!("|---|---|---|---|");
        for r in rows {
            println!(
                "| {} | {:.1} | {:.1} | {:.0}% |",
                r.label,
                r.actual,
                r.optimal,
                r.degradation_pct()
            );
        }
        println!();
    };
    let a = panel_models(scenario, MEASURE_ITERS);
    print_panel("(a) model influence @25Gbps", &a);
    let b = panel_bandwidths(scenario, MEASURE_ITERS);
    print_panel("(b) network speed influence (VGG16)", &b);
    dump_json(json, name, &(a, b));
}

fn fig8(json: &Option<PathBuf>) {
    println!("\n## Figure 8 — static resource allocation (3 identical jobs share the testbed)\n");
    let rows = static_alloc::full_grid(MEASURE_ITERS);
    println!(
        "| framework | scheme | model | Gbps | baseline | PipeDream | AutoPipe | vs base | vs PD |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for r in &rows {
        println!(
            "| {} | {} | {} | {:.0} | {:.1} | {:.1} | {:.1} | +{:.0}% | +{:.0}% |",
            r.framework,
            r.scheme,
            r.model,
            r.gbps,
            r.baseline,
            r.pipedream,
            r.autopipe,
            r.speedup_vs_baseline_pct(),
            r.speedup_vs_pipedream_pct()
        );
    }
    let best_base = rows
        .iter()
        .map(static_alloc::Fig8Row::speedup_vs_baseline_pct)
        .fold(f64::NEG_INFINITY, f64::max);
    let best_pd = rows
        .iter()
        .map(static_alloc::Fig8Row::speedup_vs_pipedream_pct)
        .fold(f64::NEG_INFINITY, f64::max);
    println!("\nBest speedup vs baseline: +{best_base:.0}% (paper: up to +177%)");
    println!("Best speedup vs PipeDream: +{best_pd:.0}% (paper: up to +89%)");
    dump_json(json, "fig8", &rows);
}

fn dynamic_figure(name: &str, r: dynamic::DynamicResult, json: &Option<PathBuf>) {
    println!(
        "\n## {} — training ResNet50 under {} \n",
        name.to_uppercase(),
        if name == "fig9" {
            "dynamic bandwidth (10→25→40→100 Gbps at iters 20/40/60)"
        } else {
            "dynamic GPUs (extra local jobs at iters 20/40)"
        }
    );
    println!("| iterations | AutoPipe (img/s) | PipeDream (img/s) |");
    println!("|---|---|---|");
    // Wall-clock speed over 8-iteration blocks (robust to simultaneous
    // completions): block time = sum of per-iteration batch/speed.
    let block = |series: &[(u64, f64)], lo: u64, hi: u64| -> Option<f64> {
        let dts: Vec<f64> = series
            .iter()
            .filter(|&&(i, _)| i >= lo && i < hi)
            .map(|&(_, s)| 128.0 / s)
            .collect();
        if dts.is_empty() {
            return None;
        }
        Some(dts.len() as f64 * 128.0 / dts.iter().sum::<f64>())
    };
    for lo in (0..=72).step_by(8) {
        let hi = lo + 8;
        let a = block(&r.autopipe, lo, hi).unwrap_or(0.0);
        let p = block(&r.pipedream, lo, hi).unwrap_or(0.0);
        println!("| {lo}-{hi} | {a:.1} | {p:.1} |");
    }
    println!(
        "\nMean throughput: AutoPipe {:.1} img/s vs PipeDream {:.1} img/s (+{:.0}%)",
        r.mean.0,
        r.mean.1,
        (r.mean.0 / r.mean.1 - 1.0) * 100.0
    );
    println!("Switches applied: {:?}", r.switches);
    dump_json(json, name, &r);
}

fn fig11(json: &Option<PathBuf>) {
    println!("\n## Figure 11 — accuracy vs time (AutoPipe / PipeDream / BSP / TAP)\n");
    let panels = convergence::fig11(MEASURE_ITERS);
    for (model, rows) in &panels {
        println!("**{model}**\n");
        println!(
            "| paradigm | throughput (img/s) | staleness | final top-1 | hours to 95% plateau |"
        );
        println!("|---|---|---|---|---|");
        for r in rows {
            println!(
                "| {} | {:.1} | {:.1} | {:.1}% | {} |",
                r.paradigm,
                r.throughput,
                r.staleness,
                r.final_accuracy,
                r.hours_to_target
                    .map(|h| format!("{h:.1}"))
                    .unwrap_or_else(|| "never".into())
            );
        }
        println!();
    }
    dump_json(json, "fig11", &panels);
}

fn fig12(json: &Option<PathBuf>) {
    println!("\n## Figure 12 — computation time of worker-partition modeling\n");
    let rows = overhead::fig12();
    println!("| model | PipeDream DP (s) | meta-net (s) | RL model (s) |");
    println!("|---|---|---|---|");
    for r in &rows {
        println!(
            "| {} | {:.4} | {:.4} | {:.6} |",
            r.model, r.dp_seconds, r.meta_net_seconds, r.rl_seconds
        );
    }
    dump_json(json, "fig12", &rows);
}

fn fig13(json: &Option<PathBuf>) {
    println!("\n## Figure 13 — AutoPipe-enhanced pipeline variants (BERT-48)\n");
    let rows = enhanced::fig13();
    println!("| schedule | vanilla (seq/s) | enhanced (seq/s) | speedup |");
    println!("|---|---|---|---|");
    for r in &rows {
        println!(
            "| {} | {:.1} | {:.1} | +{:.1}% |",
            r.schedule,
            r.vanilla,
            r.enhanced,
            r.speedup_pct()
        );
    }
    dump_json(json, "fig13", &rows);
}

fn run_ablations(json: &Option<PathBuf>) {
    println!("\n## Ablations (design choices of DESIGN.md §5)\n");
    let mut all = Vec::new();
    for (title, rows) in [
        ("Scorer", ablations::scorer_ablation(120)),
        ("Arbiter", ablations::arbiter_ablation(120)),
        ("Switching", ablations::switching_ablation(120)),
        (
            "Online adaptation (value = log-space MSE, lower is better)",
            ablations::adaptation_ablation(),
        ),
    ] {
        println!("**{title}**\n");
        println!("| variant | value | switches |");
        println!("|---|---|---|");
        for r in &rows {
            println!("| {} | {:.3} | {} |", r.variant, r.value, r.switches);
        }
        println!();
        all.push((title.to_string(), rows));
    }
    dump_json(json, "ablations", &all);
}
