//! The AutoPipe control loop as a staged decision pipeline.
//!
//! Every `check_every` iterations the controller walks the stages in
//! order:
//!
//! ```text
//! Verify ──▶ Observe ──▶ Detect ──▶ Enumerate ──▶ Score ──▶ Arbitrate ──▶ Switch
//! (revert    (profile,   (confirm   (two-worker    (meta-net  (RL /         (plan,
//!  or trust)  history)    changes)   neighborhood)  or         threshold)    price,
//!                                                   analytic)                pause)
//! ```
//!
//! profiling the cluster (Table 1 metrics), feeding the change detector,
//! and — when a change is confirmed — enumerating the two-worker
//! neighborhood of the current partition, scoring every candidate,
//! pricing the switch, and letting the RL arbiter decide. Every
//! production path — ap-serve's `/plan`, ap-sched's hill-climb, the
//! dynamic figures and the chaos drill — scores with the analytic model
//! ([`Scorer::Analytic`]); the paper's learned meta-network
//! ([`Scorer::MetaNet`]) is exercised by the ablations, Figure 12 and
//! the scoring bench. Approved switches are applied with fine-grained
//! layer-by-layer migration (or stop-and-restart, for ablation) and later
//! verified against their measured reward.
//!
//! Each stage is one plain type in its own submodule, called directly:
//! [`RewardVerifier`], [`ProfilerObserver`], [`ChangeMonitor`],
//! [`MoveEnumerator`], [`Scorer`], [`ArbiterMode::decide`] and
//! [`SwitchExecutor`].
//!
//! Every stage appends typed events to a [`DecisionJournal`] — the audit
//! trail of what was observed, proposed, priced, approved and verified —
//! which can be merged with the engine's worker timeline into one chrome
//! trace.
//!
//! [`scenario::run_dynamic_scenario`] replays a resource timeline against
//! either a static plan (the PipeDream baseline of Figures 9/10) or a
//! live controller, producing the paper's speed-vs-iteration curves.

pub mod config;
pub mod detect;
pub mod enumerate;
pub mod journal;
pub mod observe;
pub mod optimize;
pub mod pretrain;
pub mod scenario;
pub mod score;
pub mod switch;
pub mod verify;

#[cfg(test)]
mod tests;

use std::time::Duration;

use ap_cluster::{ClusterState, GpuId};
use ap_models::ModelProfile;
use ap_pipesim::{Partition, PartitionError, SwitchPlan};
use ap_planner::MoveKind;
use ap_resilience::{Retry, RetryConfig};

use crate::arbiter::{ArbiterInput, ArbiterMode};

pub use config::AutoPipeConfig;
use detect::describe_change;
pub use detect::ChangeMonitor;
pub use enumerate::MoveEnumerator;
pub use journal::{DecisionEvent, DecisionJournal, DecisionRecord, KeepReason};
pub use observe::ProfilerObserver;
pub use optimize::{hill_climb, refine, HillClimbPlanner, Refined};
pub use pretrain::pretrain_meta_net;
pub use scenario::{run_dynamic_scenario, run_dynamic_scenario_traced, ScenarioResult};
pub use score::{ScoreCtx, Scorer};
pub use switch::{SwitchExecutor, SwitchMode};
pub use verify::{PendingSwitch, RewardVerifier, Verdict};

/// Workers measured below this fraction of the fastest are treated as
/// failed or severely degraded (eviction-eligible, standing change).
const DEGRADED_SPEED_FRACTION: f64 = 0.35;

/// The controller's verdict for one decision point.
#[derive(Debug, Clone)]
pub enum Decision {
    /// Keep the current partition.
    Keep,
    /// Apply `partition`, paying `pause_seconds` of pipeline disturbance.
    Switch {
        /// The new partition.
        partition: Partition,
        /// Pipeline pause charged at the switch point (the refill after a
        /// stop-restart switch is simulated by the engine itself and not
        /// included here).
        pause_seconds: f64,
    },
}

/// The AutoPipe controller for one training job: one value per stage,
/// stepped once per decision point.
pub struct AutoPipeController<'a> {
    profile: &'a ModelProfile,
    /// Current partition (updated on approved switches).
    pub partition: Partition,
    cfg: AutoPipeConfig,
    observer: ProfilerObserver,
    monitor: ChangeMonitor,
    enumerator: MoveEnumerator,
    scorer: Scorer,
    arbiter: ArbiterMode,
    switcher: SwitchExecutor,
    verifier: RewardVerifier,
    /// The audit trail of every decision point.
    pub journal: DecisionJournal,
    /// Paces emergency-repair attempts (bounded, backed off, seeded), on
    /// a clock that reads simulated seconds.
    retry: Retry,
    /// Whether this fault episode's exhaustion was already journaled.
    retry_exhausted_logged: bool,
    /// A fault episode ended (worker recovered) before any repair switch
    /// was applied: the engine's live epoch still excludes the worker, so
    /// the current partition must be re-applied to rebuild it.
    reinstate_pending: bool,
    first_decision_done: bool,
    /// Count of approved switches (diagnostics).
    pub switches_applied: usize,
    /// Decision points taken (the journal's decision ordinal).
    decisions: u64,
}

impl<'a> AutoPipeController<'a> {
    /// Build a controller around an initial partition. Fails with the
    /// structural [`PartitionError`] when `initial` is invalid for
    /// `profile`.
    pub fn new(
        profile: &'a ModelProfile,
        initial: Partition,
        scorer: Scorer,
        arbiter: ArbiterMode,
        cfg: AutoPipeConfig,
    ) -> Result<Self, PartitionError> {
        initial.validate(profile.n_layers())?;
        let n_workers = initial.n_workers();
        // `Duration::from_secs_f64` rejects negative seconds.
        let base_delay = cfg.retry_base_delay_seconds.max(0.0);
        Ok(AutoPipeController {
            profile,
            partition: initial,
            observer: ProfilerObserver::new(profile, cfg.profiler_noise, cfg.seed),
            monitor: ChangeMonitor::new(n_workers, cfg.detector.clone()),
            enumerator: MoveEnumerator::new(),
            switcher: SwitchExecutor::new(cfg.switch_mode),
            verifier: RewardVerifier::new(),
            retry: Retry::new(
                RetryConfig {
                    max_attempts: cfg.retry_max_attempts,
                    base_delay: Duration::from_secs_f64(base_delay),
                    max_delay: Duration::from_secs_f64(base_delay.max(1e-3) * 64.0),
                },
                cfg.seed ^ 0x5e7f,
            ),
            retry_exhausted_logged: false,
            reinstate_pending: false,
            cfg,
            scorer,
            arbiter,
            journal: DecisionJournal::new(),
            first_decision_done: false,
            switches_applied: 0,
            decisions: 0,
        })
    }

    /// The observation stage (read access for diagnostics and tests).
    pub fn observer(&self) -> &ProfilerObserver {
        &self.observer
    }

    /// Seed the observation history directly (offline evaluation).
    pub fn push_history(&mut self, observation: Vec<f64>) {
        self.observer.push_history(observation);
    }

    /// One decision point: observe the cluster, maybe propose and switch.
    pub fn observe_and_decide(&mut self, state: &ClusterState) -> Decision {
        self.observe_and_decide_measured(state, None)
    }

    /// Decision point with the job's *measured* recent speed (samples/sec)
    /// when available. The measured speed is the arbiter's reward signal
    /// (§4.3 "the reward function is the training speed of one
    /// iteration"): a switch whose measured outcome is worse than what it
    /// replaced is reverted and the candidate black-listed.
    pub fn observe_and_decide_measured(
        &mut self,
        state: &ClusterState,
        measured: Option<f64>,
    ) -> Decision {
        let decision = self.decisions;
        self.observe_and_decide_at(state, measured, decision, 0.0)
    }

    /// [`Self::observe_and_decide_measured`] with the run position
    /// (`iteration` completed mini-batches at simulated time `now`
    /// seconds) stamped onto this decision point's journal records.
    pub fn observe_and_decide_at(
        &mut self,
        state: &ClusterState,
        measured: Option<f64>,
        iteration: u64,
        now: f64,
    ) -> Decision {
        let decision = self.decisions;
        self.decisions += 1;
        let Self {
            profile,
            ref mut partition,
            ref cfg,
            ref mut observer,
            ref mut monitor,
            ref mut enumerator,
            ref scorer,
            ref arbiter,
            ref switcher,
            ref mut verifier,
            ref mut journal,
            ref mut retry,
            ref mut retry_exhausted_logged,
            ref mut reinstate_pending,
            ref mut first_decision_done,
            ref mut switches_applied,
            decisions: _,
        } = *self;

        // — Detect (fault class): a partition that names a failed worker
        // is *infeasible* — a stage has lost a replica for good — which is
        // a different class from "degraded". The gain-vs-cost gate does
        // not apply (the current plan cannot run at all), so the repair
        // bypasses the arbiter entirely; attempts are paced by the seeded
        // retry policy so a repair that keeps failing backs off instead
        // of thrashing.
        let failed: Vec<GpuId> = partition
            .all_workers()
            .iter()
            .copied()
            .filter(|g| !state.is_available(*g))
            .collect();
        if !failed.is_empty() {
            journal.record(
                decision,
                iteration,
                now,
                DecisionEvent::InfeasibleDetected {
                    failed_workers: failed.iter().map(|g| g.0).collect(),
                },
            );
            if retry.exhausted() {
                if !*retry_exhausted_logged {
                    *retry_exhausted_logged = true;
                    journal.record(
                        decision,
                        iteration,
                        now,
                        DecisionEvent::RetryExhausted {
                            attempts: retry.attempts(),
                        },
                    );
                }
                *reinstate_pending = true;
                return Decision::Keep;
            }
            let sim_now = Duration::from_secs_f64(now);
            if !retry.ready(sim_now) {
                journal.record(
                    decision,
                    iteration,
                    now,
                    DecisionEvent::Kept {
                        reason: KeepReason::RetryBackoff,
                    },
                );
                *reinstate_pending = true;
                return Decision::Keep;
            }
            let attempt = retry.attempt(sim_now);
            journal.record(
                decision,
                iteration,
                now,
                DecisionEvent::RetryScheduled {
                    attempt,
                    not_before: retry.next_allowed().as_secs_f64(),
                },
            );
            // Greedy evacuation: chain the incremental moves (merges make
            // a sole dead replica droppable) that shed the most failed
            // workers, score breaking ties, until none remain.
            let ctx = ScoreCtx {
                model: cfg.model(profile),
                history: observer.history(),
                state,
            };
            let dead_count = |p: &Partition| {
                p.all_workers()
                    .iter()
                    .filter(|g| failed.contains(g))
                    .count()
            };
            let mut best = partition.clone();
            let mut bad = dead_count(&best);
            for _ in 0..(failed.len() * 4).max(4) {
                if bad == 0 {
                    break;
                }
                let viable: Vec<MoveKind> = enumerator
                    .candidates(&best, profile, &failed)
                    .into_iter()
                    .filter(|mv| dead_count(&mv.apply(&best)) < bad)
                    .collect();
                let Some((_, mv)) = scorer.best(&ctx, &best, &viable) else {
                    break;
                };
                best = mv.apply(&best);
                bad = dead_count(&best);
            }
            if bad > 0 {
                // The incremental chain stalled — e.g. a dead worker is a
                // stage's sole replica, so a merge keeps it in the union
                // and a drop needs two replicas: no single move strictly
                // reduces the dead count. Fall back to pure data
                // parallelism over the survivors, which is always
                // schedulable (the scorer-guided chain stays the primary
                // path because it preserves pipeline structure).
                let survivors: Vec<GpuId> = partition
                    .all_workers()
                    .iter()
                    .copied()
                    .filter(|g| state.is_available(*g))
                    .collect();
                if survivors.is_empty() {
                    journal.record(
                        decision,
                        iteration,
                        now,
                        DecisionEvent::Kept {
                            reason: KeepReason::RetryBackoff,
                        },
                    );
                    *reinstate_pending = true;
                    return Decision::Keep;
                }
                best = Partition::single_stage(profile.n_layers(), survivors);
            }
            let plan = SwitchPlan::between(partition, &best, profile, cfg.schedule);
            let pred = scorer.predict(&ctx, &best).max(1e-9);
            let iter_time = profile.batch as f64 / pred;
            let pause = switcher.pause_seconds(&plan, iter_time, partition, state);
            let dropped: Vec<usize> = failed
                .iter()
                .filter(|g| !best.all_workers().contains(g))
                .map(|g| g.0)
                .collect();
            journal.record(
                decision,
                iteration,
                now,
                DecisionEvent::EmergencyRepartition {
                    from: partition.summary(),
                    to: best.summary(),
                    dropped,
                    attempt,
                    pause_seconds: pause,
                },
            );
            // A pending verification would revert onto a partition that
            // may name the dead worker; drop it.
            verifier.disarm();
            monitor.reset();
            *reinstate_pending = false;
            *first_decision_done = false;
            *partition = best.clone();
            *switches_applied += 1;
            return Decision::Switch {
                partition: best,
                pause_seconds: pause,
            };
        }
        // Feasible: any fault episode is over — the next one starts with
        // a full repair budget.
        if retry.attempts() > 0 {
            retry.reset();
            *retry_exhausted_logged = false;
        }
        if *reinstate_pending {
            // The episode ended with no repair switch applied (the worker
            // recovered first, or every attempt was held back). The engine
            // shed the worker from its live epoch when it died and rejoins
            // it only on a switch, so re-apply the current partition:
            // zero-cost structurally (nothing moves), and it restarts any
            // mini-batches the outage stranded.
            *reinstate_pending = false;
            journal.record(
                decision,
                iteration,
                now,
                DecisionEvent::EmergencyRepartition {
                    from: partition.summary(),
                    to: partition.summary(),
                    dropped: Vec::new(),
                    attempt: 0,
                    pause_seconds: 0.0,
                },
            );
            verifier.disarm();
            monitor.reset();
            *first_decision_done = false;
            *switches_applied += 1;
            return Decision::Switch {
                partition: partition.clone(),
                pause_seconds: 0.0,
            };
        }

        // — Verify: judge the previous switch against its realized reward,
        // once the pipeline has had time to settle.
        let verdict = {
            let ctx = ScoreCtx {
                model: cfg.model(profile),
                history: observer.history(),
                state,
            };
            verifier.check(measured, || scorer.predict(&ctx, partition))
        };
        match verdict {
            Verdict::Revert {
                prev,
                measured: m,
                expected_floor,
            } => {
                let bad = std::mem::replace(partition, prev.clone());
                enumerator.reject(bad);
                monitor.reset();
                *first_decision_done = false;
                journal.record(
                    decision,
                    iteration,
                    now,
                    DecisionEvent::Reverted {
                        to: prev.summary(),
                        measured: m,
                        expected_floor,
                        trust: verifier.trust(),
                    },
                );
                // Reverting is itself a two-worker fine-grained switch
                // back onto stashed weights: negligible pause.
                return Decision::Switch {
                    partition: prev,
                    pause_seconds: 0.0,
                };
            }
            Verdict::Verified {
                measured: m,
                expected_floor,
            } => {
                journal.record(
                    decision,
                    iteration,
                    now,
                    DecisionEvent::Verified {
                        measured: m,
                        expected_floor,
                        trust: verifier.trust(),
                    },
                );
            }
            Verdict::Idle | Verdict::Waiting => {}
        }

        // — Observe: profile the cluster, extend the history.
        let workers = partition.all_workers();
        // Worker evictions change the observation width; resize the
        // detector when that happens.
        monitor.resize(workers.len());
        let metrics = observer.observe(&workers, state, partition);
        let computes: Vec<f64> = (0..workers.len())
            .map(|w| metrics.relative_speed(w))
            .collect();

        // — Detect: confirm changes; a severely degraded worker (failed
        // or nearly so) is a *standing* change: stay armed until it is
        // evacuated or recovers, even though the detector's reference has
        // re-baselined onto the degraded readings.
        let changes = monitor.detect(&metrics, &computes);
        let degraded_present = computes.iter().any(|&s| s < DEGRADED_SPEED_FRACTION);
        if changes.is_empty() && *first_decision_done && !degraded_present {
            return Decision::Keep;
        }
        *first_decision_done = true;
        // Only sub-threshold workers are eligible for eviction. (Mild
        // contention is better handled by re-balancing — shedding
        // capacity for a 2x-slow replica rarely pays once transition
        // costs are counted.)
        let degraded: Vec<GpuId> = workers
            .iter()
            .zip(&computes)
            .filter(|&(_, &speed)| speed < DEGRADED_SPEED_FRACTION)
            .map(|(&g, _)| g)
            .collect();
        journal.record(
            decision,
            iteration,
            now,
            DecisionEvent::ChangeDetected {
                signals: changes.iter().map(describe_change).collect(),
                degraded_workers: degraded.iter().map(|g| g.0).collect(),
            },
        );

        // — Enumerate + Score: greedy chain of incremental moves (two-
        // worker moves plus stage merges/splits), each round keeping the
        // best-scoring candidate; previously punished candidates are
        // never re-proposed.
        let ctx = ScoreCtx {
            model: cfg.model(profile),
            history: observer.history(),
            state,
        };
        let Refined {
            partition: best,
            score: best_speed,
            start_score: current_speed,
            rounds,
            scored,
            ..
        } = refine(
            &*enumerator,
            scorer,
            &ctx,
            partition.clone(),
            &degraded,
            cfg.moves_per_decision.max(1),
            || false,
        );
        journal.record(
            decision,
            iteration,
            now,
            DecisionEvent::CandidatesScored {
                rounds,
                scored,
                current_pred: current_speed,
                best_pred: best_speed,
                best: best.summary(),
            },
        );
        let keep = |journal: &mut DecisionJournal, reason| {
            journal.record(decision, iteration, now, DecisionEvent::Kept { reason });
            Decision::Keep
        };
        if verifier.tick_cooldown() {
            return keep(journal, KeepReason::Cooldown);
        }
        if best == *partition {
            return keep(journal, KeepReason::NoImprovement);
        }
        // Minimum predicted gain worth the risk, inflated when the scorer
        // has been caught over-promising.
        let floor = 1.0 + 0.03 / verifier.trust();
        if best_speed <= current_speed * floor {
            return keep(journal, KeepReason::BelowGainFloor);
        }
        let best = &best;

        // — Arbitrate: price the switch and ask for a ruling.
        let plan = SwitchPlan::between(partition, best, profile, cfg.schedule);
        let iter_time = profile.batch as f64 / current_speed.max(1e-9);
        let cost = switcher.predict_cost(&plan, iter_time, partition, state);
        let mean_bw =
            metrics.bandwidth.iter().sum::<f64>() / metrics.bandwidth.len().max(1) as f64 / 12.5e9;
        let input = ArbiterInput {
            current_speed,
            candidate_speed: best_speed,
            switch_cost: cost,
            iteration_time: iter_time,
            horizon_iterations: cfg.horizon_iterations,
            mean_bandwidth_norm: mean_bw,
        };
        let approved = arbiter.decide(&input);
        journal.record(
            decision,
            iteration,
            now,
            DecisionEvent::ArbiterVerdict {
                approved,
                predicted_speedup: best_speed / current_speed.max(1e-9),
                switch_cost_seconds: cost,
                reward: input.switch_reward(),
            },
        );
        if !approved {
            return keep(journal, KeepReason::ArbiterRejected);
        }

        // — Switch: charge the pause and apply.
        let pause = switcher.pause_seconds(&plan, iter_time, partition, state);
        let new_partition = best.clone();
        verifier.arm(PendingSwitch {
            prev: partition.clone(),
            prev_speed: measured.unwrap_or(current_speed),
            prev_pred_then: current_speed,
            wait: 2,
        });
        journal.record(
            decision,
            iteration,
            now,
            DecisionEvent::SwitchApplied {
                from: partition.summary(),
                to: new_partition.summary(),
                moved_layers: plan.moved_layers.len(),
                transfer_bytes: plan.transfer_bytes,
                pause_seconds: pause,
            },
        );
        *partition = new_partition.clone();
        monitor.reset();
        *switches_applied += 1;
        Decision::Switch {
            partition: new_partition,
            pause_seconds: pause,
        }
    }
}
