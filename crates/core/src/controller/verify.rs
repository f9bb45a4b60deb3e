//! The verification stage: judge applied switches by their measured
//! reward (§4.3 "the reward function is the training speed of one
//! iteration"), decay trust in the scorer on reverts, and enforce a
//! post-revert cooldown.

use ap_pipesim::Partition;

/// Measured speed below `expected * REVERT_FRACTION` triggers a revert.
const REVERT_FRACTION: f64 = 0.75;
/// Trust multiplier applied by a revert (negative reward).
const TRUST_DECAY: f64 = 0.6;
/// Trust multiplier applied by a verified switch (positive reward).
const TRUST_RECOVERY: f64 = 1.15;
/// Decision points sat out after a revert.
const REVERT_COOLDOWN: u8 = 2;

/// A switch awaiting verification against its realized reward.
#[derive(Debug, Clone)]
pub struct PendingSwitch {
    /// The partition that was replaced (the revert target).
    pub prev: Partition,
    /// Measured speed just before the switch.
    pub prev_speed: f64,
    /// Predicted speed of the previous partition at switch time.
    pub prev_pred_then: f64,
    /// Decision points until the verdict — the pipeline needs a couple of
    /// windows to re-reach steady state.
    pub wait: u8,
}

/// Outcome of one verification check.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// No switch pending.
    Idle,
    /// A switch is pending but not yet due (or no measurement arrived).
    Waiting,
    /// The last switch's measured reward met expectations.
    Verified {
        /// The measured speed that passed.
        measured: f64,
        /// The minimum speed that would have passed.
        expected_floor: f64,
    },
    /// The last switch under-delivered; roll back to `prev`.
    Revert {
        /// The partition to reinstate.
        prev: Partition,
        /// The measured speed that failed.
        measured: f64,
        /// The minimum speed that would have passed.
        expected_floor: f64,
    },
}

/// Verifies the last switch against its realized reward once the pipeline
/// has had time to settle. The expected speed is the pre-switch
/// measurement scaled by the *predicted* ratio of the two partitions
/// under the current state, so a cluster-wide slowdown (which hits either
/// partition) does not trigger a bogus revert.
pub struct RewardVerifier {
    pending: Option<PendingSwitch>,
    trust: f64,
    cooldown: u8,
}

impl RewardVerifier {
    /// A verifier with full trust and nothing pending.
    pub fn new() -> Self {
        RewardVerifier {
            pending: None,
            trust: 1.0,
            cooldown: 0,
        }
    }

    /// Arm verification for a just-applied switch.
    pub fn arm(&mut self, pending: PendingSwitch) {
        self.pending = Some(pending);
    }

    /// Check the pending switch (if due) against the measured speed.
    /// `predict_current` lazily prices the *current* partition under the
    /// current state so a cluster-wide slowdown does not trigger a bogus
    /// revert; it is only invoked when a verdict is actually due.
    pub fn check(
        &mut self,
        measured: Option<f64>,
        predict_current: impl FnOnce() -> f64,
    ) -> Verdict {
        let Some(PendingSwitch {
            prev,
            prev_speed,
            prev_pred_then,
            wait,
        }) = self.pending.take()
        else {
            return Verdict::Idle;
        };
        if wait > 0 {
            self.pending = Some(PendingSwitch {
                prev,
                prev_speed,
                prev_pred_then,
                wait: wait - 1,
            });
            return Verdict::Waiting;
        }
        let Some(m) = measured else {
            return Verdict::Waiting;
        };
        // Expected outcome = pre-switch measurement scaled by the
        // *predicted* change (new partition under the current state vs the
        // old partition under the state it was measured in) — robust to
        // the environment moving again between the switch and its
        // verification.
        let new_pred_now = predict_current();
        let ratio = (new_pred_now / prev_pred_then.max(1e-9)).clamp(0.1, 10.0);
        let expected_floor = prev_speed * ratio * REVERT_FRACTION;
        if m < expected_floor {
            // Negative reward: trust the scorer less and sit out a couple
            // of windows, but stay armed — the environment may still be
            // far from the reverted plan's optimum.
            self.trust *= TRUST_DECAY;
            self.cooldown = REVERT_COOLDOWN;
            Verdict::Revert {
                prev,
                measured: m,
                expected_floor,
            }
        } else {
            // Positive reward: the prediction held up.
            self.trust = (self.trust * TRUST_RECOVERY).min(1.0);
            Verdict::Verified {
                measured: m,
                expected_floor,
            }
        }
    }

    /// Confidence in the scorer's predicted gains, in `(0, 1]`.
    pub fn trust(&self) -> f64 {
        self.trust
    }

    /// Tick the post-revert cooldown; `true` while sitting out.
    pub fn tick_cooldown(&mut self) -> bool {
        if self.cooldown > 0 {
            self.cooldown -= 1;
            true
        } else {
            false
        }
    }

    /// Drop any pending verification. Emergency repairs call this: the
    /// pending revert target may name a worker that just died, and
    /// reinstating it would re-break the job.
    pub fn disarm(&mut self) {
        self.pending = None;
    }
}

impl Default for RewardVerifier {
    fn default() -> Self {
        RewardVerifier::new()
    }
}
