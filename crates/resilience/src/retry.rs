//! Bounded retry with seeded exponential backoff.
//!
//! Time is a [`Duration`] read from an injectable [`Clock`], or passed in
//! directly: the AutoPipe controller paces its emergency repairs in
//! simulated seconds with this same policy. Every delay is a pure
//! function of `(seed, attempt)`, so a replayed scenario replays the
//! exact schedule, and the jitter (up to +50% of the nominal delay, drawn
//! from an [`ap_rng::Rng`] stream) keeps a fleet of clients from retrying
//! in lockstep.
//!
//! The policy itself never sleeps. [`Retry::ready`]/[`Retry::attempt`]
//! are driven by clock readings, so tests crank a
//! [`FakeClock`](crate::clock::FakeClock) instead of waiting; callers
//! that do want blocking behavior use [`Retry::run`] and supply the
//! sleeper themselves.

use std::time::Duration;

use ap_rng::Rng;

use crate::clock::Clock;

/// Retry schedule configuration.
#[derive(Debug, Clone)]
pub struct RetryConfig {
    /// Attempts allowed before [`Retry::exhausted`] (includes the first
    /// try: `max_attempts = 3` means one try plus two retries).
    pub max_attempts: u32,
    /// Backoff after the first failed attempt; successive waits double.
    pub base_delay: Duration,
    /// Ceiling on any single (pre-jitter) backoff delay.
    pub max_delay: Duration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 4,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(5),
        }
    }
}

/// Bounded, exponentially backed-off retry state.
#[derive(Debug, Clone)]
pub struct Retry {
    cfg: RetryConfig,
    rng: Rng,
    attempts: u32,
    not_before: Duration,
}

impl Retry {
    /// A fresh policy; `seed` fixes the jitter stream.
    pub fn new(cfg: RetryConfig, seed: u64) -> Self {
        Retry {
            cfg,
            rng: Rng::stream(seed, 0x7e717),
            attempts: 0,
            not_before: Duration::ZERO,
        }
    }

    /// Whether another attempt may start at clock reading `now`.
    pub fn ready(&self, now: Duration) -> bool {
        !self.exhausted() && now >= self.not_before
    }

    /// Whether the attempt budget is spent.
    pub fn exhausted(&self) -> bool {
        self.attempts >= self.cfg.max_attempts
    }

    /// Attempts consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Earliest clock reading the next attempt may start.
    pub fn next_allowed(&self) -> Duration {
        self.not_before
    }

    /// Consume one attempt at clock reading `now`; returns its 1-based
    /// ordinal and schedules the jittered backoff window for the next.
    pub fn attempt(&mut self, now: Duration) -> u32 {
        let exp = self.attempts.min(30);
        let nominal = self
            .cfg
            .base_delay
            .saturating_mul(1u32 << exp)
            .min(self.cfg.max_delay);
        let jitter = self.rng.gen_range(0.0..0.5);
        self.attempts += 1;
        self.not_before = now + nominal.mul_f64(1.0 + jitter);
        self.attempts
    }

    /// Forget history: the next attempt is immediate with a full budget.
    pub fn reset(&mut self) {
        self.attempts = 0;
        self.not_before = Duration::ZERO;
    }

    /// Drive `f` to success or exhaustion. `sleep` is called with each
    /// backoff wait (production passes `std::thread::sleep`; tests pass a
    /// closure that advances a fake clock). An `Err` from the final
    /// attempt is returned as `RetryError::Exhausted`.
    ///
    /// `f` receives the 1-based attempt ordinal. A server-supplied hint
    /// (e.g. HTTP `Retry-After`) can be honored by returning it in
    /// `Err((error, Some(hint)))`: the wait used is the *longer* of the
    /// hint and the policy's own backoff.
    pub fn run<T, E>(
        &mut self,
        clock: &dyn Clock,
        mut sleep: impl FnMut(Duration),
        mut f: impl FnMut(u32) -> Result<T, (E, Option<Duration>)>,
    ) -> Result<T, RetryError<E>> {
        loop {
            if self.exhausted() {
                return Err(RetryError::Budget);
            }
            let ordinal = self.attempt(clock.now());
            match f(ordinal) {
                Ok(v) => return Ok(v),
                Err((e, hint)) => {
                    if self.exhausted() {
                        return Err(RetryError::Exhausted(e));
                    }
                    let mut wait = self.not_before.saturating_sub(clock.now());
                    if let Some(h) = hint {
                        wait = wait.max(h);
                    }
                    if !wait.is_zero() {
                        sleep(wait);
                    }
                }
            }
        }
    }
}

/// Why [`Retry::run`] gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryError<E> {
    /// Every attempt failed; the final error is carried.
    Exhausted(E),
    /// Called with the budget already spent (no attempt was made).
    Budget,
}

impl<E: std::fmt::Display> std::fmt::Display for RetryError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetryError::Exhausted(e) => write!(f, "retries exhausted: {e}"),
            RetryError::Budget => write!(f, "retry budget already spent"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;

    fn cfg(max_attempts: u32, base_ms: u64, max_ms: u64) -> RetryConfig {
        RetryConfig {
            max_attempts,
            base_delay: Duration::from_millis(base_ms),
            max_delay: Duration::from_millis(max_ms),
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut r = Retry::new(cfg(10, 100, 800), 7);
        let mut prev = Duration::ZERO;
        for _ in 0..6 {
            r.attempt(Duration::ZERO);
            let d = r.next_allowed();
            assert!(d >= prev, "delay must not shrink: {prev:?} -> {d:?}");
            // Jitter ceiling is nominal * 1.5; the cap is 800ms * 1.5.
            assert!(d <= Duration::from_millis(1200));
            prev = d;
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = Retry::new(cfg(6, 50, 6400), 42);
        let mut b = Retry::new(cfg(6, 50, 6400), 42);
        for i in 0..6 {
            let now = Duration::from_secs(i);
            a.attempt(now);
            b.attempt(now);
            assert_eq!(a.next_allowed(), b.next_allowed());
        }
    }

    #[test]
    fn run_succeeds_after_failures_without_real_time() {
        let clock = FakeClock::shared();
        let mut r = Retry::new(cfg(5, 100, 1000), 3);
        let mut slept = Vec::new();
        let mut calls = 0u32;
        let out = r.run(
            &*clock,
            |d| {
                slept.push(d);
                clock.advance(d);
            },
            |ordinal| {
                calls += 1;
                assert_eq!(ordinal, calls);
                if calls < 3 {
                    Err(("nope", None))
                } else {
                    Ok("yes")
                }
            },
        );
        assert_eq!(out, Ok("yes"));
        assert_eq!(calls, 3);
        assert_eq!(slept.len(), 2, "two failures -> two backoff waits");
        assert!(slept[1] > slept[0], "backoff grows");
    }

    #[test]
    fn run_exhausts_with_last_error() {
        let clock = FakeClock::shared();
        let mut r = Retry::new(cfg(3, 10, 100), 1);
        let out: Result<(), _> = r.run(
            &*clock,
            |d| clock.advance(d),
            |ordinal| Err((format!("fail {ordinal}"), None)),
        );
        assert_eq!(out, Err(RetryError::Exhausted("fail 3".to_string())));
        assert!(r.exhausted());
        let out: Result<(), _> = r.run(&*clock, |_| {}, |_| Err(("x".to_string(), None)));
        assert_eq!(out, Err(RetryError::Budget));
    }

    #[test]
    fn server_hint_stretches_the_wait() {
        let clock = FakeClock::shared();
        let mut r = Retry::new(cfg(2, 10, 100), 9);
        let mut slept = Vec::new();
        let _ = r.run(
            &*clock,
            |d| {
                slept.push(d);
                clock.advance(d);
            },
            |ordinal| {
                if ordinal == 1 {
                    Err(((), Some(Duration::from_secs(2))))
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(slept, vec![Duration::from_secs(2)]);
    }

    #[test]
    fn reset_restores_the_budget() {
        let mut r = Retry::new(cfg(2, 10, 100), 5);
        r.attempt(Duration::ZERO);
        r.attempt(Duration::ZERO);
        assert!(r.exhausted());
        // Exhausted means never ready, however late.
        assert!(!r.ready(Duration::MAX));
        r.reset();
        assert!(!r.exhausted());
        assert!(r.ready(Duration::ZERO));
    }

    #[test]
    fn not_ready_inside_the_backoff_window() {
        let mut r = Retry::new(cfg(5, 2000, 100_000), 3);
        r.attempt(Duration::from_secs(10));
        assert!(!r.ready(Duration::from_secs(11)));
        // Jitter is at most +50%, so 10s + 3s is always past the window.
        assert!(r.ready(Duration::from_secs(13) + Duration::from_nanos(1)));
    }
}
