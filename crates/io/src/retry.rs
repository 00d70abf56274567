//! Retry policies, backoff, and I/O fault accounting.
//!
//! A comparison runtime streaming thousands of scattered reads will
//! eventually meet a flaky device. This module gives
//! every backend a shared vocabulary for surviving it:
//!
//! * [`ErrorClass`] splits [`IoError`](crate::IoError)s into
//!   *transient* (worth retrying: interrupted syscalls, timeouts,
//!   connection resets) and *permanent* (retrying cannot help: bounds
//!   violations, bad media, engine shutdown).
//! * [`RetryPolicy`] bounds the retries: a total attempt budget,
//!   exponential backoff with deterministic jitter, and an optional
//!   per-operation deadline. Backoff waits are charged to the
//!   storage's [`SimClock`] when it has one — so simulated experiments
//!   stay deterministic and instant — and slept for real otherwise.
//! * [`RingCounters`] / [`RingStats`] account for what the retry
//!   machinery did (submitted, completed, retried, gave up), so a
//!   partial report can say exactly how hard the I/O layer fought.

use reprocmp_obs::{Counter, EventKind, Journal, Registry};
use serde::Serialize;
use std::time::{Duration, Instant};

use crate::clock::SimClock;
use crate::IoResult;

/// Whether an error is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The operation may succeed if re-issued (device hiccup).
    Transient,
    /// Retrying cannot change the outcome (bad request, bad media,
    /// engine gone).
    Permanent,
}

/// SplitMix64: one statistically solid 64-bit mix, used for
/// deterministic jitter and probabilistic fault schedules.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How many times to re-issue a failed operation, and how long to wait
/// between attempts.
///
/// Only [`ErrorClass::Transient`] failures are retried; permanent ones
/// are returned immediately. The policy is `Copy` and lives happily
/// inside `PipelineConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (minimum 1 is enforced at
    /// run time; `1` means "never retry").
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff wait.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter applied to each wait.
    pub jitter_seed: u64,
    /// Per-operation deadline over all attempts *and* backoff waits,
    /// measured on the virtual clock when one is present. `None`
    /// disables the deadline.
    pub deadline: Option<Duration>,
}

impl RetryPolicy {
    /// Never retry — the failure behaviour the stack had before this
    /// policy existed.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter_seed: 0,
            deadline: None,
        }
    }

    /// A sensible retrying policy: `attempts` total attempts, 500 µs
    /// base backoff capped at 50 ms, no deadline.
    ///
    /// # Panics
    ///
    /// On a zero-attempt budget — an operation that may never run is a
    /// configuration bug, rejected here at config time rather than
    /// silently clamped at run time. Callers holding untrusted input
    /// use [`RetryPolicy::try_with_attempts`].
    #[must_use]
    pub fn with_attempts(attempts: u32) -> Self {
        RetryPolicy::try_with_attempts(attempts)
            .expect("retry attempt budget must be at least 1 (the first attempt)")
    }

    /// Fallible [`RetryPolicy::with_attempts`]: rejects a zero-attempt
    /// budget instead of panicking, for configs built from user input.
    ///
    /// # Errors
    ///
    /// When `attempts` is zero.
    pub fn try_with_attempts(attempts: u32) -> Result<Self, String> {
        if attempts == 0 {
            return Err(
                "retry attempt budget must be at least 1 (the first attempt is an attempt)"
                    .to_owned(),
            );
        }
        Ok(RetryPolicy {
            max_attempts: attempts,
            base_backoff: Duration::from_micros(500),
            max_backoff: Duration::from_millis(50),
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
            deadline: None,
        })
    }

    /// The jittered wait before retry number `retry_index` (1-based).
    ///
    /// Exponential in the retry index, capped at
    /// [`RetryPolicy::max_backoff`], then scaled by a deterministic
    /// jitter factor in `[0.5, 1.0]` drawn from
    /// [`RetryPolicy::jitter_seed`] — concurrent workers hitting the
    /// same outage spread out instead of stampeding in lockstep.
    #[must_use]
    pub fn backoff(&self, retry_index: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = retry_index.saturating_sub(1).min(20);
        let nominal = self
            .base_backoff
            .saturating_mul(1 << exp)
            .min(self.max_backoff);
        let unit = (splitmix64(self.jitter_seed ^ u64::from(retry_index)) >> 11) as f64
            / (1u64 << 53) as f64;
        nominal.mul_f64(0.5 + 0.5 * unit)
    }

    /// Runs `op` under this policy, returning the final result and the
    /// number of retries performed (0 = first attempt succeeded or was
    /// terminal).
    ///
    /// Transient failures are retried up to the attempt budget, waiting
    /// [`RetryPolicy::backoff`] between attempts: the wait advances
    /// `clock` when one is given (virtual time — free and
    /// deterministic) and sleeps for real otherwise. The deadline is
    /// measured on the same time base and includes the time `op` itself
    /// charges; once the *next* wait would cross it, the operation
    /// gives up with the last error.
    ///
    /// Each backoff wait emits a `retry` event on `lane` into `journal`,
    /// and a budget exhausted on a transient error emits `gave_up`. Pass
    /// [`Journal::disabled`] to record nothing (the hook costs one
    /// branch).
    pub fn run<T>(
        &self,
        clock: Option<&SimClock>,
        journal: &Journal,
        lane: &str,
        mut op: impl FnMut() -> IoResult<T>,
    ) -> (IoResult<T>, u32) {
        let sim_start = clock.map(SimClock::now);
        let wall_start = Instant::now();
        let mut retries = 0u32;
        let err = loop {
            let e = match op() {
                Ok(v) => return (Ok(v), retries),
                Err(e) => e,
            };
            let attempts_made = retries + 1;
            if attempts_made >= self.max_attempts.max(1) || e.class() == ErrorClass::Permanent {
                break e;
            }
            let wait = self.backoff(attempts_made);
            if let Some(deadline) = self.deadline {
                let elapsed = match (clock, sim_start) {
                    (Some(c), Some(s)) => c.now().saturating_sub(s),
                    _ => wall_start.elapsed(),
                };
                if elapsed + wait > deadline {
                    break e;
                }
            }
            journal.emit(
                lane,
                EventKind::Retry {
                    attempt: attempts_made,
                    backoff_ns: u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX),
                },
            );
            match clock {
                Some(c) => {
                    c.advance(wait);
                }
                None => {
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                }
            }
            retries += 1;
        };
        if retries > 0 {
            journal.emit(
                lane,
                EventKind::GaveUp {
                    attempts: retries + 1,
                },
            );
        }
        (Err(err), retries)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Shared I/O accounting, updated live by pipeline readers.
///
/// Each field is a registry-style [`Counter`] from `reprocmp-obs`. A
/// default-constructed `RingCounters` owns detached counters (exactly
/// the old behaviour); [`RingCounters::registered`] binds the four
/// counters into a [`Registry`] under a name prefix so the same
/// increments also show up in metric snapshots — the public recording
/// API and [`RingStats`] shape are unchanged either way.
#[derive(Debug, Default)]
pub struct RingCounters {
    submitted: Counter,
    completed: Counter,
    retried: Counter,
    gave_up: Counter,
}

impl RingCounters {
    /// Counters registered as `{prefix}.submitted`, `{prefix}.completed`,
    /// `{prefix}.retried`, and `{prefix}.gave_up` in `registry`.
    ///
    /// Handles are get-or-create: two `RingCounters` registered under
    /// the same prefix share the same underlying counters, which is how
    /// a pair of pipelines aggregates into one set of totals.
    #[must_use]
    pub fn registered(registry: &Registry, prefix: &str) -> Self {
        RingCounters {
            submitted: registry.counter(&format!("{prefix}.submitted")),
            completed: registry.counter(&format!("{prefix}.completed")),
            retried: registry.counter(&format!("{prefix}.retried")),
            gave_up: registry.counter(&format!("{prefix}.gave_up")),
        }
    }

    /// Records `n` operations handed to the device.
    pub fn record_submitted(&self, n: u64) {
        self.submitted.add(n);
    }

    /// Records one operation finishing successfully.
    pub fn record_completed(&self) {
        self.completed.inc();
    }

    /// Records `n` retry attempts.
    pub fn record_retries(&self, n: u64) {
        if n > 0 {
            self.retried.add(n);
        }
    }

    /// Records one operation exhausting its policy and failing.
    pub fn record_gave_up(&self) {
        self.gave_up.inc();
    }

    /// A point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> RingStats {
        RingStats {
            submitted: self.submitted.get(),
            completed: self.completed.get(),
            retried: self.retried.get(),
            gave_up: self.gave_up.get(),
        }
    }
}

/// A snapshot of [`RingCounters`]: what the I/O layer did for one
/// stream of operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RingStats {
    /// Operations handed to the device.
    pub submitted: u64,
    /// Operations that finished successfully (possibly after retries).
    pub completed: u64,
    /// Extra attempts issued beyond each operation's first.
    pub retried: u64,
    /// Operations that exhausted their retry policy and failed.
    pub gave_up: u64,
}

impl RingStats {
    /// Field-wise sum, for aggregating several streams into one report.
    #[must_use]
    pub fn merged(self, other: RingStats) -> RingStats {
        RingStats {
            submitted: self.submitted + other.submitted,
            completed: self.completed + other.completed,
            retried: self.retried + other.retried,
            gave_up: self.gave_up + other.gave_up,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoError;
    use std::io::ErrorKind;

    fn transient() -> IoError {
        IoError::Os(std::io::Error::new(ErrorKind::Interrupted, "hiccup"))
    }

    fn permanent() -> IoError {
        IoError::Os(std::io::Error::new(ErrorKind::InvalidData, "bad media"))
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(16),
            jitter_seed: 7,
            deadline: None,
        };
        // Jitter keeps each wait within [0.5, 1.0] of the nominal value.
        for k in 1..8u32 {
            let nominal = Duration::from_millis(1 << (k - 1)).min(Duration::from_millis(16));
            let b = p.backoff(k);
            assert!(
                b >= nominal.mul_f64(0.5) && b <= nominal,
                "retry {k}: {b:?}"
            );
        }
        assert_eq!(p.backoff(3), p.backoff(3), "jitter is deterministic");
    }

    #[test]
    fn transient_errors_retry_until_success_on_virtual_time() {
        let clock = SimClock::new();
        let p = RetryPolicy::with_attempts(5);
        let mut calls = 0;
        let (result, retries) = p.run(Some(&clock), &Journal::disabled(), "io", || {
            calls += 1;
            if calls < 3 {
                Err(transient())
            } else {
                Ok(42)
            }
        });
        assert_eq!(result.unwrap(), 42);
        assert_eq!(retries, 2);
        assert_eq!(calls, 3);
        assert!(clock.now() > Duration::ZERO, "backoff charged virtually");
    }

    #[test]
    fn attempt_budget_is_respected() {
        let clock = SimClock::new();
        let p = RetryPolicy::with_attempts(3);
        let mut calls = 0;
        let (result, retries): (IoResult<()>, u32) =
            p.run(Some(&clock), &Journal::disabled(), "io", || {
                calls += 1;
                Err(transient())
            });
        assert!(result.is_err());
        assert_eq!(calls, 3);
        assert_eq!(retries, 2);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let clock = SimClock::new();
        let p = RetryPolicy::with_attempts(5);
        let mut calls = 0;
        let (result, retries): (IoResult<()>, u32) =
            p.run(Some(&clock), &Journal::disabled(), "io", || {
                calls += 1;
                Err(permanent())
            });
        assert!(result.is_err());
        assert_eq!(calls, 1);
        assert_eq!(retries, 0);
        assert_eq!(clock.now(), Duration::ZERO);
    }

    #[test]
    fn deadline_cuts_retries_short() {
        let clock = SimClock::new();
        // Deadline shorter than even one backoff wait: no retry happens.
        let p = RetryPolicy {
            deadline: Some(Duration::from_nanos(1)),
            ..RetryPolicy::with_attempts(10)
        };
        let mut calls = 0;
        let (result, _): (IoResult<()>, u32) =
            p.run(Some(&clock), &Journal::disabled(), "io", || {
                calls += 1;
                Err(transient())
            });
        assert!(result.is_err());
        assert_eq!(calls, 1, "deadline forbade the first retry");
    }

    #[test]
    fn none_policy_makes_one_attempt() {
        let mut calls = 0;
        let (result, retries): (IoResult<()>, u32) =
            RetryPolicy::none().run(None, &Journal::disabled(), "io", || {
                calls += 1;
                Err(transient())
            });
        assert!(result.is_err());
        assert_eq!((calls, retries), (1, 0));
    }

    #[test]
    fn journaled_run_emits_retry_and_gave_up_events() {
        use reprocmp_obs::ObsClock;
        let clock = SimClock::new();
        let journal = Journal::new(ObsClock::frozen());
        let p = RetryPolicy::with_attempts(3);
        let mut calls = 0;
        let (result, retries): (IoResult<()>, u32) = p.run(Some(&clock), &journal, "io.w0", || {
            calls += 1;
            Err(transient())
        });
        assert!(result.is_err());
        assert_eq!(retries, 2);
        let events = journal.events();
        let retry_events: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Retry { .. }))
            .collect();
        assert_eq!(retry_events.len(), 2);
        assert!(retry_events.iter().all(|e| e.lane == "io.w0"));
        assert!(matches!(
            events.last().unwrap().kind,
            EventKind::GaveUp { attempts: 3 }
        ));
        // Backoff in the event matches what was actually charged.
        let charged: u64 = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Retry { backoff_ns, .. } => Some(backoff_ns),
                _ => None,
            })
            .sum();
        assert_eq!(u128::from(charged), clock.now().as_nanos());
    }

    #[test]
    fn journaled_run_with_disabled_journal_matches_run() {
        let clock = SimClock::new();
        let journal = Journal::disabled();
        let p = RetryPolicy::with_attempts(4);
        let mut calls = 0;
        let (result, retries) = p.run(Some(&clock), &journal, "io", || {
            calls += 1;
            if calls < 2 {
                Err(transient())
            } else {
                Ok(7)
            }
        });
        assert_eq!(result.unwrap(), 7);
        assert_eq!(retries, 1);
        assert!(journal.events().is_empty());
    }

    #[test]
    fn counters_snapshot_and_merge() {
        let c = RingCounters::default();
        c.record_submitted(5);
        c.record_completed();
        c.record_retries(3);
        c.record_retries(0);
        c.record_gave_up();
        let s = c.snapshot();
        assert_eq!(
            s,
            RingStats {
                submitted: 5,
                completed: 1,
                retried: 3,
                gave_up: 1
            }
        );
        let m = s.merged(s);
        assert_eq!(m.submitted, 10);
        assert_eq!(m.gave_up, 2);
    }

    #[test]
    fn registered_counters_mirror_into_the_registry() {
        let registry = Registry::new();
        let c = RingCounters::registered(&registry, "io");
        c.record_submitted(4);
        c.record_completed();
        c.record_retries(2);
        c.record_gave_up();
        assert_eq!(registry.counter("io.submitted").get(), 4);
        assert_eq!(registry.counter("io.completed").get(), 1);
        assert_eq!(registry.counter("io.retried").get(), 2);
        assert_eq!(registry.counter("io.gave_up").get(), 1);
        // The snapshot still reads the same numbers through the legacy API.
        assert_eq!(
            c.snapshot(),
            RingStats {
                submitted: 4,
                completed: 1,
                retried: 2,
                gave_up: 1
            }
        );
        // Same prefix → same underlying counters.
        let c2 = RingCounters::registered(&registry, "io");
        c2.record_submitted(1);
        assert_eq!(c.snapshot().submitted, 5);
    }
}
