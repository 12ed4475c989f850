//! Capped exponential backoff for transient storage faults.
//!
//! The recovery policy distinguishes *transient* faults (a read interrupted by a
//! signal, an injected `io_transient` failpoint) from *permanent* ones (disk full,
//! checksum mismatch). Only the former are worth retrying; [`RetryPolicy::run`]
//! encodes that: it re-invokes the operation while [`crate::error::DfError::is_transient`]
//! holds,
//! sleeping `base * 2^attempt` capped at `max` between attempts. The backoff
//! schedule is fully deterministic (no jitter) and the sleeper is injectable, so
//! tests assert the exact schedule against a recording clock instead of wall time.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::error::DfResult;

type Sleeper = Arc<dyn Fn(Duration) + Send + Sync>;

/// Retry policy for transient I/O faults: bounded attempts, deterministic capped
/// exponential backoff, injectable sleep.
#[derive(Clone)]
pub struct RetryPolicy {
    max_attempts: u32,
    base_delay: Duration,
    max_delay: Duration,
    sleeper: Sleeper,
}

impl fmt::Debug for RetryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RetryPolicy")
            .field("max_attempts", &self.max_attempts)
            .field("base_delay", &self.base_delay)
            .field("max_delay", &self.max_delay)
            .finish_non_exhaustive()
    }
}

impl Default for RetryPolicy {
    /// Three attempts, 2ms base delay, 50ms cap, real sleep.
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(50),
            sleeper: Arc::new(std::thread::sleep),
        }
    }
}

impl RetryPolicy {
    /// The backoff delay applied after attempt `attempt` (0-based) fails.
    pub(crate) fn delay_for(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base_delay
            .checked_mul(factor)
            .map_or(self.max_delay, |d| d.min(self.max_delay))
    }

    /// Run `op` until it succeeds, fails permanently, or exhausts the attempt
    /// budget. `op` receives the 0-based attempt number.
    pub fn run<T>(&self, mut op: impl FnMut(u32) -> DfResult<T>) -> DfResult<T> {
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Err(err) if err.is_transient() && attempt + 1 < self.max_attempts => {
                    (self.sleeper)(self.delay_for(attempt));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DfError;
    use std::sync::Mutex;

    fn transient() -> DfError {
        DfError::spill_io("spill.read", "flaky", true)
    }

    #[test]
    fn retries_transient_until_success_with_deterministic_backoff() {
        let slept: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let record = Arc::clone(&slept);
        let policy = RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(25),
            sleeper: Arc::new(move |d| record.lock().unwrap().push(d)),
        };

        let result = policy.run(|attempt| {
            if attempt < 3 {
                Err(transient())
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(result, Ok(3));
        // 10ms, 20ms, then capped at 25ms — exact and repeatable.
        assert_eq!(
            *slept.lock().unwrap(),
            vec![
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(25)
            ]
        );
    }

    #[test]
    fn permanent_errors_and_exhaustion_surface_immediately() {
        let policy = RetryPolicy {
            sleeper: Arc::new(|_| {}),
            ..RetryPolicy::default()
        };

        let mut calls = 0;
        let corrupt: DfResult<()> = policy.run(|_| {
            calls += 1;
            Err(DfError::spill_corruption("spill.read", "bad checksum"))
        });
        assert!(matches!(corrupt, Err(DfError::SpillCorruption { .. })));
        assert_eq!(calls, 1, "corruption is never retried");

        let mut calls = 0;
        let exhausted: DfResult<()> = policy.run(|_| {
            calls += 1;
            Err(transient())
        });
        assert!(matches!(
            exhausted,
            Err(DfError::SpillIo {
                transient: true,
                ..
            })
        ));
        assert_eq!(calls, 3, "attempt budget is honoured");

        let none = RetryPolicy {
            max_attempts: 1,
            ..policy
        };
        let mut calls = 0;
        let _ = none.run(|_| -> DfResult<()> {
            calls += 1;
            Err(transient())
        });
        assert_eq!(calls, 1);
    }
}
