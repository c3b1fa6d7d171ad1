//! Per-tenant circuit breaker: repeated faults trip the circuit open so
//! a failing domain sheds load instead of grinding every caller through
//! the same failure. Once the cooldown has passed the circuit is
//! half-open: requests are admitted again, and the first outcome recorded
//! re-closes it (the domain proved healthy) or reopens it.

use std::time::{Duration, Instant};

/// Breaker state machine: `Closed → Open → HalfOpen → {Closed, Open}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; faults are counted.
    Closed,
    /// Tripped: every request is rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed: every request is admitted as a probe until the
    /// first outcome is recorded, which decides between `Closed` and
    /// another `Open` round. Admission does not stop at one: a request
    /// that ends without an outcome (deadline, degraded mode, a bad
    /// request) would otherwise hold the only probe slot.
    HalfOpen,
}

/// The circuit breaker proper.
#[derive(Debug)]
pub struct Breaker {
    threshold: u32,
    cooldown: Duration,
    consecutive: u32,
    state: BreakerState,
    opened_at: Option<Instant>,
    trips: u64,
}

impl Breaker {
    /// A breaker tripping after `threshold` consecutive faults, cooling
    /// down for `cooldown` before it goes half-open.
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        Breaker {
            threshold: threshold.max(1),
            cooldown,
            consecutive: 0,
            state: BreakerState::Closed,
            opened_at: None,
            trips: 0,
        }
    }

    /// Admission check. `Ok(())` admits the request — an open circuit
    /// whose cooldown has passed goes half-open, and a half-open one
    /// admits every request until an outcome is recorded;
    /// `Err(retry_after_ms)` means the circuit is open.
    pub fn check(&mut self, now: Instant) -> Result<(), u32> {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => Ok(()),
            BreakerState::Open => {
                let opened = self.opened_at.unwrap_or(now);
                let elapsed = now.duration_since(opened);
                if elapsed >= self.cooldown {
                    self.state = BreakerState::HalfOpen;
                    Ok(())
                } else {
                    let left = self.cooldown - elapsed;
                    Err(left.as_millis().min(60_000) as u32)
                }
            }
        }
    }

    /// Records a successful operation: closes a half-open circuit and
    /// clears the consecutive-fault count.
    pub fn record_ok(&mut self) {
        self.consecutive = 0;
        self.state = BreakerState::Closed;
        self.opened_at = None;
    }

    /// Records a fault. A half-open probe failing — or the consecutive
    /// count reaching the threshold — trips the circuit open.
    pub fn record_fault(&mut self, now: Instant) {
        self.consecutive = self.consecutive.saturating_add(1);
        let probe_failed = self.state == BreakerState::HalfOpen;
        if probe_failed || self.consecutive >= self.threshold {
            if self.state != BreakerState::Open {
                self.trips += 1;
            }
            self.state = BreakerState::Open;
            self.opened_at = Some(now);
            self.consecutive = 0;
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_and_recovers_via_probe() {
        let mut b = Breaker::new(3, Duration::from_millis(100));
        let t0 = Instant::now();
        assert!(b.check(t0).is_ok());
        b.record_fault(t0);
        b.record_fault(t0);
        assert!(b.check(t0).is_ok(), "below threshold stays closed");
        b.record_fault(t0);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.check(t0).is_err(), "open circuit rejects");
        assert_eq!(b.trips(), 1);

        // Cooldown elapses: the circuit admits again.
        let t1 = t0 + Duration::from_millis(150);
        assert!(b.check(t1).is_ok());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_ok();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens() {
        let mut b = Breaker::new(1, Duration::from_millis(50));
        let t0 = Instant::now();
        b.record_fault(t0);
        assert_eq!(b.state(), BreakerState::Open);
        let t1 = t0 + Duration::from_millis(60);
        assert!(b.check(t1).is_ok());
        b.record_fault(t1);
        assert_eq!(b.state(), BreakerState::Open, "failed probe reopens");
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn half_open_admits_every_request_until_the_first_outcome() {
        let mut b = Breaker::new(1, Duration::from_millis(50));
        let t0 = Instant::now();
        b.record_fault(t0);
        let t1 = t0 + Duration::from_millis(60);
        assert!(b.check(t1).is_ok());
        assert!(b.check(t1).is_ok(), "a second request is admitted too");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // The first outcome decides: one fault reopens the circuit.
        b.record_fault(t1);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.check(t1).is_err());
    }

    #[test]
    fn successes_reset_consecutive_count() {
        let mut b = Breaker::new(2, Duration::from_millis(50));
        let t0 = Instant::now();
        b.record_fault(t0);
        b.record_ok();
        b.record_fault(t0);
        assert_eq!(b.state(), BreakerState::Closed, "non-consecutive faults");
    }
}
