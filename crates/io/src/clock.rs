//! Virtual and wall-clock time sources.
//!
//! All storage backends charge their modeled costs against a shared
//! [`SimClock`]; the comparison engine reads phase durations from a
//! [`Timeline`], which is either that virtual clock or the real one.
//! Using virtual time makes every experiment deterministic and lets a
//! laptop reproduce the *shape* of numbers measured on a Lustre file
//! system.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared, monotonically advancing virtual clock.
///
/// Cloning is cheap; clones observe and advance the same instant.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Arc<Mutex<Duration>>,
}

impl SimClock {
    /// A clock starting at zero.
    #[must_use]
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Duration {
        *self.now.lock()
    }

    /// Advances the clock by `d` and returns the new time.
    pub fn advance(&self, d: Duration) -> Duration {
        let mut now = self.now.lock();
        *now += d;
        *now
    }
}

/// A time source for measuring phase durations: either wall-clock or a
/// [`SimClock`].
#[derive(Debug, Clone)]
pub enum Timeline {
    /// Real time, anchored at construction.
    Wall(Instant),
    /// Virtual time from the simulated storage stack.
    Sim(SimClock),
}

impl Timeline {
    /// A wall-clock timeline anchored now.
    #[must_use]
    pub fn wall() -> Self {
        Timeline::Wall(Instant::now())
    }

    /// A timeline that reads the given virtual clock.
    #[must_use]
    pub fn sim(clock: SimClock) -> Self {
        Timeline::Sim(clock)
    }

    /// Elapsed time since the anchor (wall) or the virtual now (sim).
    #[must_use]
    pub fn now(&self) -> Duration {
        match self {
            Timeline::Wall(start) => start.elapsed(),
            Timeline::Sim(clock) => clock.now(),
        }
    }

    /// An observability clock reading this timeline, for stamping
    /// tracing spans on the same time base the engine measures phases
    /// on (virtual under simulation, wall otherwise).
    #[must_use]
    pub fn obs_clock(&self) -> reprocmp_obs::ObsClock {
        let timeline = self.clone();
        reprocmp_obs::ObsClock::from_fn(move || timeline.now())
    }

    /// An enabled [`reprocmp_obs::Observer`] whose spans are stamped
    /// from this timeline.
    #[must_use]
    pub fn observer(&self) -> reprocmp_obs::Observer {
        reprocmp_obs::Observer::new(self.obs_clock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_and_is_shared() {
        let c = SimClock::new();
        let c2 = c.clone();
        c.advance(Duration::from_millis(5));
        assert_eq!(c2.now(), Duration::from_millis(5));
        c2.advance(Duration::from_millis(7));
        assert_eq!(c.now(), Duration::from_millis(12));
    }

    #[test]
    fn sim_timeline_reads_clock() {
        let c = SimClock::new();
        let t = Timeline::sim(c.clone());
        let before = t.now();
        c.advance(Duration::from_micros(250));
        assert_eq!(t.now() - before, Duration::from_micros(250));
    }

    #[test]
    fn wall_timeline_is_monotonic() {
        let t = Timeline::wall();
        let a = t.now();
        let b = t.now();
        assert!(b >= a);
    }

    #[test]
    fn obs_clock_tracks_the_timeline() {
        let c = SimClock::new();
        let obs = Timeline::sim(c.clone()).obs_clock();
        assert_eq!(obs.now(), Duration::ZERO);
        c.advance(Duration::from_millis(3));
        assert_eq!(obs.now(), Duration::from_millis(3));
    }

    #[test]
    fn observer_spans_are_stamped_in_virtual_time() {
        let c = SimClock::new();
        let obs = Timeline::sim(c.clone()).observer();
        {
            let _g = obs.tracer.span("phase");
            c.advance(Duration::from_micros(40));
        }
        let recs = obs.tracer.records();
        assert_eq!(recs[0].elapsed(), Duration::from_micros(40));
    }
}
