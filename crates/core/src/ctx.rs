//! The one context every comparison entry point takes.

use reprocmp_io::Timeline;
use reprocmp_obs::Observer;

/// What an operation's phases are timed on and recorded into.
///
/// `Ctx::default()` is wall-clock timing with the observer off. A
/// modeled run swaps the timeline,
/// `Ctx { timeline: Timeline::sim(clock), ..Ctx::default() }`; a traced
/// run also sets `obs: timeline.observer()`, so span timestamps share
/// the phase timers' clock.
#[derive(Debug)]
pub struct Ctx {
    /// The clock phase durations are measured on: wall, or the virtual
    /// clock the sources charge.
    pub timeline: Timeline,
    /// Where spans, metrics and flight-recorder events go.
    pub obs: Observer,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx {
            timeline: Timeline::wall(),
            obs: Observer::disabled(),
        }
    }
}
