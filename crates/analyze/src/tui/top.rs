//! The live daemon telemetry viewer (`reprocmp top`).
//!
//! [`TopView`] is a state machine over a history of
//! [`TelemetrySnapshot`]s — the daemon's sampled queue, worker, store,
//! and metric-registry state. `h`/`l` move the snapshot cursor through
//! history, `t` toggles between the overview pane and the registry
//! histogram pane, `q` quits. Like the divergence explorer, rendering
//! is `state → String` on the deterministic [`Frame`] buffer, so every
//! frame `reprocmp top` ever shows is snapshot-testable byte-for-byte
//! (`--keys` replays a whole session without a terminal).

use reprocmp_obs::telemetry::TelemetrySnapshot;

use crate::tui::explorer::{FRAME_HEIGHT, FRAME_WIDTH};
use crate::tui::frame::Frame;

/// Which pane fills the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopPane {
    /// Queue, jobs, store, journal, and per-worker utilization.
    Overview,
    /// Registry histograms as log2-bucket sparklines, plus counters
    /// and gauges.
    Histograms,
}

/// Top viewer state: snapshot history, cursor, pane, quit flag.
#[derive(Debug, Clone)]
pub struct TopView {
    history: Vec<TelemetrySnapshot>,
    cursor: usize,
    view: TopPane,
    quit: bool,
}

impl TopView {
    /// Builds a viewer over an existing history; the cursor starts on
    /// the newest snapshot.
    #[must_use]
    pub fn new(history: Vec<TelemetrySnapshot>) -> Self {
        let cursor = history.len().saturating_sub(1);
        TopView {
            history,
            cursor,
            view: TopPane::Overview,
            quit: false,
        }
    }

    /// Appends a freshly arrived snapshot. A cursor parked on the
    /// newest snapshot follows the tail (live mode); a cursor moved
    /// back into history stays put so the user can keep reading.
    pub fn push(&mut self, snapshot: TelemetrySnapshot) {
        let at_tail = self.history.is_empty() || self.cursor + 1 == self.history.len();
        self.history.push(snapshot);
        if at_tail {
            self.cursor = self.history.len() - 1;
        }
    }

    /// Number of snapshots held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// True when no snapshot has arrived yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// True once `q` was pressed.
    #[must_use]
    pub fn quit_requested(&self) -> bool {
        self.quit
    }

    /// Applies one keypress: `h`/`l` move the cursor, `t` toggles the
    /// pane, `q` quits; anything else is ignored.
    pub fn handle_key(&mut self, key: char) {
        match key {
            'h' => self.cursor = self.cursor.saturating_sub(1),
            'l' if self.cursor + 1 < self.history.len() => self.cursor += 1,
            't' => {
                self.view = match self.view {
                    TopPane::Overview => TopPane::Histograms,
                    TopPane::Histograms => TopPane::Overview,
                };
            }
            'q' => self.quit = true,
            _ => {}
        }
    }

    /// Renders the current state to a frame string — a pure function
    /// of state, identical across runs.
    #[must_use]
    pub fn render(&self) -> String {
        let mut f = Frame::new(FRAME_WIDTH, FRAME_HEIGHT);
        f.draw_box(0, 0, FRAME_WIDTH, FRAME_HEIGHT);
        let title = match self.view {
            TopPane::Overview => " reprocmp top — overview ",
            TopPane::Histograms => " reprocmp top — histograms ",
        };
        f.put_str(2, 0, title);
        let status = match self.history.get(self.cursor) {
            Some(s) => format!(
                " seq {} [{}/{}] ",
                s.seq,
                self.cursor + 1,
                self.history.len()
            ),
            None => " no telemetry yet ".to_owned(),
        };
        f.put_str(2, FRAME_HEIGHT - 1, &status);
        f.put_str(
            FRAME_WIDTH - 24,
            FRAME_HEIGHT - 1,
            " h/l move · t view · q ",
        );
        if let Some(s) = self.history.get(self.cursor) {
            match self.view {
                TopPane::Overview => render_overview(&mut f, s),
                TopPane::Histograms => render_histograms(&mut f, s),
            }
        }
        f.render()
    }

    /// Renders the initial frame, then one frame per key until the
    /// script ends or `q` is pressed. Whitespace in the script is
    /// ignored, so scripts can be written readably (`"h h t q"`).
    pub fn play(&mut self, script: &str) -> Vec<String> {
        let mut frames = vec![self.render()];
        for key in script.chars().filter(|c| !c.is_whitespace()) {
            if self.quit {
                break;
            }
            self.handle_key(key);
            frames.push(self.render());
        }
        frames
    }
}

/// Fixed-width utilization bar: `busy / (busy + idle)` as filled
/// cells. All-idle (or all-zero, e.g. under a frozen clock) renders
/// as an empty bar — deterministic either way.
fn busy_bar(busy_ns: u64, idle_ns: u64, width: usize) -> String {
    let total = busy_ns.saturating_add(idle_ns);
    // Round to the nearest cell without floating point; an all-zero
    // total divides to None and renders empty.
    let filled = busy_ns
        .saturating_mul(width as u64)
        .saturating_add(total / 2)
        .checked_div(total)
        .map_or(0, |cells| {
            usize::try_from(cells).unwrap_or(width).min(width)
        });
    let mut bar = String::with_capacity(width);
    for i in 0..width {
        bar.push(if i < filled { '█' } else { '·' });
    }
    bar
}

fn render_overview(f: &mut Frame, s: &TelemetrySnapshot) {
    let x = 3;
    // Lines must stop short of the right border at FRAME_WIDTH - 1.
    let fit = FRAME_WIDTH - 1 - x - 1;
    let q = &s.queue;
    let drain = if q.shutting_down { " · draining" } else { "" };
    f.put_str(
        x,
        2,
        &truncate(
            &format!(
                "queue    depth {}/{} · in-flight {} · admitted {} · refused {}{}",
                q.queued, q.capacity, q.in_flight, q.admitted, q.refused, drain
            ),
            fit,
        ),
    );
    let j = &s.jobs;
    f.put_str(
        x,
        3,
        &format!(
            "jobs     queued {} · running {} · done {} · failed {}",
            j.queued, j.running, j.done, j.failed
        ),
    );
    let st = &s.store;
    f.put_str(
        x,
        4,
        &format!(
            "store    objects {} · packs {} · bytes {} → {}",
            st.objects, st.packs, st.bytes_logical, st.bytes_physical
        ),
    );
    f.put_str(
        x,
        5,
        &format!(
            "         deduped {} · garbage {} · pack files {} B",
            st.bytes_deduped, st.bytes_garbage, st.pack_file_bytes
        ),
    );
    let l = &s.journal;
    f.put_str(
        x,
        6,
        &format!(
            "journal  emitted {} · written {} · dropped {}",
            l.events_emitted, l.events_written, l.events_dropped
        ),
    );
    f.put_str(x, 8, "worker   jobs      busy");
    let rows = FRAME_HEIGHT - 1 - 9; // body rows left below the header
    for (i, w) in s.workers.iter().take(rows).enumerate() {
        f.put_str(
            x,
            9 + i,
            &format!(
                "w{:<7} {:<9} {}",
                w.worker,
                w.jobs_executed,
                busy_bar(w.busy_ns, w.idle_ns, 24)
            ),
        );
    }
    if s.workers.len() > rows {
        f.put_str(
            x,
            9 + rows - 1,
            &format!("… +{} more", s.workers.len() - rows),
        );
    }
}

fn render_histograms(f: &mut Frame, s: &TelemetrySnapshot) {
    let x = 3;
    let mut y = 2;
    f.put_str(
        x,
        y,
        "histogram        count    p50      p95      buckets(log2)",
    );
    y += 1;
    for h in &s.registry.histograms {
        if y >= FRAME_HEIGHT - 2 {
            break;
        }
        let snap = &h.histogram;
        let max = snap.buckets.iter().map(|b| b.count).max().unwrap_or(0);
        let spark: String = snap
            .buckets
            .iter()
            .map(|b| {
                crate::tui::widgets::ramp_char(if max == 0 {
                    0.0
                } else {
                    b.count as f64 / max as f64
                })
            })
            .collect();
        f.put_str(
            x,
            y,
            &format!(
                "{:<16} {:<8} {:<8} {:<8} {}",
                truncate(&h.name, 16),
                snap.count,
                snap.p50,
                snap.p95,
                spark
            ),
        );
        y += 1;
    }
    y += 1;
    for c in &s.registry.counters {
        if y >= FRAME_HEIGHT - 2 {
            break;
        }
        f.put_str(
            x,
            y,
            &format!("counter  {:<20} {}", truncate(&c.name, 20), c.value),
        );
        y += 1;
    }
    for g in &s.registry.gauges {
        if y >= FRAME_HEIGHT - 2 {
            break;
        }
        f.put_str(
            x,
            y,
            &format!("gauge    {:<20} {}", truncate(&g.name, 20), g.value),
        );
        y += 1;
    }
}

fn truncate(name: &str, max: usize) -> String {
    if name.chars().count() <= max {
        name.to_owned()
    } else {
        let head: String = name.chars().take(max - 1).collect();
        format!("{head}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reprocmp_obs::metrics::Registry;
    use reprocmp_obs::telemetry::{
        JobStateCounts, QueueTelemetry, StoreTelemetry, WorkerTelemetry,
    };

    fn cursor_seq(v: &TopView) -> Option<u64> {
        v.history.get(v.cursor).map(|s| s.seq)
    }

    fn snapshot(seq: u64) -> TelemetrySnapshot {
        let registry = Registry::new();
        registry.counter("jobs.done").add(seq * 2);
        let h = registry.histogram("job.cost");
        for v in [1u64, 2, 3, 700 + seq] {
            h.record(v);
        }
        TelemetrySnapshot {
            seq,
            ts_ns: seq * 1_000_000,
            queue: QueueTelemetry {
                capacity: 8,
                queued: 2,
                in_flight: 1,
                admitted: seq + 3,
                refused: 1,
                shutting_down: false,
            },
            workers: vec![
                WorkerTelemetry {
                    worker: 0,
                    jobs_executed: seq,
                    busy_ns: 750,
                    idle_ns: 250,
                },
                WorkerTelemetry {
                    worker: 1,
                    jobs_executed: 0,
                    busy_ns: 0,
                    idle_ns: 0,
                },
            ],
            jobs: JobStateCounts {
                queued: 2,
                running: 1,
                done: seq,
                failed: 0,
            },
            store: StoreTelemetry {
                objects: 4,
                packs: 2,
                bytes_logical: 40960,
                bytes_physical: 12288,
                bytes_deduped: 28672,
                bytes_garbage: 0,
                pack_file_bytes: 12800,
            },
            registry: reprocmp_obs::metrics::RegistrySnapshot {
                gauges: vec![reprocmp_obs::metrics::MetricValue {
                    name: "drr.lanes".into(),
                    value: 3,
                }],
                ..registry.snapshot()
            },
            ..TelemetrySnapshot::default()
        }
    }

    fn view() -> TopView {
        TopView::new((1..=3).map(snapshot).collect())
    }

    #[test]
    fn cursor_starts_on_the_newest_snapshot_and_keys_navigate() {
        let mut v = view();
        assert_eq!(cursor_seq(&v), Some(3));
        v.handle_key('h');
        assert_eq!(cursor_seq(&v), Some(2));
        v.handle_key('h');
        v.handle_key('h'); // clamped at the start
        assert_eq!(cursor_seq(&v), Some(1));
        v.handle_key('l');
        assert_eq!(cursor_seq(&v), Some(2));
        assert!(!v.quit_requested());
        v.handle_key('q');
        assert!(v.quit_requested());
    }

    #[test]
    fn push_follows_the_tail_only_when_parked_on_it() {
        let mut v = view();
        v.push(snapshot(4));
        assert_eq!(cursor_seq(&v), Some(4), "tail cursor follows new data");
        v.handle_key('h');
        v.push(snapshot(5));
        assert_eq!(cursor_seq(&v), Some(3), "history cursor stays put");
    }

    #[test]
    fn frames_are_byte_identical_across_renders() {
        let v = view();
        assert_eq!(v.render(), v.render());
        assert_eq!(v.render(), view().render());
    }

    #[test]
    fn overview_shows_queue_store_and_worker_panes() {
        let frame = view().render();
        assert!(frame.contains("reprocmp top — overview"));
        assert!(frame.contains("queue    depth 2/8"));
        assert!(frame.contains("store    objects 4"));
        assert!(frame.contains("w0"));
        assert!(frame.contains("█"), "busy worker renders a filled bar");
    }

    #[test]
    fn histogram_pane_shows_sparklines_counters_and_gauges() {
        let mut v = view();
        v.handle_key('t');
        let frame = v.render();
        assert!(frame.contains("reprocmp top — histograms"));
        assert!(frame.contains("job.cost"));
        assert!(frame.contains("counter  jobs.done"));
        assert!(frame.contains("gauge    drr.lanes"));
    }

    #[test]
    fn play_emits_one_frame_per_key_and_stops_on_quit() {
        let frames = view().play("t q h h");
        assert_eq!(frames.len(), 3);
        assert!(frames[0].contains("overview"));
        assert!(frames[1].contains("histograms"));
    }

    #[test]
    fn every_frame_fits_the_fixed_geometry() {
        let mut v = view();
        for frame in v.play("h h t l l t q") {
            assert_eq!(frame.lines().count(), FRAME_HEIGHT);
            for line in frame.lines() {
                assert!(line.chars().count() <= FRAME_WIDTH);
            }
        }
    }

    #[test]
    fn empty_history_renders_a_placeholder() {
        let v = TopView::new(Vec::new());
        assert!(v.is_empty());
        assert!(v.render().contains("no telemetry yet"));
    }
}
