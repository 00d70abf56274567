//! The admission-controlled, deficit-round-robin job queue.
//!
//! # Admission control
//!
//! The queue bounds *in-flight* jobs — queued **plus** executing —
//! at a fixed capacity. [`JobQueue::enqueue`] never blocks: when the
//! bound is reached it returns [`AdmitError::Backpressure`]
//! immediately, and the client retries (the wire layer surfaces it as
//! a `rejected` frame). A job stops counting against the bound only
//! when a worker calls [`JobQueue::finish`] after executing it, so
//! capacity is a true concurrency/backlog bound, not just a buffer
//! size. Once admitted, a job is *never* dropped: it is handed to
//! exactly one [`JobQueue::pop`] caller, even across shutdown (drain
//! semantics).
//!
//! # Fairness: deficit round robin
//!
//! Each client has its own FIFO; active clients sit in a round-robin
//! ring. On each visit to the ring head the client's *deficit* grows
//! by one quantum; jobs are served while the head job's cost fits the
//! deficit, then the client rotates to the tail. Costs let one
//! client's huge ingests coexist with another's cheap compares: the
//! big job waits, accumulating quantum, while small jobs from other
//! clients keep flowing — classic DRR, so each client's long-run
//! share of service is cost-proportional and, with equal costs, the
//! pop order is an exact round robin (the oracle suite proves both).
//!
//! All waiting/serving bookkeeping uses logical *ticks* (one per pop)
//! rather than wall time, so fairness properties are deterministic
//! and provable under any thread interleaving.

use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};

/// Why [`JobQueue::enqueue`] refused a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The in-flight bound is reached; retry after jobs finish.
    Backpressure {
        /// Jobs currently in flight (queued + executing).
        in_flight: usize,
        /// The configured bound.
        capacity: usize,
    },
    /// The queue is shutting down; no new jobs are admitted.
    ShuttingDown,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Backpressure {
                in_flight,
                capacity,
            } => write!(
                f,
                "queue full: {in_flight}/{capacity} jobs in flight; retry later"
            ),
            AdmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// One admitted job as handed to a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedJob {
    /// The id the caller supplied at enqueue.
    pub id: u64,
    /// Owning client (fairness key).
    pub client: String,
    /// DRR cost charged for this job.
    pub cost: u64,
    /// Pop tick at which the job was admitted (ticks advance one per
    /// pop), for wait accounting.
    pub enqueued_tick: u64,
    /// Pop tick at which the job was served.
    pub served_tick: u64,
}

#[derive(Debug, Default)]
struct ClientLane {
    jobs: VecDeque<(u64, u64, u64)>, // (id, cost, enqueued_tick)
    deficit: u64,
    /// Whether the current head visit already granted this lane its
    /// quantum (cleared when the lane rotates away).
    charged: bool,
}

#[derive(Debug)]
struct QueueState {
    lanes: BTreeMap<String, ClientLane>,
    ring: VecDeque<String>,
    in_flight: usize,
    queued: usize,
    ticks: u64,
    admitted: u64,
    refused: u64,
    shutting_down: bool,
}

/// A point-in-time reading of the queue's pressure counters, taken
/// atomically under the queue lock (the telemetry sampler's view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// The admission bound.
    pub capacity: usize,
    /// Jobs admitted but not yet served.
    pub queued: usize,
    /// Jobs counting against the bound (queued + executing).
    pub in_flight: usize,
    /// Jobs admitted since the queue was created (monotonic).
    pub admitted: u64,
    /// Jobs refused — backpressure or shutdown — since creation
    /// (monotonic).
    pub refused: u64,
    /// Whether admission has stopped.
    pub shutting_down: bool,
}

/// The shared queue. All methods take `&self`; share behind an `Arc`.
#[derive(Debug)]
pub struct JobQueue {
    state: Mutex<QueueState>,
    wake: Condvar,
    capacity: usize,
    quantum: u64,
}

impl JobQueue {
    /// A queue admitting at most `capacity` in-flight jobs, serving
    /// `quantum` cost units per client per round-robin visit.
    #[must_use]
    pub fn new(capacity: usize, quantum: u64) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                lanes: BTreeMap::new(),
                ring: VecDeque::new(),
                in_flight: 0,
                queued: 0,
                ticks: 0,
                admitted: 0,
                refused: 0,
                shutting_down: false,
            }),
            wake: Condvar::new(),
            capacity: capacity.max(1),
            quantum: quantum.max(1),
        }
    }

    /// The admission bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admits one job for `client`, or refuses without blocking.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Backpressure`] at the in-flight bound;
    /// [`AdmitError::ShuttingDown`] after [`JobQueue::shutdown`].
    pub fn enqueue(&self, client: &str, id: u64, cost: u64) -> Result<(), AdmitError> {
        let mut s = self.state.lock();
        if s.shutting_down {
            s.refused += 1;
            return Err(AdmitError::ShuttingDown);
        }
        if s.in_flight >= self.capacity {
            s.refused += 1;
            return Err(AdmitError::Backpressure {
                in_flight: s.in_flight,
                capacity: self.capacity,
            });
        }
        s.in_flight += 1;
        s.queued += 1;
        s.admitted += 1;
        let tick = s.ticks;
        let lane = s.lanes.entry(client.to_owned()).or_default();
        let was_idle = lane.jobs.is_empty();
        lane.jobs.push_back((id, cost.max(1), tick));
        if was_idle {
            s.ring.push_back(client.to_owned());
        }
        drop(s);
        self.wake.notify_one();
        Ok(())
    }

    /// Serves the next job by DRR order, blocking while the queue is
    /// empty. Returns `None` only when the queue is shut down *and*
    /// fully drained — an admitted job is never dropped.
    pub fn pop(&self) -> Option<QueuedJob> {
        let mut s = self.state.lock();
        loop {
            if let Some(job) = Self::pop_locked(&mut s, self.quantum) {
                return Some(job);
            }
            if s.shutting_down {
                return None;
            }
            self.wake.wait(&mut s);
        }
    }

    /// Non-blocking [`JobQueue::pop`]: `None` when nothing is queued
    /// right now (regardless of shutdown state).
    pub fn try_pop(&self) -> Option<QueuedJob> {
        Self::pop_locked(&mut self.state.lock(), self.quantum)
    }

    fn pop_locked(s: &mut QueueState, quantum: u64) -> Option<QueuedJob> {
        // Each ring visit grants at most one quantum; with every lane
        // gaining `quantum ≥ 1` per visit, any finite-cost head job is
        // eventually served — no starvation, no deadlock.
        loop {
            let client = s.ring.front()?.clone();
            let lane = s.lanes.get_mut(&client).expect("ring lanes exist");
            if lane.jobs.is_empty() {
                // Exhausted lanes leave the ring and forfeit their
                // leftover deficit (keeping it would let an idle
                // client burst later — that's credit for *not*
                // queuing, the opposite of fairness).
                lane.deficit = 0;
                lane.charged = false;
                s.ring.pop_front();
                continue;
            }
            if !lane.charged {
                lane.deficit = lane.deficit.saturating_add(quantum);
                lane.charged = true;
            }
            let (_, cost, _) = *lane.jobs.front().expect("non-empty");
            if lane.deficit >= cost {
                let (id, cost, enqueued_tick) = lane.jobs.pop_front().expect("non-empty");
                lane.deficit -= cost;
                if lane.jobs.is_empty() {
                    lane.deficit = 0;
                    lane.charged = false;
                    s.ring.pop_front();
                }
                s.queued -= 1;
                let served_tick = s.ticks;
                s.ticks += 1;
                return Some(QueuedJob {
                    id,
                    client,
                    cost,
                    enqueued_tick,
                    served_tick,
                });
            }
            // Head job doesn't fit the deficit yet: rotate, keep the
            // accumulated deficit, and re-charge on the next visit.
            lane.charged = false;
            s.ring.rotate_left(1);
        }
    }

    /// Marks one served job as executed, releasing its admission slot.
    pub fn finish(&self) {
        let mut s = self.state.lock();
        s.in_flight = s.in_flight.saturating_sub(1);
        drop(s);
        // Admission headroom opened; nothing waits on it internally,
        // but poppers blocked on an empty queue are unaffected.
    }

    /// Stops admission. Already-admitted jobs keep flowing to poppers;
    /// once the backlog is drained, [`JobQueue::pop`] returns `None`.
    pub fn shutdown(&self) {
        self.state.lock().shutting_down = true;
        self.wake.notify_all();
    }

    /// All pressure counters in one consistent reading.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        let s = self.state.lock();
        QueueStats {
            capacity: self.capacity,
            queued: s.queued,
            in_flight: s.in_flight,
            admitted: s.admitted,
            refused: s.refused,
            shutting_down: s.shutting_down,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_cost_jobs_are_served_in_exact_round_robin() {
        let q = JobQueue::new(1024, 4);
        // Three clients, four jobs each, all enqueued before any pop.
        for c in ["a", "b", "c"] {
            for j in 0..4u64 {
                q.enqueue(c, j, 4).unwrap();
            }
        }
        let mut order = Vec::new();
        while let Some(job) = q.try_pop() {
            order.push((job.client, job.id));
            q.finish();
        }
        assert_eq!(
            order,
            vec![
                ("a".to_owned(), 0),
                ("b".to_owned(), 0),
                ("c".to_owned(), 0),
                ("a".to_owned(), 1),
                ("b".to_owned(), 1),
                ("c".to_owned(), 1),
                ("a".to_owned(), 2),
                ("b".to_owned(), 2),
                ("c".to_owned(), 2),
                ("a".to_owned(), 3),
                ("b".to_owned(), 3),
                ("c".to_owned(), 3),
            ]
        );
    }

    #[test]
    fn expensive_job_accumulates_quantum_while_cheap_jobs_flow() {
        let q = JobQueue::new(1024, 2);
        q.enqueue("big", 0, 6).unwrap(); // needs 3 ring visits
        for j in 0..4u64 {
            q.enqueue("small", j, 1).unwrap();
        }
        let mut order = Vec::new();
        while let Some(job) = q.try_pop() {
            order.push((job.client, job.id));
        }
        // `big` is served after enough visits, not starved and not
        // hogging: smalls interleave ahead of it.
        let big_pos = order.iter().position(|(c, _)| c == "big").unwrap();
        assert!(big_pos >= 2, "big waits for deficit: {order:?}");
        assert_eq!(order.len(), 5, "nothing dropped");
    }

    #[test]
    fn backpressure_at_capacity_and_release_on_finish() {
        let q = JobQueue::new(2, 1);
        q.enqueue("a", 0, 1).unwrap();
        q.enqueue("a", 1, 1).unwrap();
        assert!(matches!(
            q.enqueue("a", 2, 1),
            Err(AdmitError::Backpressure {
                in_flight: 2,
                capacity: 2
            })
        ));
        let job = q.try_pop().unwrap();
        assert_eq!(job.id, 0);
        // Still in flight until finished: admission stays closed.
        assert!(q.enqueue("a", 2, 1).is_err());
        q.finish();
        q.enqueue("a", 2, 1).unwrap();
    }

    #[test]
    fn stats_count_admissions_and_refusals() {
        let q = JobQueue::new(2, 1);
        q.enqueue("a", 0, 1).unwrap();
        q.enqueue("a", 1, 1).unwrap();
        let _ = q.enqueue("a", 2, 1); // backpressure
        let s = q.stats();
        assert_eq!((s.admitted, s.refused), (2, 1));
        assert_eq!((s.queued, s.in_flight), (2, 2));
        assert!(!s.shutting_down);
        q.shutdown();
        let _ = q.enqueue("a", 3, 1); // refused: shutting down
        let s = q.stats();
        assert_eq!((s.admitted, s.refused), (2, 2));
        assert!(s.shutting_down);
    }

    #[test]
    fn shutdown_drains_admitted_jobs_then_returns_none() {
        let q = JobQueue::new(8, 1);
        for j in 0..3u64 {
            q.enqueue("a", j, 1).unwrap();
        }
        q.shutdown();
        assert!(matches!(
            q.enqueue("a", 9, 1),
            Err(AdmitError::ShuttingDown)
        ));
        let mut served = Vec::new();
        while let Some(job) = q.pop() {
            served.push(job.id);
        }
        assert_eq!(served, vec![0, 1, 2], "drained in order, none dropped");
    }
}
