//! A multi-process cluster simulator (the MPI-on-Polaris substitute).
//!
//! The paper's evaluation runs "four processes per node" over up to 128
//! nodes, each process comparing checkpoint pairs against a shared
//! parallel file system. This crate reproduces that execution shape on
//! one machine:
//!
//! * [`Cluster::run`] launches one thread per rank, arranged
//!   `nodes × procs_per_node`, and gathers per-rank results in rank
//!   order.
//! * [`RankCtx`] gives each rank its identity, barriers, point-to-point
//!   byte messaging, and collectives.
//! * [`RankCtx::allreduce_sum_f32`] reduces in a configurable
//!   [`ReduceOrder`] — rank order (deterministic) or a seeded shuffle
//!   (modelling nondeterministic reduction trees, a classic source of
//!   run-to-run divergence in MPI codes).
//! * Each *node* owns a shared [`SimClock`], so storage traffic from
//!   co-located ranks contends on the same virtual device while
//!   different nodes proceed independently — what makes the strong
//!   scaling study (Figure 10) meaningful.
//!
//! # Example
//!
//! ```
//! use reprocmp_cluster::{Cluster, ReduceOrder};
//!
//! let cluster = Cluster::new(2, 4); // 2 nodes × 4 ranks
//! let sums = cluster.run(|ctx| {
//!     let mine = ctx.rank() as f32 + 1.0;
//!     ctx.allreduce_sum_f32(mine, ReduceOrder::Ranked)
//! });
//! assert!(sums.iter().all(|&s| s == 36.0)); // 1+2+…+8
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use reprocmp_io::SimClock;
use std::sync::{Arc, Barrier};

/// The order collective reductions fold contributions in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOrder {
    /// Ascending rank order — bitwise reproducible.
    Ranked,
    /// Seeded pseudo-random order — models a nondeterministic
    /// reduction tree; two runs with different seeds may differ in the
    /// low bits of f32 results.
    Shuffled {
        /// Reduction-order seed for this run.
        seed: u64,
    },
}

impl ReduceOrder {
    fn order(&self, n: usize, salt: u64) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        if let ReduceOrder::Shuffled { seed } = self {
            // A tiny splitmix-based Fisher–Yates; no rand dependency.
            let mut s = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut next = move || {
                s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            for i in (1..n).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                idx.swap(i, j);
            }
        }
        idx
    }
}

/// Per-rank point-to-point channel endpoints.
type Mailbox = (Sender<Vec<u8>>, Receiver<Vec<u8>>);

#[derive(Debug)]
struct Shared {
    barrier: Barrier,
    f64_slots: Mutex<Vec<f64>>,
    f64_result: Mutex<f64>,
    node_clocks: Vec<SimClock>,
    mailboxes: Vec<Mailbox>,
}

/// A simulated cluster: `nodes × procs_per_node` ranks.
#[derive(Debug, Clone, Copy)]
pub struct Cluster {
    nodes: usize,
    procs_per_node: usize,
}

impl Cluster {
    /// A cluster of `nodes` nodes with `procs_per_node` ranks each.
    ///
    /// # Panics
    ///
    /// If either dimension is zero.
    #[must_use]
    pub fn new(nodes: usize, procs_per_node: usize) -> Self {
        assert!(nodes > 0 && procs_per_node > 0, "empty cluster");
        Cluster {
            nodes,
            procs_per_node,
        }
    }

    /// Total rank count.
    #[must_use]
    pub fn size(&self) -> usize {
        self.nodes * self.procs_per_node
    }

    /// Runs `f` once per rank on its own thread; returns per-rank
    /// results in rank order.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(RankCtx) -> T + Sync,
    {
        let size = self.size();
        let shared = Arc::new(Shared {
            barrier: Barrier::new(size),
            f64_slots: Mutex::new(vec![0.0; size]),
            f64_result: Mutex::new(0.0),
            node_clocks: (0..self.nodes).map(|_| SimClock::new()).collect(),
            mailboxes: (0..size).map(|_| unbounded()).collect(),
        });

        let ppn = self.procs_per_node;
        let mut out: Vec<Option<T>> = (0..size).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (rank, slot) in out.iter_mut().enumerate() {
                let shared = Arc::clone(&shared);
                let f = &f;
                scope.spawn(move || {
                    let ctx = RankCtx {
                        rank,
                        size,
                        node: rank / ppn,
                        collective_count: std::cell::Cell::new(0),
                        shared,
                    };
                    *slot = Some(f(ctx));
                });
            }
        });
        out.into_iter()
            .map(|v| v.expect("every rank completed"))
            .collect()
    }
}

/// One rank's handle to the cluster.
#[derive(Debug)]
pub struct RankCtx {
    rank: usize,
    size: usize,
    node: usize,
    collective_count: std::cell::Cell<u64>,
    shared: Arc<Shared>,
}

impl RankCtx {
    /// This rank's global id, `0..size`.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total rank count.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The virtual storage clock shared by all ranks on this node.
    #[must_use]
    pub fn node_clock(&self) -> SimClock {
        self.shared.node_clocks[self.node].clone()
    }

    /// Blocks until every rank has arrived.
    pub fn barrier(&self) {
        self.shared.barrier.wait();
    }

    fn next_salt(&self) -> u64 {
        // Collectives execute in lockstep across ranks, so each rank's
        // private call count is the same global collective index —
        // deterministic, with no shared state to race on.
        let salt = self.collective_count.get() + 1;
        self.collective_count.set(salt);
        salt
    }

    /// All-reduce sum of one `f32` per rank, folding in `order` order;
    /// every rank receives the same result.
    #[must_use]
    pub fn allreduce_sum_f32(&self, value: f32, order: ReduceOrder) -> f32 {
        let salt = self.next_salt();
        self.shared.f64_slots.lock()[self.rank] = f64::from(value);
        self.barrier();
        if self.rank == 0 {
            let slots = self.shared.f64_slots.lock();
            let mut acc = 0.0f32;
            for i in order.order(self.size, salt) {
                acc += slots[i] as f32;
            }
            *self.shared.f64_result.lock() = f64::from(acc);
        }
        self.barrier();
        let result = *self.shared.f64_result.lock() as f32;
        self.barrier();
        result
    }

    /// Sends a byte message to `to` (buffered, non-blocking).
    ///
    /// # Panics
    ///
    /// If `to` is out of range.
    pub fn send(&self, to: usize, bytes: Vec<u8>) {
        self.shared.mailboxes[to]
            .0
            .send(bytes)
            .expect("receiver rank alive for the duration of run()");
    }

    /// Receives the next byte message addressed to this rank,
    /// blocking until one arrives.
    #[must_use]
    pub fn recv(&self) -> Vec<u8> {
        self.shared.mailboxes[self.rank]
            .1
            .recv()
            .expect("senders alive for the duration of run()")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_is_exposed_correctly() {
        let cluster = Cluster::new(3, 4);
        assert_eq!(cluster.size(), 12);
        let ids = cluster.run(|ctx| (ctx.rank(), ctx.node));
        for (rank, &(r, n)) in ids.iter().enumerate() {
            assert_eq!(r, rank);
            assert_eq!(n, rank / 4);
        }
    }

    #[test]
    fn allreduce_sum_is_correct_and_uniform() {
        let cluster = Cluster::new(2, 3);
        let results =
            cluster.run(|ctx| ctx.allreduce_sum_f32(ctx.rank() as f32, ReduceOrder::Ranked));
        assert!(results.iter().all(|&v| v == 15.0)); // 0+1+..+5
    }

    #[test]
    fn repeated_collectives_do_not_interfere() {
        let cluster = Cluster::new(2, 2);
        let results = cluster.run(|ctx| {
            let a = ctx.allreduce_sum_f32(1.0, ReduceOrder::Ranked);
            let b = ctx.allreduce_sum_f32(2.0, ReduceOrder::Ranked);
            let c = ctx.allreduce_sum_f32(ctx.rank() as f32, ReduceOrder::Shuffled { seed: 3 });
            (a, b, c)
        });
        for &(a, b, c) in &results {
            assert_eq!(a, 4.0);
            assert_eq!(b, 8.0);
            assert_eq!(c, 6.0);
        }
    }

    #[test]
    fn shuffled_reduction_changes_f32_bits_sometimes() {
        // Values with mixed magnitudes so ordering matters.
        let contribution = |rank: usize| ((rank * 2654435761) % 1000) as f32 * 1e-3 + 1.0;
        let run = |order: ReduceOrder| {
            let cluster = Cluster::new(8, 4);
            cluster.run(move |ctx| ctx.allreduce_sum_f32(contribution(ctx.rank()), order))[0]
        };
        let ranked = run(ReduceOrder::Ranked);
        let mut any_diff = false;
        for seed in 0..20 {
            let shuffled = run(ReduceOrder::Shuffled { seed });
            assert!((f64::from(ranked) - f64::from(shuffled)).abs() < 1e-3);
            if shuffled.to_bits() != ranked.to_bits() {
                any_diff = true;
            }
        }
        assert!(any_diff, "32-way f32 reduction order never mattered");
    }

    #[test]
    fn same_shuffle_seed_is_reproducible() {
        let contribution = |rank: usize| (rank as f32).sin();
        let run = || {
            let cluster = Cluster::new(4, 4);
            cluster.run(move |ctx| {
                ctx.allreduce_sum_f32(contribution(ctx.rank()), ReduceOrder::Shuffled { seed: 5 })
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn point_to_point_ring() {
        let cluster = Cluster::new(1, 4);
        let results = cluster.run(|ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            ctx.send(next, vec![ctx.rank() as u8]);
            ctx.recv()
        });
        // Rank r receives from r-1.
        assert_eq!(results, vec![vec![3], vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn node_clocks_shared_within_node_distinct_across() {
        let cluster = Cluster::new(2, 2);
        let results = cluster.run(|ctx| {
            // Local rank 0 advances its node clock; after the barrier,
            // everyone reports what they see.
            if ctx.rank % 2 == 0 {
                ctx.node_clock()
                    .advance(std::time::Duration::from_millis(ctx.node as u64 + 1));
            }
            ctx.barrier();
            ctx.node_clock().now().as_millis() as u64
        });
        assert_eq!(results, vec![1, 1, 2, 2]);
    }

    #[test]
    fn large_cluster_runs_to_completion() {
        let cluster = Cluster::new(32, 4); // 128 ranks — the paper's max
        let results = cluster.run(|ctx| ctx.allreduce_sum_f32(1.0, ReduceOrder::Ranked));
        assert!(results.iter().all(|&v| v == 128.0));
    }

    #[test]
    #[should_panic(expected = "empty cluster")]
    fn zero_nodes_rejected() {
        let _ = Cluster::new(0, 4);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn mixed_collectives_in_lockstep() {
        let cluster = Cluster::new(2, 2);
        let results = cluster.run(|ctx| {
            let total = ctx.allreduce_sum_f32(1.0, ReduceOrder::Shuffled { seed: 9 });
            let sum = ctx.allreduce_sum_f32(ctx.rank() as f32, ReduceOrder::Ranked);
            ctx.send((ctx.rank() + 1) % ctx.size(), vec![ctx.rank() as u8]);
            ctx.barrier();
            (total, sum, ctx.recv())
        });
        for (rank, (total, sum, from)) in results.iter().enumerate() {
            assert_eq!(*total, 4.0);
            assert_eq!(*sum, 6.0);
            assert_eq!(from, &vec![((rank + 3) % 4) as u8]);
        }
    }

    #[test]
    fn many_messages_between_ranks_fifo_per_sender() {
        let cluster = Cluster::new(1, 2);
        let results = cluster.run(|ctx| {
            if ctx.rank() == 0 {
                for k in 0..50u8 {
                    ctx.send(1, vec![k]);
                }
                Vec::new()
            } else {
                (0..50).map(|_| ctx.recv()[0]).collect::<Vec<u8>>()
            }
        });
        assert_eq!(results[1], (0..50).collect::<Vec<u8>>());
    }
}
