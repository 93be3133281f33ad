//! Phase-2 scheduling for sharded parallel ingestion: whole-shard work
//! units and per-worker queues with stealing.
//!
//! [`ShardedReliable`](crate::concurrent::ShardedReliable) ingests in two
//! phases: workers first partition the stream into per-shard batch
//! buffers, then the buffers are applied shard by shard. The apply phase
//! is where skew hurts — a Zipf stream routes its rank-1 key's entire
//! mass to one shard, so one *work unit* can dwarf every other and the
//! worker holding it becomes the critical path. This module schedules
//! that phase:
//!
//! * a [`WorkUnit`] is one whole shard's batch set (shard index +
//!   item-count weight). Units are **never split**: a unit is applied by
//!   exactly one worker, in stream order, so the resulting sketch is
//!   bit-identical to a sequential replay no matter which worker ran it
//!   — scheduling freedom without giving up determinism;
//! * [`run_work_stealing`] seeds per-worker queues (heaviest unit first,
//!   a classic LPT ordering), lets each owner drain its own queue, and
//!   lets idle workers steal the heaviest still-pending unit above a
//!   `steal_threshold` from any other queue.
//!
//! The makespan story, quantitatively: with `w` workers and per-shard
//! loads `L₁ ≥ L₂ ≥ …`, any whole-shard schedule is lower-bounded by
//! `max(L₁, ΣLᵢ/w)`. Static ticket order can degrade toward
//! `Σ/w + L₁` when the hot shard is drawn late; heaviest-first queues
//! with stealing are classic LPT, whose makespan is within `4/3 − 1/(3w)`
//! of that lower bound. See `docs/CONCURRENCY.md` for the full model.
//!
//! # Examples
//!
//! Four units, two workers, one deliberately heavy unit — stealing keeps
//! both workers busy and every unit runs exactly once:
//!
//! ```
//! use rsk_core::schedule::{run_work_stealing, WorkUnit};
//! use std::sync::atomic::{AtomicU32, Ordering};
//!
//! let units = [
//!     WorkUnit { shard: 0, weight: 10_000 },
//!     WorkUnit { shard: 1, weight: 10 },
//!     WorkUnit { shard: 2, weight: 10 },
//!     WorkUnit { shard: 3, weight: 10 },
//! ];
//! let owners = [0, 0, 1, 1];
//! let runs = [(); 4].map(|_| AtomicU32::new(0));
//! let stats = run_work_stealing(&units, &owners, 2, 0, |u| {
//!     runs[u].fetch_add(1, Ordering::Relaxed);
//! });
//! assert_eq!(stats.executed, 4);
//! assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// One whole-shard apply job: the unit of scheduling (and of stealing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkUnit {
    /// Index of the shard this unit applies.
    pub shard: usize,
    /// Scheduling weight — the number of stream items routed to the
    /// shard (known exactly after phase 1).
    pub weight: usize,
}

/// Counters from one scheduled apply phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StealStats {
    /// Units applied (always `units.len()`: exactly-once execution).
    pub executed: usize,
    /// Units that ran on a worker other than their initial owner.
    pub steals: u64,
}

/// Run every unit exactly once over `n_workers` scoped threads with
/// whole-unit stealing.
///
/// `owners[i]` is the worker initially holding `units[i]` (taken modulo
/// `n_workers`); each worker drains its own queue heaviest-first, then
/// steals the heaviest still-unclaimed unit of weight ≥ `steal_threshold`
/// from other queues until none qualifies. Pending units *below* the
/// threshold are never migrated — their owner applies them on its own
/// pass, so the threshold trades balance against cache/NUMA locality
/// without ever stranding work.
///
/// `apply(i)` is invoked exactly once per unit index, from whichever
/// worker claimed it. Claims are a single `AtomicBool::swap`, so the
/// exactly-once guarantee holds under any interleaving.
///
/// # Panics
/// Panics if `owners.len() != units.len()`.
pub fn run_work_stealing<F>(
    units: &[WorkUnit],
    owners: &[usize],
    n_workers: usize,
    steal_threshold: usize,
    apply: F,
) -> StealStats
where
    F: Fn(usize) + Sync,
{
    assert_eq!(owners.len(), units.len(), "one initial owner per work unit");
    if units.is_empty() {
        return StealStats::default();
    }
    // Clamp BEFORE building the queues: owners are taken modulo the
    // worker count that actually spawns, so no unit can land on a queue
    // without a live owner (a sub-threshold unit on an ownerless queue
    // would strand — thieves skip it by design).
    let n_workers = n_workers.clamp(1, units.len());

    // Seed the queues: heaviest unit first (LPT order), unit index as a
    // deterministic tie-break.
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); n_workers];
    for (i, &owner) in owners.iter().enumerate() {
        queues[owner % n_workers].push(i);
    }
    for q in &mut queues {
        q.sort_by_key(|&i| (core::cmp::Reverse(units[i].weight), i));
    }

    let claimed: Vec<AtomicBool> = units.iter().map(|_| AtomicBool::new(false)).collect();
    let steals = AtomicU64::new(0);
    // first claim wins; everyone else sees `true` and moves on
    let claim = |i: usize| !claimed[i].swap(true, Ordering::AcqRel);

    std::thread::scope(|scope| {
        for w in 0..n_workers {
            let queues = &queues;
            let claimed = &claimed;
            let steals = &steals;
            let apply = &apply;
            scope.spawn(move || {
                // Own queue: the owner visits every unit, so nothing it
                // holds can be stranded by the steal threshold.
                for &i in &queues[w] {
                    if claim(i) {
                        apply(i);
                    }
                }
                // Steal phase: take the heaviest eligible pending unit
                // anywhere; re-scan after a lost race, stop when nothing
                // above the threshold remains.
                loop {
                    let mut best: Option<usize> = None;
                    for off in 1..n_workers {
                        for &i in &queues[(w + off) % n_workers] {
                            if units[i].weight >= steal_threshold
                                && !claimed[i].load(Ordering::Acquire)
                                && best.is_none_or(|b| units[i].weight > units[b].weight)
                            {
                                best = Some(i);
                            }
                        }
                    }
                    match best {
                        Some(i) if claim(i) => {
                            steals.fetch_add(1, Ordering::Relaxed);
                            apply(i);
                        }
                        Some(_) => continue, // lost the race; look again
                        None => break,
                    }
                }
            });
        }
    });

    StealStats {
        executed: units.len(),
        steals: steals.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Condvar, Mutex};

    fn unit(shard: usize, weight: usize) -> WorkUnit {
        WorkUnit { shard, weight }
    }

    #[test]
    fn every_unit_runs_exactly_once() {
        for workers in [1usize, 2, 3, 8, 17] {
            let units: Vec<WorkUnit> = (0..29).map(|s| unit(s, (s * 37) % 11)).collect();
            let owners: Vec<usize> = (0..29).map(|s| s % 5).collect();
            let runs: Vec<AtomicUsize> = (0..29).map(|_| AtomicUsize::new(0)).collect();
            let stats = run_work_stealing(&units, &owners, workers, 0, |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(stats.executed, 29);
            for (i, r) in runs.iter().enumerate() {
                assert_eq!(
                    r.load(Ordering::Relaxed),
                    1,
                    "unit {i} at {workers} workers"
                );
            }
        }
    }

    /// Regression: with more workers requested than units, owners can
    /// name worker indexes beyond the spawned range. Those queues must
    /// fold onto live workers — a sub-threshold unit on an ownerless
    /// queue would otherwise strand (thieves skip it by design).
    #[test]
    fn owners_beyond_spawned_workers_never_strand_units() {
        let units = [unit(0, 1), unit(1, 1)];
        let owners = [5usize, 7]; // both ≥ the 2 workers that can spawn
        let runs: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        // threshold far above every weight: stealing alone cannot save them
        let stats = run_work_stealing(&units, &owners, 8, 1_000, |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(stats.executed, 2);
        for r in &runs {
            assert_eq!(r.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let stats = run_work_stealing(&[], &[], 4, 0, |_| panic!("no units to apply"));
        assert_eq!(stats, StealStats::default());
        // more workers than units: extra workers spawn nothing
        let ran = AtomicUsize::new(0);
        let stats = run_work_stealing(&[unit(0, 1)], &[0], 64, 0, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!((stats.executed, ran.into_inner()), (1, 1));
    }

    /// Deterministic steal scenario: worker 0 owns every unit and its
    /// first (heaviest) unit *blocks* until the other three units have
    /// run — only worker 1 can run them, by stealing.
    #[test]
    fn idle_worker_steals_pending_units() {
        let units = [unit(0, 100), unit(1, 10), unit(2, 10), unit(3, 10)];
        let owners = [0usize, 0, 0, 0];
        let done = Mutex::new(0usize);
        let cv = Condvar::new();
        let stats = run_work_stealing(&units, &owners, 2, 0, |i| {
            if i == 0 {
                // heaviest unit: whichever worker claims it blocks here,
                // so the other three units can only finish on the OTHER
                // worker — completing without timeout proves cross-thread
                // progress
                let guard = done.lock().unwrap();
                let (_g, timeout) = cv
                    .wait_timeout_while(guard, std::time::Duration::from_secs(10), |d| *d < 3)
                    .unwrap();
                assert!(!timeout.timed_out(), "light units were never stolen");
            } else {
                *done.lock().unwrap() += 1;
                cv.notify_all();
            }
        });
        // either owner 0 held unit 0 and worker 1 stole the three light
        // units, or worker 1 won the race for unit 0 (itself a steal) and
        // owner 0 drained its own queue — a steal is recorded either way
        assert!(stats.steals >= 1, "no cross-worker migration recorded");
    }

    #[test]
    fn threshold_keeps_small_units_with_their_owner() {
        // owner 0 holds one big and three tiny units; with a threshold
        // above the tiny weights, thieves may only take the big one
        let units = [unit(0, 5_000), unit(1, 3), unit(2, 3), unit(3, 3)];
        let owners = [0usize, 0, 0, 0];
        let by: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(usize::MAX)).collect();
        let stats = run_work_stealing(&units, &owners, 4, 100, |i| {
            by[i].store(thread_ordinal(), Ordering::Relaxed);
        });
        assert_eq!(stats.executed, 4);
        assert!(stats.steals <= 1, "only the 5_000-weight unit is stealable");
        // the tiny units all ran on one thread (their owner's pass)
        let owner_thread = by[1].load(Ordering::Relaxed);
        assert_eq!(by[2].load(Ordering::Relaxed), owner_thread);
        assert_eq!(by[3].load(Ordering::Relaxed), owner_thread);
    }

    /// A stable per-thread ordinal for asserting "same thread ran these".
    fn thread_ordinal() -> usize {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        h.finish() as usize
    }

    #[test]
    #[should_panic(expected = "one initial owner per work unit")]
    fn owner_arity_mismatch_panics() {
        run_work_stealing(&[unit(0, 1)], &[], 2, 0, |_| {});
    }
}
