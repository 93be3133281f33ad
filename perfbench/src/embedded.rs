//! The `embedded` workload: the sequential sketch in-process, built
//! through `reliablesketch::builder()`, on the paper's many-key trace.

use std::time::{Duration, Instant};

use reliablesketch::core::ReliableSketch;
use reliablesketch::prelude::*;

use crate::proc::status_mib;
use crate::report::{Checks, Report};
use crate::stats::us;
use crate::trace::Recorder;
use crate::traffic::{datacenter, exact_counts};
use crate::Args;

/// Sketch memory: 4× one core's 2 MiB L2.
const MEMORY: usize = 8 << 20;
/// Error tolerance Λ.
pub const LAMBDA: u64 = 25;
/// Top-K slots, as every serve tenant has.
const TOPK: usize = 128;
/// Items per `insert_batch` call.
pub const CHUNK: usize = 2048;
/// Point queries per timed block (one clock read per block keeps the
/// clock's cost out of a ~100 ns query).
const BLOCK: usize = 64;
/// One top-K and one subpop call follow every this many batches, so
/// their samples spread over the whole run.
const QUERY_EVERY: usize = 8;
/// Sketch builds timed for `setup_s`.
const SETUP_REPS: usize = 31;

/// Build the sketch exactly as the workload does.
pub fn build() -> ReliableSketch<u64> {
    reliablesketch::builder()
        .memory_bytes(MEMORY)
        .error_tolerance(LAMBDA)
        .top_k(TOPK)
        .build_sequential::<u64>()
}

/// Run `embedded`: build, ingest every item in `CHUNK`-item batches
/// with a top-K and a subpop call after every `QUERY_EVERY` batches,
/// then query every distinct key once; repeat with a fresh sketch until
/// `--seconds` have passed. Every answer is checked against the exact
/// truth at the moment it was given.
pub fn run(args: &Args, rec: &mut Recorder) -> Report {
    let mut report = Report::default();
    // Set-up first, while the heap is still empty, so every run sees the
    // same sequence of fresh and reused pages. The first sketch lands in
    // fresh pages: its resident size is the sketch's memory.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut resident = 0.0;
    for i in 0..SETUP_REPS {
        let rss0 = status_mib("self", "VmRSS");
        let t = Instant::now();
        let sketch = build();
        setup.push(t.elapsed().as_secs_f64());
        if i == 0 {
            resident = status_mib("self", "VmRSS") - rss0;
        }
        drop(std::hint::black_box(sketch));
    }
    report.put_median("setup_s", &setup, "s");
    report.put("peak_rss_mib", resident, "MiB", 1);
    let items = datacenter(args.seed);
    let truth = exact_counts(&items);
    // Position of every item's key in `truth`, for running counts.
    let slot: Vec<u32> = items
        .iter()
        .map(|(k, _)| {
            truth
                .binary_search_by_key(k, |&(key, _)| key)
                .expect("key is in truth") as u32
        })
        .collect();
    let slot_of = |k: u64| truth.binary_search_by_key(&k, |&(key, _)| key).ok();
    let mut by_count: Vec<(u32, u64)> = truth
        .iter()
        .enumerate()
        .map(|(i, &(_, c))| (i as u32, c))
        .collect();
    by_count.sort_by_key(|&(i, c)| (std::cmp::Reverse(c), i));
    let hot: Vec<u32> = by_count.iter().take(64).map(|&(i, _)| i).collect();
    let hot_set = KeySet::explicit(hot.iter().map(|&i| truth[i as usize].0).collect());
    report.notes.push(format!(
        "DataCenter trace: {} items, {} distinct keys",
        items.len(),
        truth.len()
    ));

    let chunks = items.len().div_ceil(CHUNK);
    let mut chunk_us = Vec::with_capacity(chunks * 8);
    let mut block_us = Vec::with_capacity(truth.len().div_ceil(BLOCK) * 8);
    let mut topk_us = Vec::with_capacity(chunks);
    let mut subpop_us = Vec::with_capacity(chunks);
    let mut ingest_rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut checks = Checks::default();
    let mut answers: Vec<Estimate> = vec![Estimate::exact(0); truth.len()];
    let mut running = vec![0u64; truth.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rep = 0u64;
    // At least two reps, so a traced run has one untraced and one traced.
    while rep < 2 || Instant::now() < deadline {
        // A traced run alternates untraced and traced reps; their
        // ingest rates give the tracing overhead.
        let mut lane = rec.lane(10 + rep, rep % 2 == 1);
        let root = lane.open();
        let rep_start = Instant::now();
        running.iter_mut().for_each(|c| *c = 0);
        let mut sketch = build();

        let mut busy = Duration::ZERO;
        for (n, (chunk, slots)) in items.chunks(CHUNK).zip(slot.chunks(CHUNK)).enumerate() {
            let c = Instant::now();
            sketch.insert_batch(chunk);
            let at = Instant::now();
            busy += at - c;
            chunk_us.push(us(at - c));
            lane.record(root, "sketch.insert_batch", c, at);
            checks.attempted += 1;
            for (&i, &(_, v)) in slots.iter().zip(chunk) {
                running[i as usize] += v;
            }
            if n % QUERY_EVERY != QUERY_EVERY - 1 {
                continue;
            }
            let c = Instant::now();
            let top = sketch.certified_top_k(TOPK);
            let at = Instant::now();
            topk_us.push(us(at - c));
            lane.record(root, "sketch.top_k", c, at);
            let c = Instant::now();
            let weight = sketch.subpopulation_weight(&hot_set);
            let at = Instant::now();
            subpop_us.push(us(at - c));
            lane.record(root, "sketch.subpop", c, at);

            checks.attempted += 2;
            checks.topk_replies += 1;
            let mut failed = false;
            for e in &top.entries {
                checks.topk_entries += 1;
                let t = slot_of(e.key).map_or(0, |i| running[i]);
                if !e.contains(t) {
                    checks.topk_misses += 1;
                    failed = true;
                }
            }
            // Running counts never exceed final ones, so the scan can
            // stop at the first key whose final count is under the floor.
            let floor = top.guaranteed_floor();
            for &(i, _) in by_count.iter().take_while(|&&(_, c)| c > floor) {
                let k = truth[i as usize].0;
                if running[i as usize] > floor && !top.entries.iter().any(|e| e.key == k) {
                    checks.topk_recall_misses += 1;
                    failed = true;
                }
            }
            checks.topk_failed += u64::from(failed);
            checks.subpops += 1;
            let want: u64 = hot.iter().map(|&i| running[i as usize]).sum();
            checks.subpop_misses += u64::from(!weight.contains(want));
        }
        let rate = items.len() as f64 / busy.as_secs_f64() / 1e6;
        if lane.on() {
            traced_rates.push(rate);
        } else {
            ingest_rates.push(rate);
        }

        for (block, out) in truth.chunks(BLOCK).zip(answers.chunks_mut(BLOCK)) {
            let b = Instant::now();
            for (&(k, _), slot) in block.iter().zip(out.iter_mut()) {
                *slot = sketch.query_with_error(&k);
            }
            let at = Instant::now();
            block_us.push(us(at - b) / block.len() as f64);
            lane.record(root, "sketch.query_block", b, at);
        }
        lane.close(root, 0, "rep", rep_start);
        rec.absorb(lane);

        for (est, &(_, t)) in answers.iter().zip(&truth) {
            checks.attempted += 1;
            checks.points += 1;
            checks.point_misses += u64::from(!est.contains(t));
        }
        rep += 1;
    }

    report.put_median("ingest_mups", &ingest_rates, "M/s");
    report.put_dist("ingest_ack_p50_us", "ingest_ack_p99_us", &chunk_us, "us");
    report.put_dist("query_p50_us", "query_p99_us", &block_us, "us");
    report.put_dist("topk_p50_us", "topk_p99_us", &topk_us, "us");
    report.put_dist("subpop_p50_us", "subpop_p99_us", &subpop_us, "us");
    // The median block, not the mean rate of a rep: a rep is a few
    // hundred milliseconds of queries, and one preemption inside it
    // would move a whole-rep rate.
    let block_mops: Vec<f64> = block_us.iter().map(|us| 1.0 / us).collect();
    report.put_median("query_mops", &block_mops, "M/s");
    if !traced_rates.is_empty() {
        let traced = crate::stats::median(&traced_rates);
        let untraced = crate::stats::median(&ingest_rates);
        report.put(
            "trace.overhead_frac",
            1.0 - traced / untraced,
            "frac",
            rep as usize,
        );
    }
    report.notes.push(format!(
        "{rep} reps, untraced ingest rates, M/s: {}",
        ingest_rates
            .iter()
            .map(|r| format!("{r:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.checks.add(&checks);
    report
}
