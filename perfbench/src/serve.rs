//! The two serve workloads: `ingest-shared` (two closed-loop writers on
//! one tenant) and `read-mix` (an open-loop writer beside a closed-loop
//! reader). Both drive a separate `rsk-serve` process over loopback.

use std::collections::VecDeque;
use std::io::ErrorKind;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::time::{Duration, Instant};

use reliablesketch::api::CertifiedWeight;
use reliablesketch::api::KeySet;
use rsk_serve::protocol::{ErrorCode, Request, Response};
use rsk_serve::{CertifiedAnswer, StatsReply, SubpopAnswer, TopKAnswer};

use crate::proc::{cpu_seconds, set_up, status_mib, steal_seconds, Conn, Server};
use crate::report::{Checks, Report};
use crate::stats::{supported_percentile, us};
use crate::trace::Recorder;
use crate::traffic::{
    self, derive, frame, hottest, Pool, Read, ReadKind, TENANT, TOPK_K, UNIVERSE,
};
use crate::truth::{
    self, check_topk, recall_order, Bracket, Extent, PoolTruth, SetTruth, Stream, View,
};
use crate::Args;

/// Per-generation memory of the tenant window (`--memory-kb`).
pub const MEMORY_KB: usize = 4096;
/// Server spawns per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;

/// Generator CPU above this share of the machine marks a run invalid:
/// the generator, not the server, would be the limit.
const MAX_GENERATOR_CPU: f64 = 0.75;

/// Counters read around a timed phase from outside the server.
struct Outside {
    pid: String,
    cpu: f64,
    own_cpu: f64,
    steal: f64,
    stats: StatsReply,
    at: Instant,
}

impl Outside {
    fn start(server: &Server, ctl: &mut Conn) -> Self {
        let pid = server.pid();
        Self {
            cpu: cpu_seconds(&pid),
            own_cpu: cpu_seconds("self"),
            steal: steal_seconds(),
            stats: ctl.stats().expect("stats before the timed phase"),
            at: Instant::now(),
            pid,
        }
    }

    /// Emit the server and generator counters for a phase that moved
    /// `updates` updates.
    fn finish(self, ctl: &mut Conn, updates: u64, report: &mut Report) {
        let wall = self.at.elapsed().as_secs_f64();
        let cores = crate::nproc() as f64;
        let cpu = cpu_seconds(&self.pid) - self.cpu;
        let own = cpu_seconds("self") - self.own_cpu;
        let steal = steal_seconds() - self.steal;
        report.notes.push(format!(
            "host steal {:.1}% of all cores during the timed phase",
            steal / (wall * cores) * 100.0
        ));
        let stats = ctl.stats().expect("stats after the timed phase");
        report.put(
            "server.cpu_us_per_kupdate",
            cpu * 1e6 / (updates.max(1) as f64 / 1e3),
            "us",
            1,
        );
        report.put("server.cpu_frac", cpu / (wall * cores), "frac", 1);
        report.put(
            "server.rejected_batches",
            (stats.rejected_batches - self.stats.rejected_batches) as f64,
            "count",
            1,
        );
        let gen = own / (wall * cores);
        report.put("loadgen.cpu_frac", gen, "frac", 1);
        if gen > MAX_GENERATOR_CPU {
            report.mark_invalid(format!(
                "generator used {:.0}% of the machine: it, not the server, set the pace",
                gen * 100.0
            ));
        }
        if stats.items_ingested - self.stats.items_ingested != updates {
            report.violations.push(format!(
                "server counted {} updates, the generator had {} acknowledged",
                stats.items_ingested - self.stats.items_ingested,
                updates
            ));
        }
    }
}

/// Classify a reply that is not the one asked for.
fn count_error(resp: &Response, checks: &mut Checks) {
    checks.errors += 1;
    if let Response::Error {
        code: ErrorCode::Malformed,
        ..
    } = resp
    {
        checks.malformed += 1;
    }
}

/// What one closed-loop writer did.
struct Writer {
    batches: u64,
    acked: u64,
    ack_us: Vec<f64>,
    lag_us: Vec<f64>,
    stalls: u64,
    checks: Checks,
    end: Instant,
    rec: Recorder,
}

/// Pipelined closed-loop ingest under a credit window: keep `window`
/// batches in flight until `deadline`, then drain. The pool is cycled
/// from batch `first` on.
fn closed_loop(
    mut conn: Conn,
    pool: &Pool,
    first: u64,
    window: usize,
    deadline: Instant,
    mut rec: Recorder,
    parent: u64,
) -> Writer {
    let mut out = Writer {
        batches: 0,
        acked: 0,
        ack_us: Vec::with_capacity(1 << 16),
        lag_us: Vec::with_capacity(1 << 16),
        stalls: 0,
        checks: Checks::default(),
        end: Instant::now(),
        rec: Recorder::new(false),
    };
    let mut inflight: VecDeque<Instant> = VecDeque::with_capacity(window);
    let mut freed: Option<Instant> = None;
    loop {
        let now = Instant::now();
        if now < deadline && inflight.len() < window {
            if let Some(at) = freed.take() {
                out.lag_us.push(us(now - at));
            }
            let i = (first + out.batches) as usize % pool.frames.len();
            conn.send(&pool.frames[i]).expect("send an ingest batch");
            inflight.push_back(now);
            out.batches += 1;
            out.checks.attempted += 1;
            continue;
        }
        let Some(&sent) = inflight.front() else { break };
        if now < deadline {
            out.stalls += 1;
        }
        let resp = conn.recv().expect("read an ingest ack");
        let at = Instant::now();
        inflight.pop_front();
        match resp {
            Response::IngestAck { accepted } => {
                out.acked += u64::from(accepted);
                out.ack_us.push(us(at - sent));
                rec.record(parent, "client.ingest_batch", sent, at);
            }
            other => count_error(&other, &mut out.checks),
        }
        freed = Some(at);
    }
    out.end = Instant::now();
    out.rec = rec;
    out
}

/// One read and what came back.
struct ReadRecord {
    kind: ReadKind,
    arg: u64,
    acked: u64,
    sent: u64,
    us: f64,
    done: Instant,
    reply: Response,
}

/// Reads per block of [`block_rates`]: three turns of the 20-read mix,
/// so every block holds the same reads, one of each subpop set among
/// them.
const READ_BLOCK: usize = 60;

/// Read rate (reads per second) of each block of [`READ_BLOCK`]
/// consecutive replies of one `read_loop`, from reply to reply. Their
/// median is the read throughput: a host stall stretches a few blocks
/// and leaves the median alone, where it would move a whole-phase rate.
fn block_rates(records: &[ReadRecord]) -> Vec<f64> {
    let ends: Vec<Instant> = records
        .iter()
        .skip(READ_BLOCK - 1)
        .step_by(READ_BLOCK)
        .map(|r| r.done)
        .collect();
    ends.windows(2)
        .map(|w| READ_BLOCK as f64 / (w[1] - w[0]).as_secs_f64())
        .collect()
}

/// Closed-loop reads with up to `depth` in flight, cycling through
/// `reads`, until `stop` says so. `acked` / `sent` are the writer's
/// running update counts.
#[allow(clippy::too_many_arguments)]
fn read_loop(
    conn: &mut Conn,
    reads: &[Read],
    mut stop: impl FnMut(usize) -> bool,
    depth: usize,
    acked: &AtomicU64,
    sent: &AtomicU64,
    rec: &mut Recorder,
    parent: u64,
) -> Vec<ReadRecord> {
    let mut out = Vec::with_capacity(1 << 16);
    let mut inflight: VecDeque<(usize, u64, Instant)> = VecDeque::with_capacity(depth);
    let mut i = 0usize;
    loop {
        while inflight.len() < depth && !stop(i) {
            let lo = acked.load(SeqCst);
            let t = Instant::now();
            conn.send(&reads[i % reads.len()].frame)
                .expect("send a read");
            inflight.push_back((i, lo, t));
            i += 1;
        }
        let Some((j, lo, t)) = inflight.pop_front() else {
            break;
        };
        let read = &reads[j % reads.len()];
        let reply = conn.recv().expect("read reply");
        let at = Instant::now();
        let hi = sent.load(SeqCst);
        rec.record(
            parent,
            match read.kind {
                ReadKind::Certified => "client.query",
                ReadKind::TopK => "client.topk",
                ReadKind::Subpop => "client.subpop",
            },
            t,
            at,
        );
        out.push(ReadRecord {
            kind: read.kind,
            arg: read.arg,
            acked: lo,
            sent: hi,
            us: us(at - t),
            done: at,
            reply,
        });
    }
    out
}

/// Latency samples by read kind.
#[derive(Default)]
struct ReadLatencies {
    query: Vec<f64>,
    topk: Vec<f64>,
    subpop: Vec<f64>,
}

/// What a reply is checked against.
enum Expect {
    /// A certified answer for this key.
    Point(u64),
    /// A top-K reply.
    TopK,
    /// A subset weight with this truth bracket.
    Subpop(Bracket),
}

/// Check one reply against its truth. A reply of the wrong kind is
/// counted as an error and `false` returned.
fn check_reply(
    reply: &Response,
    expect: Expect,
    view: &View,
    order: &[(u64, u64)],
    checks: &mut Checks,
) -> bool {
    checks.attempted += 1;
    match (reply, expect) {
        (
            &Response::Certified {
                value,
                max_possible_error,
                slack,
                epoch,
            },
            Expect::Point(key),
        ) => {
            checks.points += 1;
            let answer = CertifiedAnswer {
                value,
                max_possible_error,
                slack,
                epoch,
            };
            checks.point_misses += u64::from(!truth::point_ok(&answer, view.key(key)));
        }
        (
            Response::TopK {
                epoch,
                slack,
                floor,
                entries,
            },
            Expect::TopK,
        ) => {
            let answer = TopKAnswer {
                epoch: *epoch,
                slack: *slack,
                floor: *floor,
                entries: entries.clone(),
            };
            let v = check_topk(&answer, view, order);
            checks.topk_replies += 1;
            checks.topk_entries += v.entries;
            checks.topk_misses += v.entry_misses;
            checks.topk_recall_misses += v.recall_misses;
            checks.topk_failed += u64::from(v.entry_misses + v.recall_misses > 0);
        }
        (
            &Response::Subpop {
                estimate,
                lo,
                hi,
                slack,
                epoch,
            },
            Expect::Subpop(bracket),
        ) => {
            checks.subpops += 1;
            let answer = SubpopAnswer {
                weight: CertifiedWeight {
                    estimate,
                    lo,
                    hi,
                    slack,
                },
                epoch,
            };
            checks.subpop_misses += u64::from(!truth::subpop_ok(&answer, bracket));
        }
        (other, _) => {
            count_error(other, checks);
            return false;
        }
    }
    true
}

/// Check every read against its truth bracket. `extents` maps a
/// record and its reply's epoch to the writers' extents.
fn verify_reads(
    records: &[ReadRecord],
    streams: &[Stream],
    hot: &[u64],
    order: &[(u64, u64)],
    extents: impl Fn(&ReadRecord, u64) -> Vec<Extent>,
    checks: &mut Checks,
) -> ReadLatencies {
    let mut lat = ReadLatencies::default();
    for r in records {
        let ext = extents(r, reply_epoch(&r.reply).unwrap_or(0));
        let view = View {
            streams,
            extents: &ext,
        };
        let (expect, samples) = match r.kind {
            ReadKind::Certified => (Expect::Point(r.arg), &mut lat.query),
            ReadKind::TopK => (Expect::TopK, &mut lat.topk),
            ReadKind::Subpop => {
                let bracket = match r.arg {
                    0 | 1 => view.set(r.arg as usize),
                    _ => view.keys(hot),
                };
                (Expect::Subpop(bracket), &mut lat.subpop)
            }
        };
        if check_reply(&r.reply, expect, &view, order, checks) {
            samples.push(r.us);
        }
    }
    lat
}

/// First index of the [`traffic::decode_sets`] among a stream's sets.
const DECODE_SET: usize = 2;

/// The cycled pool with the read mix's range and mask predicates, then
/// the decode-path probe sets.
fn stream_of(pool: &Pool) -> Stream {
    let [range, mask, _] = traffic::subpop_sets(&[]);
    let sets = [range, mask]
        .into_iter()
        .chain(traffic::decode_sets())
        .map(|s| SetTruth::new(&pool.keys, |k| s.contains(k)))
        .collect();
    Stream {
        keys: PoolTruth::new(&pool.keys, UNIVERSE),
        sets,
    }
}

/// Probe the tenant's decode path once per [`traffic::decode_sets`]
/// predicate, on a tenant no writer is touching. `extents` maps a
/// reply's epoch to the writers' extents. The answers are checked like
/// any other, but their misses are a known defect of the program (the
/// decode interval can exclude the truth after concurrent ingest); they
/// are counted and printed apart from the run's verdict, and errors
/// still count as failures.
fn probe_decode(
    conn: &mut Conn,
    streams: &[Stream],
    order: &[(u64, u64)],
    extents: impl Fn(u64) -> Vec<Extent>,
    checks: &mut Checks,
) {
    for (i, set) in traffic::decode_sets().into_iter().enumerate() {
        let reply = conn
            .call(&frame(&Request::Subpop {
                tenant: TENANT,
                set,
            }))
            .expect("probe round trip");
        let ext = extents(reply_epoch(&reply).unwrap_or(0));
        let view = View {
            streams,
            extents: &ext,
        };
        let mut probe = Checks::default();
        let bracket = view.set(DECODE_SET + i);
        check_reply(&reply, Expect::Subpop(bracket), &view, order, &mut probe);
        checks.errors += probe.errors;
        checks.malformed += probe.malformed;
        checks.decode_probes += probe.subpops;
        checks.decode_misses += probe.subpop_misses;
    }
}

/// Read latencies, and `query_mops` as the median of untraced
/// [`block_rates`].
fn put_read_metrics(report: &mut Report, lat: &ReadLatencies, rates: &[f64]) {
    report.put_dist("query_p50_us", "query_p99_us", &lat.query, "us");
    report.put_dist("topk_p50_us", "topk_p99_us", &lat.topk, "us");
    report.put_dist("subpop_p50_us", "subpop_p99_us", &lat.subpop, "us");
    let mops: Vec<f64> = rates.iter().map(|r| r / 1e6).collect();
    report.put_median("query_mops", &mops, "M/s");
}

/// Items per `ingest-shared` batch.
const SHARED_BATCH: usize = 2048;
/// Credit window of each `ingest-shared` connection, in batches.
const SHARED_WINDOW: usize = 8;
/// Batches in each writer's pool (1 M updates).
const SHARED_POOL: usize = 512;
/// The timed ingest runs as this many segments, each on fresh
/// connections; `ingest_mups` is the median segment rate, so one
/// unlucky thread placement does not set the run's figure.
const SHARED_SEGMENTS: usize = 20;
/// Length of the post-ingest read phase, as a share of `--seconds`.
const IDLE_SHARE: f64 = 0.5;
/// Reads in flight on the reader connection of the post-ingest read
/// phase. One at a time, as in `read-mix`: deeper pipelines made the
/// read rate swing with the host's load (a spread of 0.1–0.27 between
/// seeds at 8 in flight, against 0.04 at 1).
const SETTLED_DEPTH: usize = 1;
/// Distinct reads in the post-ingest read cycle.
const IDLE_READS: usize = 1 << 16;
/// Certified probes of the post-ingest verify phase (`rsk-load`'s).
const VERIFY_PROBES: usize = 128;

/// The timed phase cut into `segments` equal parts, each with its
/// deadline. In a traced run the second half of the segments is traced
/// and the first is not; their difference is the tracing overhead.
fn phases(start: Instant, seconds: f64, segments: usize, traced: bool) -> Vec<(Instant, bool)> {
    let each = Duration::from_secs_f64(seconds / segments as f64);
    (1..=segments)
        .map(|i| (start + each * i as u32, traced && 2 * i > segments))
        .collect()
}

/// Run `ingest-shared`.
pub fn ingest_shared(args: &Args, rec: &mut Recorder) -> Report {
    let mut report = Report::default();
    let pools = [
        Pool::generate(derive(args.seed, 1), SHARED_POOL, SHARED_BATCH),
        Pool::generate(derive(args.seed, 2), SHARED_POOL, SHARED_BATCH),
    ];
    let both: Vec<u32> = pools[0]
        .keys
        .iter()
        .chain(&pools[1].keys)
        .copied()
        .collect();
    let hot64 = hottest(&both, 64);
    let reads = traffic::read_mix(
        derive(args.seed, 3),
        IDLE_READS,
        &traffic::subpop_sets(&hot64),
    );
    let streams: Vec<Stream> = pools.iter().map(stream_of).collect();
    let order = recall_order(&streams, UNIVERSE);

    let (server, setup) = set_up(&args.server_bin, MEMORY_KB, SETUP_REPS);
    report.put_median("setup_s", &setup, "s");
    let mut ctl = Conn::connect(server.addr()).expect("control connection");

    let outside = Outside::start(&server, &mut ctl);
    let t0 = Instant::now();
    let mut next = [0u64; 2];
    let mut writers: Vec<Writer> = Vec::new();
    let mut rates = Vec::new();
    for (phase, (deadline, traced)) in phases(t0, args.seconds, SHARED_SEGMENTS, rec.on())
        .into_iter()
        .enumerate()
    {
        let c0 = Conn::connect(server.addr()).expect("writer connection");
        let c1 = Conn::connect(server.addr()).expect("writer connection");
        let lane = 1 + 2 * phase as u64;
        let (l0, l1) = (rec.lane(lane, traced), rec.lane(lane + 1, traced));
        let root = if traced { rec.open() } else { 0 };
        let start = Instant::now();
        let (w0, w1) = std::thread::scope(|s| {
            let (p0, p1) = (&pools[0], &pools[1]);
            let (n0, n1) = (next[0], next[1]);
            let h = s.spawn(move || closed_loop(c1, p1, n1, SHARED_WINDOW, deadline, l1, root));
            let w0 = closed_loop(c0, p0, n0, SHARED_WINDOW, deadline, l0, root);
            (w0, h.join().expect("writer thread"))
        });
        if traced {
            rec.close(root, 0, "phase.ingest", start);
        }
        let end = w0.end.max(w1.end);
        rates.push((
            (w0.acked + w1.acked) as f64 / (end - start).as_secs_f64(),
            traced,
        ));
        next[0] += w0.batches;
        next[1] += w1.batches;
        writers.push(w0);
        writers.push(w1);
    }
    let acked: u64 = writers.iter().map(|w| w.acked).sum();
    outside.finish(&mut ctl, acked, &mut report);
    let untraced: Vec<f64> = rates.iter().filter(|r| !r.1).map(|r| r.0 / 1e6).collect();
    let traced: Vec<f64> = rates.iter().filter(|r| r.1).map(|r| r.0 / 1e6).collect();
    report.put_median("ingest_mups", &untraced, "M/s");
    report.notes.push(format!(
        "segment ingest rates, M/s: {}",
        rates
            .iter()
            .map(|r| format!("{:.2}", r.0 / 1e6))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if !traced.is_empty() {
        report.put(
            "trace.overhead_frac",
            1.0 - crate::stats::median(&traced) / crate::stats::median(&untraced),
            "frac",
            rates.len(),
        );
    }
    // The two writers are often served unevenly within a segment, which
    // splits the pooled ack latencies into two modes; the median of the
    // per-segment medians keeps one uneven segment from setting the figure.
    let segment_p50: Vec<f64> = writers
        .chunks(2)
        .filter_map(|pair| {
            let pooled: Vec<f64> = pair.iter().flat_map(|w| w.ack_us.iter().copied()).collect();
            supported_percentile(&pooled, 0.5)
        })
        .collect();
    report.put_median("ingest_ack_p50_us", &segment_p50, "us");
    let ack_us: Vec<f64> = writers
        .iter()
        .flat_map(|w| w.ack_us.iter().copied())
        .collect();
    match supported_percentile(&ack_us, 0.99) {
        Some(v) => report.put("ingest_ack_p99_us", v, "us", ack_us.len()),
        None => report.mark_invalid(format!(
            "ingest_ack_p99_us: {} samples are too few",
            ack_us.len()
        )),
    }

    let lag_us: Vec<f64> = writers
        .iter()
        .flat_map(|w| w.lag_us.iter().copied())
        .collect();
    put_lag(&mut report, &lag_us, None);
    let stalls: u64 = writers.iter().map(|w| w.stalls).sum();
    report.put("loadgen.stall_events", stalls as f64, "count", 1);
    let mut checks = Checks::default();
    for w in writers {
        checks.add(&w.checks);
        rec.absorb(w.rec);
    }

    // Untimed verify phase, then the post-ingest read phase, both
    // against exact truth: every ack has arrived and nothing seals.
    let settled = [
        Extent::settled(next[0] * SHARED_BATCH as u64),
        Extent::settled(next[1] * SHARED_BATCH as u64),
    ];
    let view = View {
        streams: &streams,
        extents: &settled,
    };
    let mut conn = Conn::connect(server.addr()).expect("verify connection");
    verify_settled(&mut conn, &view, &order, &mut checks);
    probe_decode(
        &mut conn,
        &streams,
        &order,
        |_| settled.to_vec(),
        &mut checks,
    );

    // One reader connection, driven from this thread.
    let fixed = AtomicU64::new(0);
    let root = rec.open();
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(args.seconds * IDLE_SHARE);
    let records = read_loop(
        &mut conn,
        &reads,
        |_| Instant::now() >= until,
        SETTLED_DEPTH,
        &fixed,
        &fixed,
        rec,
        root,
    );
    let rates = block_rates(&records);
    rec.close(root, 0, "phase.reads", start);
    if records
        .iter()
        .any(|r| reply_epoch(&r.reply).is_some_and(|e| e != 0))
    {
        report
            .violations
            .push("a reply reported an epoch no seal produced".into());
    }
    let lat = verify_reads(
        &records,
        &streams,
        &hot64,
        &order,
        |_, _| settled.to_vec(),
        &mut checks,
    );
    put_read_metrics(&mut report, &lat, &rates);
    report.put("peak_rss_mib", status_mib(&server.pid(), "VmHWM"), "MiB", 1);
    report.put(
        "server.malformed_frames",
        checks.malformed as f64,
        "count",
        1,
    );
    report.checks.add(&checks);
    drop(conn);
    drop(ctl);
    server.shutdown();
    report
}

fn reply_epoch(reply: &Response) -> Option<u64> {
    match reply {
        Response::Certified { epoch, .. }
        | Response::TopK { epoch, .. }
        | Response::Subpop { epoch, .. } => Some(*epoch),
        _ => None,
    }
}

/// `rsk-load`'s verify phase on a settled tenant: certified probes of
/// the hottest keys, one top-K, and its two explicit subpop shapes. Its
/// range and mask shapes take the decode path and are probed by
/// [`probe_decode`].
fn verify_settled(conn: &mut Conn, view: &View, order: &[(u64, u64)], checks: &mut Checks) {
    let hot: Vec<u64> = order.iter().take(VERIFY_PROBES).map(|&(k, _)| k).collect();
    let mut asks: Vec<(Request, Expect)> = hot
        .iter()
        .map(|&key| {
            (
                Request::QueryCertified {
                    tenant: TENANT,
                    key,
                },
                Expect::Point(key),
            )
        })
        .collect();
    asks.push((
        Request::TopK {
            tenant: TENANT,
            k: TOPK_K,
        },
        Expect::TopK,
    ));
    for (set, bracket) in [
        (KeySet::explicit(hot.clone()), view.keys(&hot)),
        (KeySet::explicit(Vec::new()), Bracket::exact(0)),
    ] {
        asks.push((
            Request::Subpop {
                tenant: TENANT,
                set,
            },
            Expect::Subpop(bracket),
        ));
    }
    for (req, expect) in asks {
        let reply = conn.call(&frame(&req)).expect("verify round trip");
        check_reply(&reply, expect, view, order, checks);
    }
}

/// Items per `read-mix` batch.
const MIX_BATCH: usize = 1024;
/// Batches in the `read-mix` writer's pool (1 M updates).
const MIX_POOL: usize = 1024;
/// Offered ingest rate of `read-mix`, updates per second.
const MIX_RATE: f64 = 1_000_000.0;
/// `read-mix` seals after every this many updates.
const SEAL_EVERY: u64 = 4_194_304;
/// Distinct reads in the `read-mix` cycle.
const MIX_READS: usize = 1 << 16;

/// What the open-loop writer did.
struct OpenLoop {
    batches: u64,
    acked: u64,
    ack_us: Vec<f64>,
    lag_us: Vec<f64>,
    late: u64,
    seal_us: Vec<f64>,
    checks: Checks,
    violations: Vec<String>,
    end: Instant,
    rec: Recorder,
}

/// Open-loop ingest at [`MIX_RATE`]: batch `b` is due at
/// `t0 + b × interval` whatever the server does. After every
/// [`SEAL_EVERY`] updates the writer drains its acks and seals in-band.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    mut conn: Conn,
    pool: &Pool,
    t0: Instant,
    deadline: Instant,
    trace_from: Instant,
    acked: &AtomicU64,
    sent: &AtomicU64,
    mut rec: Recorder,
) -> OpenLoop {
    let interval_ns = (MIX_BATCH as f64 / MIX_RATE * 1e9) as u64;
    let seal = frame(&Request::Seal { tenant: TENANT });
    let mut out = OpenLoop {
        batches: 0,
        acked: 0,
        ack_us: Vec::with_capacity(1 << 15),
        lag_us: Vec::with_capacity(1 << 15),
        late: 0,
        seal_us: Vec::new(),
        checks: Checks::default(),
        violations: Vec::new(),
        end: t0,
        rec: Recorder::new(false),
    };
    let mut inflight: VecDeque<Instant> = VecDeque::new();
    // Batches that came due while the writer drained for a seal are
    // late by design; they are left out of the generator's lateness.
    let mut sealed_until = t0;
    let on_ack = |resp: Response, due: Instant, out: &mut OpenLoop, rec: &mut Recorder| {
        let at = Instant::now();
        match resp {
            Response::IngestAck { accepted } => {
                acked.fetch_add(u64::from(accepted), SeqCst);
                out.acked += u64::from(accepted);
                out.ack_us.push(us(at - due));
                if due >= trace_from {
                    rec.record(0, "client.ingest_batch", due, at);
                }
            }
            other => count_error(&other, &mut out.checks),
        }
    };
    loop {
        let due = t0 + Duration::from_nanos(interval_ns * out.batches);
        if due >= deadline {
            break;
        }
        let now = Instant::now();
        if now >= due {
            if due >= sealed_until {
                out.lag_us.push(us(now - due));
                out.late += u64::from(now - due > Duration::from_nanos(interval_ns));
            }
            sent.fetch_add(MIX_BATCH as u64, SeqCst);
            conn.send(&pool.frames[out.batches as usize % pool.frames.len()])
                .expect("send an ingest batch");
            inflight.push_back(due);
            out.batches += 1;
            out.checks.attempted += 1;
            if (out.batches * MIX_BATCH as u64).is_multiple_of(SEAL_EVERY) {
                conn.stream
                    .set_read_timeout(None)
                    .expect("clear the read timeout");
                while let Some(d) = inflight.pop_front() {
                    let resp = conn.recv().expect("read an ingest ack");
                    on_ack(resp, d, &mut out, &mut rec);
                }
                let t = Instant::now();
                out.checks.attempted += 1;
                match conn.call(&seal).expect("seal round trip") {
                    Response::Sealed { epoch } => {
                        let want = out.batches * MIX_BATCH as u64 / SEAL_EVERY;
                        if epoch != want {
                            out.violations
                                .push(format!("seal returned epoch {epoch}, expected {want}"));
                        }
                    }
                    other => count_error(&other, &mut out.checks),
                }
                let at = Instant::now();
                out.seal_us.push(us(at - t));
                if t >= trace_from {
                    rec.record(0, "client.seal", t, at);
                }
                sealed_until = at;
            }
            continue;
        }
        if inflight.is_empty() {
            std::thread::sleep(due - now);
            continue;
        }
        conn.stream
            .set_read_timeout(Some((due - now).max(Duration::from_micros(1))))
            .expect("set the read timeout");
        match conn.recv() {
            Ok(resp) => {
                let d = inflight
                    .pop_front()
                    .expect("an ack answers a batch in flight");
                on_ack(resp, d, &mut out, &mut rec);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => panic!("read an ingest ack: {e}"),
        }
    }
    conn.stream
        .set_read_timeout(None)
        .expect("clear the read timeout");
    while let Some(d) = inflight.pop_front() {
        let resp = conn.recv().expect("read an ingest ack");
        on_ack(resp, d, &mut out, &mut rec);
    }
    out.end = Instant::now();
    out.rec = rec;
    out
}

/// Run `read-mix`.
pub fn read_mix(args: &Args, rec: &mut Recorder) -> Report {
    let mut report = Report::default();
    let pool = Pool::generate(derive(args.seed, 11), MIX_POOL, MIX_BATCH);
    let hot64 = hottest(&pool.keys, 64);
    let reads = traffic::read_mix(
        derive(args.seed, 12),
        MIX_READS,
        &traffic::subpop_sets(&hot64),
    );
    let streams = vec![stream_of(&pool)];
    let order = recall_order(&streams, UNIVERSE);

    let (server, setup) = set_up(&args.server_bin, MEMORY_KB, SETUP_REPS);
    report.put_median("setup_s", &setup, "s");
    let mut ctl = Conn::connect(server.addr()).expect("control connection");
    let writer = Conn::connect(server.addr()).expect("writer connection");
    let mut reader = Conn::connect(server.addr()).expect("reader connection");
    let (acked, sent) = (AtomicU64::new(0), AtomicU64::new(0));

    let outside = Outside::start(&server, &mut ctl);
    let t0 = Instant::now();
    let ph = phases(t0, args.seconds, 1 + usize::from(rec.on()), rec.on());
    let deadline = ph.last().expect("a phase").0;
    // The writer records spans for batches due in the traced half.
    let trace_from = ph.iter().take_while(|p| !p.1).last().map_or(t0, |p| p.0);
    let wrec = rec.lane(1, true);
    let (w, records, spans, rates) = std::thread::scope(|s| {
        let h = s.spawn(|| open_loop(writer, &pool, t0, deadline, trace_from, &acked, &sent, wrec));
        let mut records = Vec::new();
        let mut spans = Vec::new();
        let mut rates = Vec::new();
        for (lane, (until, traced)) in ph.iter().enumerate() {
            let mut lr = rec.lane(2 + lane as u64, *traced);
            let before = records.len();
            records.extend(read_loop(
                &mut reader,
                &reads,
                |_| Instant::now() >= *until,
                1,
                &acked,
                &sent,
                &mut lr,
                0,
            ));
            rates.push((block_rates(&records[before..]), *traced));
            spans.push(lr);
        }
        (h.join().expect("writer thread"), records, spans, rates)
    });
    outside.finish(&mut ctl, w.acked, &mut report);
    report.put(
        "ingest_mups",
        w.acked as f64 / (w.end - t0).as_secs_f64() / 1e6,
        "M/s",
        w.ack_us.len(),
    );
    report.put_dist("ingest_ack_p50_us", "ingest_ack_p99_us", &w.ack_us, "us");
    put_lag(
        &mut report,
        &w.lag_us,
        Some(Duration::from_secs_f64(MIX_BATCH as f64 / MIX_RATE)),
    );
    report.put("loadgen.stall_events", w.late as f64, "count", 1);
    let untraced: Vec<f64> = rates
        .iter()
        .filter(|r| !r.1)
        .flat_map(|r| r.0.clone())
        .collect();
    let traced: Vec<f64> = rates
        .iter()
        .filter(|r| r.1)
        .flat_map(|r| r.0.clone())
        .collect();
    if !traced.is_empty() {
        report.put(
            "trace.overhead_frac",
            1.0 - crate::stats::median(&traced) / crate::stats::median(&untraced),
            "frac",
            traced.len() + untraced.len(),
        );
    }
    if !w.seal_us.is_empty() {
        report.notes.push(format!(
            "{} in-band seals, round trip median {:.0} us",
            w.seal_us.len(),
            crate::stats::median(&w.seal_us)
        ));
    }
    let mut checks = w.checks;
    report.violations.extend(w.violations);
    rec.absorb(w.rec);
    for lr in spans {
        rec.absorb(lr);
    }
    let lat = verify_reads(
        &records,
        &streams,
        &hot64,
        &order,
        |r, epoch| {
            vec![Extent {
                from: epoch.saturating_sub(1) * SEAL_EVERY,
                acked: r.acked,
                sent: r.sent,
            }]
        },
        &mut checks,
    );
    put_read_metrics(&mut report, &lat, &untraced);
    // The writer has drained: every update sent is acknowledged.
    let total = sent.load(SeqCst);
    probe_decode(
        &mut reader,
        &streams,
        &order,
        |epoch| {
            vec![Extent {
                from: epoch.saturating_sub(1) * SEAL_EVERY,
                ..Extent::settled(total)
            }]
        },
        &mut checks,
    );
    report.put("peak_rss_mib", status_mib(&server.pid(), "VmHWM"), "MiB", 1);
    report.put(
        "server.malformed_frames",
        checks.malformed as f64,
        "count",
        1,
    );
    report.checks.add(&checks);
    drop(reader);
    drop(ctl);
    server.shutdown();
    report
}

/// Report the generator's lateness. An open-loop generator whose
/// median lateness exceeds one batch `interval` could not keep its own
/// schedule, so the run is invalid.
fn put_lag(report: &mut Report, lag_us: &[f64], interval: Option<Duration>) {
    match supported_percentile(lag_us, 0.99) {
        Some(v) => report.put("loadgen.lag_p99_us", v, "us", lag_us.len()),
        None => report.mark_invalid(format!(
            "loadgen.lag_p99_us: {} samples are too few",
            lag_us.len()
        )),
    }
    if let (Some(interval), Some(p50)) = (interval, supported_percentile(lag_us, 0.5)) {
        if p50 > us(interval) {
            report.mark_invalid(format!(
                "generator ran {p50:.0} us late at the median: it could not keep its schedule"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_rates_time_whole_blocks_from_reply_to_reply() {
        let t0 = Instant::now();
        // 3.5 blocks of replies, one every millisecond: the first block
        // only opens the clock, the half block is dropped.
        let records: Vec<ReadRecord> = (0..READ_BLOCK * 7 / 2)
            .map(|i| ReadRecord {
                kind: ReadKind::Certified,
                arg: 0,
                acked: 0,
                sent: 0,
                us: 1.0,
                done: t0 + Duration::from_millis(i as u64),
                reply: Response::Sealed { epoch: 0 },
            })
            .collect();
        let rates = block_rates(&records);
        assert_eq!(rates.len(), 2);
        for r in rates {
            assert!((r - 1000.0).abs() < 1e-6, "{r}");
        }
        assert!(block_rates(&records[..READ_BLOCK]).is_empty());
    }
}
