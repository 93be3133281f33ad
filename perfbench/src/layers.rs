//! The traced run's layer replays: each module's public entry point is
//! called directly from here on the workloads' generated inputs, on one
//! thread and, where a layer is shared by writers, on two. Nothing in
//! the program changes; every span is recorded around a call from this
//! file.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use reliablesketch::hash::HashFamily;
use reliablesketch::prelude::*;
use rsk_serve::protocol::{ErrorCode, Request, Response};
use rsk_serve::{SketchSpec, TenantMap};

use crate::embedded;
use crate::proc::{cpu_seconds, Conn, Server};
use crate::report::Report;
use crate::serve::MEMORY_KB;
use crate::stats::{median, supported_percentile, us};
use crate::trace::Recorder;
use crate::traffic::{self, datacenter, derive, exact_counts, hottest, Pool, ReadKind, TENANT};
use crate::Args;

/// Items per replayed ingest batch (`ingest-shared`'s).
const BATCH: usize = 2048;
/// Timed calls per query-side replay.
const CALLS: usize = 1_000;
/// Seals timed on the tenant.
const SEALS: usize = 8;
/// Ingest batches the wire probe sends.
const PROBE_BATCHES: usize = 1_000;

/// The serve tenants' sketch parameters.
fn spec() -> SketchSpec {
    SketchSpec {
        memory_bytes: MEMORY_KB * 1024,
        ..SketchSpec::default()
    }
}

/// The builder chain every serve tenant window goes through.
fn tenant_builder() -> reliablesketch::SketchBuilder {
    let s = spec();
    reliablesketch::builder()
        .memory_bytes(s.memory_bytes)
        .error_tolerance(s.error_tolerance)
        .seed(s.seed)
        .top_k(rsk_serve::DEFAULT_TOPK_CAPACITY)
}

fn ns_per(d: Duration, n: usize) -> f64 {
    d.as_nanos() as f64 / n.max(1) as f64
}

/// Wall time of `work(items)` on one thread.
fn one(rec: &mut Recorder, name: &'static str, work: impl FnOnce()) -> Duration {
    let t = Instant::now();
    work();
    let at = Instant::now();
    rec.record(0, name, t, at);
    at - t
}

/// Wall time of `a` and `b` started together on two threads.
fn two(
    rec: &mut Recorder,
    name: &'static str,
    a: impl FnOnce() + Send,
    b: impl FnOnce() + Send,
) -> Duration {
    let gate = Barrier::new(2);
    let (t, at) = std::thread::scope(|s| {
        let h = s.spawn(|| {
            gate.wait();
            b();
        });
        gate.wait();
        let t = Instant::now();
        a();
        h.join().expect("replay thread");
        (t, Instant::now())
    });
    rec.record(0, name, t, at);
    at - t
}

/// Passes per writer-side replay; each layer reports the median pass.
const REPS: usize = 3;

/// Feed fresh `make()` structures one pool on one thread and both pools
/// on two threads, `REPS` times each, interleaved. Returns the median
/// wall ns per item of each, and the last two-writer structure.
fn replay<S: Sync>(
    rec: &mut Recorder,
    names: [&'static str; 2],
    make: impl Fn() -> S,
    feed: impl Fn(&S, &[(u64, u64)]) + Sync,
    items: &[Vec<(u64, u64)>; 2],
) -> (f64, f64, S) {
    let (n1, n2) = (items[0].len(), items[0].len() + items[1].len());
    let (mut one_w, mut two_w, mut last) = (Vec::new(), Vec::new(), None);
    for _ in 0..REPS {
        let s = make();
        one_w.push(ns_per(one(rec, names[0], || feed(&s, &items[0])), n1));
        let s = make();
        two_w.push(ns_per(
            two(
                rec,
                names[1],
                || feed(&s, &items[0]),
                || feed(&s, &items[1]),
            ),
            n2,
        ));
        last = Some(s);
    }
    (median(&one_w), median(&two_w), last.expect("REPS > 0"))
}

/// Per-call microseconds of `calls` runs of `f`.
fn per_call<T>(
    rec: &mut Recorder,
    name: &'static str,
    calls: usize,
    mut f: impl FnMut(usize) -> T,
) -> Vec<f64> {
    (0..calls)
        .map(|i| {
            let t = Instant::now();
            black_box(f(i));
            let at = Instant::now();
            rec.record(0, name, t, at);
            us(at - t)
        })
        .collect()
}

/// Run every layer replay and add its metrics to `report`.
pub fn run(args: &Args, report: &mut Report, rec: &mut Recorder) {
    let pools = [
        Pool::generate(derive(args.seed, 1), 512, BATCH),
        Pool::generate(derive(args.seed, 2), 512, BATCH),
    ];
    let items = [pools[0].all_items(), pools[1].all_items()];
    let both: Vec<u32> = pools[0]
        .keys
        .iter()
        .chain(&pools[1].keys)
        .copied()
        .collect();
    let hot64 = hottest(&both, 64);
    let sets = traffic::subpop_sets(&hot64);
    let reads = traffic::read_mix(derive(args.seed, 3), 20_000, &sets);
    let keys: Vec<u64> = reads
        .iter()
        .filter(|r| r.kind == ReadKind::Certified)
        .map(|r| r.arg)
        .collect();
    let n1 = items[0].len();
    let n2 = n1 + items[1].len();

    // rsk_hash: one layer-0 index per key.
    let probe = tenant_builder().build_concurrent::<u64>();
    let (depth, w0) = (probe.geometry().depth(), probe.geometry().width(0));
    let family = HashFamily::new(depth, spec().seed);
    let passes: Vec<f64> = (0..REPS)
        .map(|_| {
            let d = one(rec, "layer.hash.index", || {
                let mut acc = 0usize;
                for (k, _) in &items[0] {
                    acc ^= family.index(0, k, w0);
                }
                black_box(acc);
            });
            ns_per(d, n1)
        })
        .collect();
    report.put_median("hash.index_ns_per_key", &passes, "ns");

    // rsk_core::filter: the atomic mice filter alone.
    let sketch = tenant_builder().build_concurrent::<u64>();
    let filter = sketch.filter().expect("serve tenants run a mice filter");
    let absorbed = items[0]
        .iter()
        .filter(|(k, v)| filter.insert(k, *v) == 0)
        .count();
    report.put(
        "filter.absorbed_frac",
        absorbed as f64 / n1 as f64,
        "frac",
        n1,
    );
    let (w1, w2, _) = replay(
        rec,
        ["layer.filter.insert.1w", "layer.filter.insert.2w"],
        || tenant_builder().build_concurrent::<u64>(),
        |s, it| {
            let f = s.filter().expect("serve tenants run a mice filter");
            for (k, v) in it {
                black_box(f.insert(k, *v));
            }
        },
        &items,
    );
    report.put("filter.insert_ns_per_item.1w", w1, "ns", n1);
    report.put("filter.insert_ns_per_item.2w", w2, "ns", n2);

    // rsk_core::atomic: one CAS-committed insert per item.
    let (w1, w2, sketch) = replay(
        rec,
        ["layer.atomic.insert.1w", "layer.atomic.insert.2w"],
        || tenant_builder().build_concurrent::<u64>(),
        |s, it| {
            for (k, v) in it {
                s.insert_concurrent(k, *v);
            }
        },
        &items,
    );
    report.put("atomic.insert_ns_per_item.1w", w1, "ns", n1);
    report.put("atomic.insert_ns_per_item.2w", w2, "ns", n2);
    let stats = sketch.array().stats();
    report.put(
        "atomic.cas_retries_per_mitem.2w",
        stats.retries() as f64 * 1e6 / n2 as f64,
        "count",
        n2,
    );
    report.put(
        "atomic.saturations",
        stats.saturations() as f64,
        "count",
        n2,
    );
    // The same without the top-K layer every tenant carries: its
    // promotion path takes a mutex that two writers share.
    let (w1, w2, _) = replay(
        rec,
        [
            "layer.atomic.insert.1w_no_topk",
            "layer.atomic.insert.2w_no_topk",
        ],
        || {
            let s = spec();
            reliablesketch::builder()
                .memory_bytes(s.memory_bytes)
                .error_tolerance(s.error_tolerance)
                .seed(s.seed)
                .build_concurrent::<u64>()
        },
        |s, it| {
            for (k, v) in it {
                s.insert_concurrent(k, *v);
            }
        },
        &items,
    );
    report.put("atomic.insert_ns_per_item.1w_no_topk", w1, "ns", n1);
    report.put("atomic.insert_ns_per_item.2w_no_topk", w2, "ns", n2);

    // rsk_core::epoch: the window the tenant wraps, item loop and batch.
    let (w1, w2, shared_window) = replay(
        rec,
        [
            "layer.epoch.insert_shared.1w",
            "layer.epoch.insert_shared.2w",
        ],
        || tenant_builder().build_epoched_concurrent::<u64>(),
        |w, it| {
            for (k, v) in it {
                w.insert_shared(k, *v);
            }
        },
        &items,
    );
    report.put("epoch.insert_shared_ns_per_item.1w", w1, "ns", n1);
    report.put("epoch.insert_shared_ns_per_item.2w", w2, "ns", n2);
    report.put(
        "epoch.insertion_failures",
        shared_window.insertion_failures() as f64,
        "count",
        n2,
    );
    let (w1, w2, _) = replay(
        rec,
        ["layer.epoch.insert_batch.1w", "layer.epoch.insert_batch.2w"],
        || tenant_builder().build_epoched_concurrent::<u64>(),
        |w, it| {
            for chunk in it.chunks(BATCH) {
                w.insert_batch(chunk);
            }
        },
        &items,
    );
    report.put("epoch.insert_batch_ns_per_item.1w", w1, "ns", n1);
    report.put("epoch.insert_batch_ns_per_item.2w", w2, "ns", n2);

    // rsk_core::topk and rsk_core::subpop on the two-writer window.
    let t = per_call(rec, "layer.topk.certified_top_k", CALLS, |_| {
        shared_window.certified_top_k(traffic::TOPK_K as usize)
    });
    report.put_median("topk.certified_top_k_us", &t, "us");
    for (set, name) in sets.iter().zip(["range", "mask", "explicit"]) {
        let t = per_call(rec, "layer.subpop.weight", CALLS, |_| {
            shared_window.subpopulation_weight(set)
        });
        report.put_median(&format!("subpop.weight_us.{name}"), &t, "us");
    }

    // rsk_serve::tenant: what the server calls per frame.
    let (w1, w2, tenant) = replay(
        rec,
        ["layer.tenant.ingest.1w", "layer.tenant.ingest.2w"],
        || TenantMap::new(16, spec()).get_or_create(TENANT),
        |t, it| {
            for chunk in it.chunks(BATCH) {
                t.ingest(chunk);
            }
        },
        &items,
    );
    report.put("tenant.ingest_ns_per_item.1w", w1, "ns", n1);
    report.put("tenant.ingest_ns_per_item.2w", w2, "ns", n2);
    let d = one(rec, "layer.tenant.certified", || {
        for k in &keys {
            black_box(tenant.certified(*k));
        }
    });
    let certified_ns = ns_per(d, keys.len());
    report.put("tenant.certified_ns", certified_ns, "ns", keys.len());
    let topk_us = per_call(rec, "layer.tenant.top_k", CALLS, |_| {
        tenant.top_k(traffic::TOPK_K as usize)
    });
    report.put_median("tenant.top_k_us", &topk_us, "us");
    for (set, name) in sets.iter().zip(["range", "mask", "explicit"]) {
        let t = per_call(rec, "layer.tenant.subpop", CALLS, |_| tenant.subpop(set));
        report.put_median(&format!("tenant.subpop_us.{name}"), &t, "us");
    }
    let sealing = TenantMap::new(16, spec());
    let sealed = sealing.get_or_create(TENANT);
    let mut seal_us = Vec::with_capacity(SEALS);
    for round in items[0].chunks(n1 / SEALS).take(SEALS) {
        for chunk in round.chunks(BATCH) {
            sealed.ingest(chunk);
        }
        let t = Instant::now();
        black_box(sealed.seal());
        let at = Instant::now();
        rec.record(0, "layer.tenant.seal", t, at);
        seal_us.push(us(at - t));
    }
    report.put_median("tenant.seal_us", &seal_us, "us");

    // rsk_serve::protocol: decode and encode without a socket.
    let d = one(rec, "layer.protocol.decode.ingest", || {
        for f in &pools[0].frames {
            black_box(Request::decode(&f[4..]).expect("a generated frame decodes"));
        }
    });
    report.put(
        "protocol.decode_ns_per_item.ingest",
        ns_per(d, n1),
        "ns",
        n1,
    );
    let answers: Vec<_> = keys.iter().map(|&k| (k, tenant.certified(k))).collect();
    let d = one(rec, "layer.protocol.roundtrip.certified", || {
        for &(key, a) in &answers {
            let req = Request::QueryCertified {
                tenant: TENANT,
                key,
            }
            .encode();
            black_box(Request::decode(&req).expect("decodes"));
            let resp = Response::Certified {
                value: a.value,
                max_possible_error: a.max_possible_error,
                slack: a.slack,
                epoch: a.epoch,
            }
            .encode();
            black_box(Response::decode(&resp).expect("decodes"));
        }
    });
    report.put(
        "protocol.roundtrip_ns.certified",
        ns_per(d, keys.len()),
        "ns",
        keys.len(),
    );
    let (top, slack, epoch) = tenant.top_k(traffic::TOPK_K as usize);
    let top_resp = Response::TopK {
        epoch,
        slack,
        floor: top.guaranteed_floor(),
        entries: top
            .entries
            .iter()
            .map(|e| (e.key, e.count, e.error))
            .collect(),
    };
    let d = one(rec, "layer.protocol.roundtrip.topk", || {
        for _ in 0..CALLS {
            let req = Request::TopK {
                tenant: TENANT,
                k: traffic::TOPK_K,
            }
            .encode();
            black_box(Request::decode(&req).expect("decodes"));
            black_box(Response::decode(&top_resp.encode()).expect("decodes"));
        }
    });
    report.put("protocol.roundtrip_ns.topk", ns_per(d, CALLS), "ns", CALLS);
    let subpop_resps: Vec<Response> = sets
        .iter()
        .map(|set| {
            let (w, epoch) = tenant.subpop(set);
            Response::Subpop {
                estimate: w.estimate,
                lo: w.lo,
                hi: w.hi,
                slack: w.slack,
                epoch,
            }
        })
        .collect();
    let d = one(rec, "layer.protocol.roundtrip.subpop", || {
        for i in 0..CALLS {
            let req = Request::Subpop {
                tenant: TENANT,
                set: sets[i % 3].clone(),
            }
            .encode();
            black_box(Request::decode(&req).expect("decodes"));
            black_box(Response::decode(&subpop_resps[i % 3].encode()).expect("decodes"));
        }
    });
    report.put(
        "protocol.roundtrip_ns.subpop",
        ns_per(d, CALLS),
        "ns",
        CALLS,
    );

    // The wire: the same requests against a real server, one at a time.
    wire_probe(args, &pools[0], &items[0], &reads, &sets, report);

    sequential(args, report, rec, &items[0]);
    verify_counts(report);
}

/// rsk_core::sketch on the embedded trace, plus the same job as the
/// serve replays (`same_job`) on one thread.
fn sequential(args: &Args, report: &mut Report, rec: &mut Recorder, serve_items: &[(u64, u64)]) {
    let items = datacenter(args.seed);
    let truth = exact_counts(&items);
    let n = items.len();

    let mut batched = embedded::build();
    let d = one(rec, "layer.sketch.insert_batch", || {
        for chunk in items.chunks(embedded::CHUNK) {
            batched.insert_batch(chunk);
        }
    });
    report.put("sketch.insert_ns_per_item.batch", ns_per(d, n), "ns", n);
    drop(batched);

    let mut sketch = embedded::build();
    let d = one(rec, "layer.sketch.insert", || {
        for (k, v) in &items {
            sketch.insert(k, *v);
        }
    });
    report.put("sketch.insert_ns_per_item.item", ns_per(d, n), "ns", n);
    let stats = sketch.stats();
    let hist = stats.stop_histogram();
    let inserts = stats.inserts().max(1) as f64;
    let share = |c: u64| c as f64 / inserts;
    report.put("sketch.stop_share.filter", share(hist[0]), "frac", n);
    report.put(
        "sketch.stop_share.l0",
        share(hist.get(1).copied().unwrap_or(0)),
        "frac",
        n,
    );
    report.put(
        "sketch.stop_share.l1",
        share(hist.get(2).copied().unwrap_or(0)),
        "frac",
        n,
    );
    report.put(
        "sketch.stop_share.deeper",
        share(hist.iter().skip(3).sum()),
        "frac",
        n,
    );
    report.put(
        "sketch.stop_share.failed",
        share(stats.failures()),
        "frac",
        n,
    );
    report.put(
        "sketch.hash_calls_per_insert",
        stats.avg_insert_hash_calls(),
        "count",
        n,
    );

    let mut answers = Vec::with_capacity(truth.len());
    let d = one(rec, "layer.sketch.query", || {
        for (k, _) in &truth {
            answers.push(sketch.query_with_error(k));
        }
    });
    report.put("sketch.query_ns", ns_per(d, truth.len()), "ns", truth.len());
    let outliers = answers
        .iter()
        .zip(&truth)
        .filter(|(e, &(_, t))| e.value.abs_diff(t) > embedded::LAMBDA)
        .count();
    report.put("sketch.outliers", outliers as f64, "count", truth.len());
    let sampled: Vec<usize> = truth
        .iter()
        .step_by(16)
        .map(|(k, _)| sketch.query_traced(k).layers_visited)
        .collect();
    report.put(
        "sketch.layers_per_query",
        sampled.iter().sum::<usize>() as f64 / sampled.len().max(1) as f64,
        "count",
        sampled.len(),
    );
    drop(sketch);

    let passes: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut same = tenant_builder().build_sequential::<u64>();
            let d = one(rec, "layer.sketch.same_job", || {
                for (k, v) in serve_items {
                    same.insert(k, *v);
                }
            });
            ns_per(d, serve_items.len())
        })
        .collect();
    report.put_median("sketch.insert_ns_per_item.same_job", &passes, "ns");
}

/// Make the in-process twin of a request, then the request itself over
/// the wire; returns the reply and the wire's extra microseconds. `prev`
/// and `gaps` track the generator's own time between a reply and the
/// next send.
fn paired<T>(
    conn: &mut Conn,
    frame: &[u8],
    twin: impl FnOnce() -> T,
    prev: &mut Option<Instant>,
    gaps: &mut Vec<f64>,
) -> (Response, f64) {
    let t = Instant::now();
    black_box(twin());
    let send = Instant::now();
    let local = us(send - t);
    if let Some(p) = *prev {
        gaps.push((us(send - p) - local).max(0.0));
    }
    let reply = conn.call(frame).expect("probe round trip");
    let at = Instant::now();
    *prev = Some(at);
    (reply, us(at - send) - local)
}

/// One connection, one request at a time: 1 000 ingest batches, then the
/// read mix. Each request is first made in process on a twin `Tenant`
/// fed the same batches, so the wire overhead is a median of paired
/// differences taken under the same host conditions. For a workload
/// without a server of its own (`embedded`) the probe also gives the
/// server and generator counters.
fn wire_probe(
    args: &Args,
    pool: &Pool,
    items: &[(u64, u64)],
    reads: &[traffic::Read],
    sets: &[KeySet; 3],
    report: &mut Report,
) {
    let server = Server::spawn(&args.server_bin, MEMORY_KB);
    let mut conn = Conn::connect(server.addr()).expect("probe connection");
    let twin = TenantMap::new(16, spec()).get_or_create(TENANT);
    let pid = server.pid();
    let stats0 = conn.stats().expect("probe stats");
    let (cpu0, own0, t0) = (cpu_seconds(&pid), cpu_seconds("self"), Instant::now());
    let (mut prev, mut gaps, mut malformed) = (None, Vec::new(), 0u64);
    let mut extra: [Vec<f64>; 4] = Default::default();
    let batches: Vec<&[(u64, u64)]> = items.chunks(BATCH).collect();
    for i in 0..PROBE_BATCHES {
        let j = i % batches.len();
        let (reply, t) = paired(
            &mut conn,
            &pool.frames[j],
            || twin.ingest(batches[j]),
            &mut prev,
            &mut gaps,
        );
        malformed += u64::from(matches!(
            reply,
            Response::Error {
                code: ErrorCode::Malformed,
                ..
            }
        ));
        extra[0].push(t);
    }
    for r in reads {
        let (slot, reply, t) = match r.kind {
            ReadKind::Certified => {
                let (reply, t) = paired(
                    &mut conn,
                    &r.frame,
                    || twin.certified(r.arg),
                    &mut prev,
                    &mut gaps,
                );
                (1, reply, t)
            }
            ReadKind::TopK => {
                let (reply, t) = paired(
                    &mut conn,
                    &r.frame,
                    || twin.top_k(traffic::TOPK_K as usize),
                    &mut prev,
                    &mut gaps,
                );
                (2, reply, t)
            }
            ReadKind::Subpop => {
                let (reply, t) = paired(
                    &mut conn,
                    &r.frame,
                    || twin.subpop(&sets[r.arg as usize]),
                    &mut prev,
                    &mut gaps,
                );
                (3, reply, t)
            }
        };
        malformed += u64::from(matches!(
            reply,
            Response::Error {
                code: ErrorCode::Malformed,
                ..
            }
        ));
        extra[slot].push(t);
    }
    for (name, samples) in ["ingest_batch", "query", "topk", "subpop"]
        .iter()
        .zip(&extra)
    {
        report.put_median(&format!("wire.overhead_us.{name}"), samples, "us");
    }
    if report.get("server.cpu_frac").is_none() {
        // The embedded workload has no server: report the probe's.
        let wall = t0.elapsed().as_secs_f64();
        let cores = crate::nproc() as f64;
        let cpu = cpu_seconds(&pid) - cpu0;
        let own = cpu_seconds("self") - own0;
        let stats = conn.stats().expect("probe stats");
        let updates = (PROBE_BATCHES * BATCH) as f64;
        report.put(
            "server.cpu_us_per_kupdate",
            cpu * 1e6 / (updates / 1e3),
            "us",
            PROBE_BATCHES,
        );
        report.put("server.cpu_frac", cpu / (wall * cores), "frac", 1);
        report.put(
            "server.rejected_batches",
            (stats.rejected_batches - stats0.rejected_batches) as f64,
            "count",
            1,
        );
        report.put("server.malformed_frames", malformed as f64, "count", 1);
        report.put("loadgen.cpu_frac", own / (wall * cores), "frac", 1);
        match supported_percentile(&gaps, 0.99) {
            Some(v) => report.put("loadgen.lag_p99_us", v, "us", gaps.len()),
            None => report.mark_invalid(format!(
                "loadgen.lag_p99_us: {} samples are too few",
                gaps.len()
            )),
        }
        // One request at a time: the probe never waits on a credit window.
        report.put("loadgen.stall_events", 0.0, "count", 1);
    }
    drop(conn);
    server.shutdown();
}

/// The truth checker's tallies as per-layer counts.
fn verify_counts(report: &mut Report) {
    let c = report.checks;
    report.put(
        "verify.point_misses",
        c.point_misses as f64,
        "count",
        c.points as usize,
    );
    report.put(
        "verify.topk_misses",
        c.topk_misses as f64,
        "count",
        c.topk_entries as usize,
    );
    report.put(
        "verify.topk_recall_misses",
        c.topk_recall_misses as f64,
        "count",
        c.topk_replies as usize,
    );
    report.put(
        "verify.subpop_misses",
        c.subpop_misses as f64,
        "count",
        c.subpops as usize,
    );
    report.put(
        "verify.decode_subpop_misses",
        c.decode_misses as f64,
        "count",
        c.decode_probes as usize,
    );
    report.put(
        "failed_frac",
        c.failed() as f64 / c.attempted.max(1) as f64,
        "frac",
        c.attempted as usize,
    );
}
