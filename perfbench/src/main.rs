//! End-to-end and per-layer benchmark of the ReliableSketch workspace.
//!
//! ```text
//! rsk-perfbench --workload ingest-shared|read-mix|embedded --seed N
//!               --seconds S --trace 0|1 --server-bin PATH [--out DIR]
//!               [--commit C] [--source DIGEST]
//! ```
//!
//! `perfbench/run.py` builds this binary and `rsk-serve` and passes the
//! paths; see `perfbench/README.md`. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! With `--trace 0` the metrics are the end-to-end list, with
//! `--trace 1` the per-layer list; both lists mirror `BENCHMARK.json`.

mod embedded;
mod layers;
mod proc;
mod report;
mod serve;
mod stats;
mod trace;
mod traffic;
mod truth;

use std::path::PathBuf;
use std::process::exit;

use report::Report;
use trace::Recorder;

/// End-to-end metrics, `(name, unit)`, as in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_mups", "M/s"),
    ("query_mops", "M/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, `(name, unit)`, as in `BENCHMARK.json`. The
/// first eight are end-to-end latencies that do not repeat within the
/// bounds on a noisy host (see `perfbench/README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ingest_ack_p50_us", "us"),
    ("ingest_ack_p99_us", "us"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("topk_p50_us", "us"),
    ("topk_p99_us", "us"),
    ("subpop_p50_us", "us"),
    ("subpop_p99_us", "us"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.stall_events", "count"),
    ("loadgen.cpu_frac", "frac"),
    ("server.cpu_us_per_kupdate", "us"),
    ("server.cpu_frac", "frac"),
    ("server.rejected_batches", "count"),
    ("server.malformed_frames", "count"),
    ("wire.overhead_us.ingest_batch", "us"),
    ("wire.overhead_us.query", "us"),
    ("wire.overhead_us.topk", "us"),
    ("wire.overhead_us.subpop", "us"),
    ("protocol.decode_ns_per_item.ingest", "ns"),
    ("protocol.roundtrip_ns.certified", "ns"),
    ("protocol.roundtrip_ns.topk", "ns"),
    ("protocol.roundtrip_ns.subpop", "ns"),
    ("tenant.ingest_ns_per_item.1w", "ns"),
    ("tenant.ingest_ns_per_item.2w", "ns"),
    ("tenant.certified_ns", "ns"),
    ("tenant.top_k_us", "us"),
    ("tenant.subpop_us.range", "us"),
    ("tenant.subpop_us.mask", "us"),
    ("tenant.subpop_us.explicit", "us"),
    ("tenant.seal_us", "us"),
    ("epoch.insert_shared_ns_per_item.1w", "ns"),
    ("epoch.insert_shared_ns_per_item.2w", "ns"),
    ("epoch.insert_batch_ns_per_item.1w", "ns"),
    ("epoch.insert_batch_ns_per_item.2w", "ns"),
    ("epoch.insertion_failures", "count"),
    ("atomic.insert_ns_per_item.1w", "ns"),
    ("atomic.insert_ns_per_item.2w", "ns"),
    ("atomic.cas_retries_per_mitem.2w", "count"),
    ("atomic.saturations", "count"),
    ("atomic.insert_ns_per_item.1w_no_topk", "ns"),
    ("atomic.insert_ns_per_item.2w_no_topk", "ns"),
    ("filter.insert_ns_per_item.1w", "ns"),
    ("filter.insert_ns_per_item.2w", "ns"),
    ("filter.absorbed_frac", "frac"),
    ("hash.index_ns_per_key", "ns"),
    ("sketch.insert_ns_per_item.batch", "ns"),
    ("sketch.insert_ns_per_item.item", "ns"),
    ("sketch.insert_ns_per_item.same_job", "ns"),
    ("sketch.query_ns", "ns"),
    ("sketch.stop_share.filter", "frac"),
    ("sketch.stop_share.l0", "frac"),
    ("sketch.stop_share.l1", "frac"),
    ("sketch.stop_share.deeper", "frac"),
    ("sketch.stop_share.failed", "frac"),
    ("sketch.hash_calls_per_insert", "count"),
    ("sketch.layers_per_query", "count"),
    ("sketch.outliers", "count"),
    ("topk.certified_top_k_us", "us"),
    ("subpop.weight_us.range", "us"),
    ("subpop.weight_us.mask", "us"),
    ("subpop.weight_us.explicit", "us"),
    ("verify.point_misses", "count"),
    ("verify.topk_misses", "count"),
    ("verify.topk_recall_misses", "count"),
    ("verify.subpop_misses", "count"),
    ("verify.decode_subpop_misses", "count"),
    ("failed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Workload names, as in `BENCHMARK.json`.
pub const WORKLOADS: &[&str] = &["ingest-shared", "read-mix"];
/// Workloads the command also runs that `BENCHMARK.json` leaves out:
/// `embedded` is memory-bound, and on a shared host its figures swing
/// by up to half from one minute to the next (see `perfbench/README.md`).
const UNLISTED: &[&str] = &["embedded"];

/// Command-line arguments.
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// The `rsk-serve` binary to start.
    pub server_bin: PathBuf,
    /// Where result files and spans go.
    pub out: PathBuf,
    /// Source commit, when known.
    pub commit: String,
    /// Digest of the benchmarked sources.
    pub source: String,
}

fn usage(msg: &str) -> ! {
    eprintln!("rsk-perfbench: {msg}");
    eprintln!(
        "usage: rsk-perfbench --workload {} --seed N --seconds S --trace 0|1 --server-bin PATH [--out DIR] [--commit C] [--source DIGEST]",
        [WORKLOADS, UNLISTED].concat().join("|")
    );
    exit(2)
}

fn number<T: std::str::FromStr>(flag: &str, val: &str) -> T {
    val.parse()
        .unwrap_or_else(|_| usage(&format!("bad value {val:?} for {flag}")))
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server_bin: PathBuf::new(),
        out: PathBuf::from(".bench_out"),
        commit: "unknown".into(),
        source: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = number(&flag, &val),
            "--seconds" => a.seconds = number(&flag, &val),
            "--trace" => a.trace = number::<u8>(&flag, &val) != 0,
            "--server-bin" => a.server_bin = PathBuf::from(&val),
            "--out" => a.out = PathBuf::from(&val),
            "--commit" => a.commit = val.clone(),
            "--source" => a.source = val.clone(),
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    if ![WORKLOADS, UNLISTED]
        .concat()
        .contains(&a.workload.as_str())
    {
        usage(&format!("unknown workload {:?}", a.workload));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    if a.workload != "embedded" && !a.server_bin.is_file() {
        usage("--server-bin must name the rsk-serve binary");
    }
    a
}

/// Cores the run may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = parse_args();
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname").unwrap_or_default();
    let provenance = [
        ("commit", args.commit.clone()),
        ("source", args.source.clone()),
        ("host", host.trim().to_string()),
        ("nproc", nproc().to_string()),
        ("seed", args.seed.to_string()),
        ("backend", reliablesketch::core::simd::backend().to_string()),
        ("workload", args.workload.clone()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ];
    let provenance_json = provenance
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(",");
    println!("provenance {{{provenance_json}}}");

    let mut rec = Recorder::new(args.trace);
    let mut report: Report = match args.workload.as_str() {
        "ingest-shared" => serve::ingest_shared(&args, &mut rec),
        "read-mix" => serve::read_mix(&args, &mut rec),
        _ => embedded::run(&args, &mut rec),
    };
    if args.trace {
        layers::run(&args, &mut report, &mut rec);
    }

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut picked = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        match report.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit && m.value.is_finite() => picked.push(m.clone()),
            Some(m) => report.mark_invalid(format!(
                "{name}: {} {} is not a {unit} value",
                m.value, m.unit
            )),
            None => report.mark_invalid(format!("{name}: not measured")),
        }
    }

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::create_dir_all(&args.out);
    if args.trace {
        let path = args.out.join(format!("{stem}.spans.jsonl"));
        if let Err(e) = rec.write_jsonl(&path) {
            eprintln!("rsk-perfbench: cannot write {}: {e}", path.display());
        }
        for (name, (n, total, own)) in rec.self_times() {
            println!(
                "span {name} n={n} total_ms={:.3} self_ms={:.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    for m in &report.metrics {
        println!("metric {} {} {} n={}", m.name, m.value, m.unit, m.samples);
    }
    for n in &report.notes {
        println!("note {n}");
    }
    let c = report.checks;
    println!(
        "checks attempted={} failed={} errors={} points={}/{} topk_entries={}/{} topk_recall_misses={} subpops={}/{} decode_subpops={}/{}",
        c.attempted,
        c.failed(),
        c.errors,
        c.points - c.point_misses,
        c.points,
        c.topk_entries - c.topk_misses,
        c.topk_entries,
        c.topk_recall_misses,
        c.subpops - c.subpop_misses,
        c.subpops,
        c.decode_probes - c.decode_misses,
        c.decode_probes
    );
    if c.decode_misses > 0 {
        println!(
            "known-defect {} of {} decode-path subpop probes excluded the truth; not counted in failed",
            c.decode_misses, c.decode_probes
        );
    }
    for v in &report.violations {
        println!("violation {v}");
    }
    if let Some(why) = &report.invalid {
        eprintln!("rsk-perfbench: run invalid, not reported: {why}");
        exit(3);
    }

    let metrics = picked
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{:?},\"unit\":{}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let samples = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{:?},\"unit\":{},\"samples\":{}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit),
                m.samples
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let record = format!(
        "{{\"provenance\":{{{provenance_json}}},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{samples}}}}}\n",
        report.correct(),
        c.attempted,
        c.failed()
    );
    let _ = std::fs::write(args.out.join(format!("{stem}.json")), record);
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.correct(),
        c.attempted.max(1),
        c.failed()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload lists here and in `BENCHMARK.json` agree.
    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let section = |key: &str| -> String {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let open = start + json[start..].find('[').expect("a list");
            let close = open + json[open..].find(']').expect("closed");
            json[open..close].to_string()
        };
        let names = |s: &str| -> Vec<String> {
            s.split("\"name\"")
                .skip(1)
                .map(|p| p.split('"').nth(1).expect("a name").to_string())
                .collect()
        };
        let units = |s: &str| -> Vec<String> {
            s.split("\"unit\"")
                .skip(1)
                .map(|p| p.split('"').nth(1).expect("a unit").to_string())
                .collect()
        };
        let e2e = section("end_to_end");
        let want: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names(&e2e), want);
        let want: Vec<String> = END_TO_END.iter().map(|m| m.1.to_string()).collect();
        assert_eq!(units(&e2e), want);
        let layer = section("per_layer");
        let want: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names(&layer), want);
        let want: Vec<String> = PER_LAYER.iter().map(|m| m.1.to_string()).collect();
        assert_eq!(units(&layer), want);
        let want: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        assert_eq!(names(&section("workloads")), want);
    }
}
