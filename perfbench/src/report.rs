//! What one run reports: named metrics with units and sample counts,
//! the answer checks, and the validity of the run.

use crate::stats::{median, supported_percentile};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
    /// Samples the value was reduced from.
    pub samples: usize,
}

/// Answer checks of one run, by kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    /// Operations issued (ingest batches, seals and reads).
    pub attempted: u64,
    /// Requests the server answered with an error, or that failed.
    pub errors: u64,
    /// Of those, replies carrying the `Malformed` error code.
    pub malformed: u64,
    /// Certified point answers checked / missed.
    pub points: u64,
    /// See `points`.
    pub point_misses: u64,
    /// Top-K entries checked / missed / recall misses.
    pub topk_entries: u64,
    /// See `topk_entries`.
    pub topk_misses: u64,
    /// See `topk_entries`.
    pub topk_recall_misses: u64,
    /// Top-K replies checked / with any entry or recall miss.
    pub topk_replies: u64,
    /// See `topk_replies`.
    pub topk_failed: u64,
    /// Subset weights checked / missed.
    pub subpops: u64,
    /// See `subpops`.
    pub subpop_misses: u64,
    /// Decode-path subpop probes checked / missed. They carry a known
    /// defect and stay out of [`Checks::failed`] and `attempted`.
    pub decode_probes: u64,
    /// See `decode_probes`.
    pub decode_misses: u64,
}

impl Checks {
    /// Operations that failed: errors plus replies that missed their
    /// truth (a top-K reply with any miss counts once).
    pub fn failed(&self) -> u64 {
        self.errors + self.point_misses + self.subpop_misses + self.topk_failed
    }

    /// Fold another set of checks in.
    pub fn add(&mut self, o: &Checks) {
        self.attempted += o.attempted;
        self.errors += o.errors;
        self.malformed += o.malformed;
        self.points += o.points;
        self.point_misses += o.point_misses;
        self.topk_entries += o.topk_entries;
        self.topk_misses += o.topk_misses;
        self.topk_recall_misses += o.topk_recall_misses;
        self.topk_replies += o.topk_replies;
        self.topk_failed += o.topk_failed;
        self.subpops += o.subpops;
        self.subpop_misses += o.subpop_misses;
        self.decode_probes += o.decode_probes;
        self.decode_misses += o.decode_misses;
    }
}

/// Everything one run found.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end or per-layer metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Answer checks.
    pub checks: Checks,
    /// Accounting or protocol violations that make the run's outputs
    /// wrong regardless of the answer checks.
    pub violations: Vec<String>,
    /// Set when the generator, not the system, limited the run.
    pub invalid: Option<String>,
    /// Human-readable findings printed with the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Add one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Add a median and a p99 from raw samples. A p99 with fewer than
    /// ten samples beyond it is withheld, and the run is invalid: it
    /// cannot report every metric it promises.
    pub fn put_dist(&mut self, p50: &str, p99: &str, samples: &[f64], unit: &'static str) {
        self.put_median(p50, samples, unit);
        match supported_percentile(samples, 0.99) {
            Some(v) => self.put(p99, v, unit, samples.len()),
            None => self.mark_invalid(format!(
                "{p99}: {} samples are too few to support a p99",
                samples.len()
            )),
        }
    }

    /// Add the median of `samples`.
    pub fn put_median(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        if samples.is_empty() {
            self.mark_invalid(format!("{name}: no samples"));
        } else {
            self.put(name, median(samples), unit, samples.len());
        }
    }

    /// Record why the run cannot be reported (the first reason wins).
    pub fn mark_invalid(&mut self, why: String) {
        self.invalid.get_or_insert(why);
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Are all outputs of the program correct?
    pub fn correct(&self) -> bool {
        self.checks.failed() == 0 && self.violations.is_empty()
    }
}
