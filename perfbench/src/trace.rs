//! Client-side spans for the traced run: kept in memory, written out at
//! exit, and reduced to self time per span name.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// Layer boundary crossed.
    pub name: &'static str,
    /// Start, ns since the run's trace epoch.
    pub start: u64,
    /// End, ns since the run's trace epoch.
    pub end: u64,
}

/// An in-memory span log. A disabled recorder records nothing.
pub struct Recorder {
    epoch: Instant,
    next: u64,
    on: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(on: bool) -> Self {
        Self {
            epoch: Instant::now(),
            next: 1,
            on,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread or phase: same clock, disjoint
    /// ids, recording only if `on` and this recorder is on.
    pub fn lane(&self, lane: u64, on: bool) -> Self {
        Self {
            epoch: self.epoch,
            next: (lane << 40) | 1,
            on: self.on && on,
            spans: Vec::new(),
        }
    }

    /// Is recording on?
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id (0 when off).
    pub fn record(&mut self, parent: u64, name: &'static str, start: Instant, end: Instant) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next;
        self.next += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start: self.ns(start),
            end: self.ns(end),
        });
        id
    }

    /// Reserve an id for a span whose end is not known yet.
    pub fn open(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next;
        self.next += 1;
        id
    }

    /// Record a span under an id reserved by [`Recorder::open`].
    pub fn close(&mut self, id: u64, parent: u64, name: &'static str, start: Instant) {
        if self.on {
            let (start, end) = (self.ns(start), self.ns(Instant::now()));
            self.spans.push(Span {
                id,
                parent,
                name,
                start,
                end,
            });
        }
    }

    /// Take over another lane's spans.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }

    /// Per span name: `(count, total ns, self ns)`, where a span's self
    /// time is its duration less the part its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let total = s.end.saturating_sub(s.start);
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered(kids, s.start, s.end));
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total - covered.min(total);
        }
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut sum, mut cur_start, mut cur_end) = (0u64, 0u64, 0u64);
    let mut open = false;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        if open && s <= cur_end {
            cur_end = cur_end.max(e);
        } else {
            if open {
                sum += cur_end - cur_start;
            }
            (cur_start, cur_end, open) = (s, e, true);
        }
    }
    if open {
        sum += cur_end - cur_start;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new(true);
        let t0 = r.epoch;
        let at = |ns: u64| t0 + std::time::Duration::from_nanos(ns);
        let root = r.record(0, "root", at(0), at(100));
        // Overlapping children cover [10, 50); a third sticks out past the root.
        r.record(root, "kid", at(10), at(40));
        r.record(root, "kid", at(30), at(50));
        r.record(root, "kid", at(90), at(120));
        let t = r.self_times();
        assert_eq!(t["root"], (1, 100, 100 - 40 - 10));
        assert_eq!(t["kid"], (3, 30 + 20 + 30, 80));
        let mut off = Recorder::new(false);
        assert_eq!(off.record(0, "x", at(0), at(1)), 0);
        assert!(off.self_times().is_empty());
    }
}
