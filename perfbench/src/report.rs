//! Metric records, exact-sample statistics, in-memory spans, and the
//! result line the benchmark prints last.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `us`, `1/s`, `count`, ...).
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: u64,
}

/// The `per_layer` metrics of `BENCHMARK.json`, in its order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.graph_gen_ms", "ms"),
    ("protocols.run_in_us.p50", "us"),
    ("protocols.run_in_us.p99", "us"),
    ("sim.ns_per_event", "ns"),
    ("sim.events", "count"),
    ("sim.sends", "count"),
    ("sim.drops", "count"),
    ("sim.queue_depth.p99", "count"),
    ("protocols.fold_ms", "ms"),
    ("protocols.valid_ratio", "ratio"),
    ("check.target_build_ms", "ms"),
    ("check.states", "count"),
    ("check.runs", "count"),
    ("check.forks", "count"),
    ("check.dedup_hits", "count"),
    ("check.dedup_ratio", "ratio"),
    ("check.states_per_s", "1/s"),
    ("check.advance_ns_per_call", "ns"),
    ("check.fork_ns_per_call", "ns"),
    ("check.fingerprint_ns_per_call", "ns"),
    ("check.choose_ns_per_call", "ns"),
    ("check.violation_us", "us"),
    ("check.explorer_self_ms", "ms"),
    ("svc.join_ms", "ms"),
    ("svc.loader_tick_us.p50", "us"),
    ("svc.loader_tick_us.p99", "us"),
    ("svc.replica_cpu_us_per_op", "us"),
    ("svc.replica_rss_mb", "MB"),
    ("store.op_p50_us", "us"),
    ("store.op_p99_us", "us"),
    ("store.read_p50_us", "us"),
    ("store.read_p99_us", "us"),
    ("store.write_p50_us", "us"),
    ("store.write_p99_us", "us"),
    ("store.retries", "count"),
    ("store.aborts", "count"),
    ("store.backlog.max", "count"),
    ("store.gen_late_us.p99", "us"),
    ("core.wgl_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// The outcome of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// `false` when any correctness gate failed.
    pub correct: bool,
    /// Operations attempted (runs, subject verdicts or store ops).
    pub attempted: u64,
    /// Operations that failed their gate, aborted or never finished.
    pub failed: u64,
    /// Metrics that go into the result line.
    pub metrics: Vec<Metric>,
    /// Metrics printed for reading only (the workload-specific names).
    pub extra: Vec<Metric>,
    /// Why a gate failed, one entry per failure.
    pub errors: Vec<String>,
}

impl Report {
    /// Adds a result-line metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Adds a metric that is printed but not part of the result line.
    pub fn extra(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.extra.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Completes a traced report: every [`PER_LAYER`] metric the workload
    /// did not report reads 0 (its layer did no work here), in
    /// [`PER_LAYER`] order, followed by any others.
    pub fn fill_per_layer(&mut self) {
        for &(name, unit) in PER_LAYER {
            if !self.metrics.iter().any(|m| m.name == name) {
                self.metric(name, 0.0, unit, 0);
            }
        }
        self.metrics.sort_by_key(|m| {
            PER_LAYER
                .iter()
                .position(|&(n, _)| n == m.name)
                .unwrap_or(PER_LAYER.len())
        });
    }

    /// Records a failed gate.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.errors.push(why);
    }

    /// The human-readable lines: one per metric with unit and sample
    /// count, then the gate failures.
    pub fn human(&self) -> String {
        let mut s = String::new();
        for m in self.metrics.iter().chain(&self.extra) {
            let _ = writeln!(
                s,
                "{:<32} {:>16} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        let _ = writeln!(
            s,
            "correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        for e in &self.errors {
            let _ = writeln!(s, "GATE FAILED: {e}");
        }
        s
    }

    /// The single-line JSON result: exactly `correct`, `attempted`,
    /// `failed` and `metrics` (name → value and unit).
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            // JSON has no NaN or infinity; a non-finite value is a bug in
            // the benchmark, so it is reported as a failure, not hidden.
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                v,
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Marks the report incorrect if any metric is not a finite number.
    pub fn check_finite(&mut self) {
        let bad: Vec<&'static str> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name)
            .collect();
        for name in bad {
            self.fail(format!("metric {name} is not finite"));
        }
    }
}

/// The `q`-quantile (0..=1) of `samples` by nearest rank; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The quantile of pass times a workload's throughput is read from.
///
/// Every pass of `sim_churn` and `check_explore` does the same work (the
/// count gates check it), so a pass slower than its siblings was slowed
/// by the rest of a shared host, not by the program. On a 2-vCPU shared
/// virtual machine, the median pass time of five 30 s `check_explore`
/// runs ranged over 28% and this quantile over 2%.
pub const PASS_QUANTILE: f64 = 0.05;

/// The [`PASS_QUANTILE`] of `walls`, the pass times of one run.
pub fn pass_time(walls: &[f64]) -> f64 {
    quantile(walls, PASS_QUANTILE)
}

/// The median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One timed interval recorded by a traced run.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call or phase the span covers.
    pub name: &'static str,
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// End, ns since the trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

/// Spans kept in memory during a traced run and written when it ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// ns since the trace origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span that started at `start_ns` and ends now; returns
    /// its index for use as a parent.
    pub fn close(&mut self, name: &'static str, start_ns: u64, parent: Option<u32>) -> u32 {
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        })
    }

    /// Appends a finished span; returns its index.
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes the spans as JSONL.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}",
                s.name, s.start_ns, s.end_ns
            )?;
            match s.parent {
                Some(p) => writeln!(out, ", \"parent\": {p}}}")?,
                None => writeln!(out, ", \"parent\": null}}")?,
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        r.metric("setup_s", 0.25, "s", 5);
        r.extra("not_in_line", 1.0, "s", 1);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
