//! The benchmark's result: named metrics, correctness tallies and the
//! one-line JSON the last line of standard output carries.

use crate::stats::Fingerprint;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `count`.
    pub unit: &'static str,
}

/// An ordered metric list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends `name = value unit`.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Digest of the deterministic simulated statistics.
    pub fingerprint: Fingerprint,
    /// Operations attempted in the timed window(s).
    pub attempted: u64,
    /// Operations that failed (see the benchmark doc for what counts).
    pub failed: u64,
    /// Correctness violations; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// The metrics this run reports.
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a violated check.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.problems.push(what());
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let correct = self.problems.is_empty() && self.failed == 0;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (index, metric) in self.metrics.0.iter().enumerate() {
            let separator = if index == 0 { "" } else { ", " };
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            let _ = write!(
                out,
                "{separator}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(value),
                metric.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Renders a finite float as a JSON number with every digit Rust's
/// shortest round-trip formatting gives.
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains('.') || text.contains('e') {
        text
    } else {
        format!("{text}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.metrics.push("setup_s", 0.8127, "s");
        outcome.metrics.push("device.put_calls", 3.0, "count");
        let line = outcome.json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"device.put_calls\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        outcome.check(false, || "broken".to_string());
        assert!(outcome.json().starts_with("{\"correct\": false"));
    }
}
