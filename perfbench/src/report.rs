//! Named metrics, the human-readable report and the result line.

use std::fmt::Write as _;

/// The end-to-end metrics every workload reports in its result line
/// (`BENCHMARK.json`'s `end_to_end`).
pub const RESULT_E2E: [&str; 4] = ["setup_s", "ops_per_s", "cpu_us_per_op", "peak_rss_mb"];

/// The per-layer metrics every workload reports in its traced result
/// line (`BENCHMARK.json`'s `per_layer`): the isolation replays, which
/// run on every workload's own keys and ops.
pub const RESULT_LAYERS: [&str; 10] = [
    "ring.server_for_ns",
    "bloom.contains_ns",
    "bloom.snapshot_ms",
    "cache.get_ns",
    "cache.put_ns",
    "cache.hit_ratio",
    "cache.evictions_per_op",
    "cache.bytes_per_item",
    "wire.parse_ns",
    "wire.encode_ns",
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: u64,
}

#[derive(Debug, Default)]
pub struct Report {
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Free-form lines: checks, reconciliation, tracing overhead.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Whether every output check passed and the run is valid.
    pub correct: bool,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .chain(&self.layers)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn print(&self, workload: &str) {
        let line = |kind: &str, m: &Metric| {
            println!(
                "{workload:>16} {kind:5} {:<34} {:>16.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        };
        for m in &self.e2e {
            line("e2e", m);
        }
        for m in &self.layers {
            line("layer", m);
        }
        for n in &self.notes {
            println!("{workload:>16} {n}");
        }
    }

    /// The result line: `names` picked from this report's metrics.
    /// Panics if one is missing, since the result line must carry
    /// every declared metric.
    pub fn json(&self, names: &[&str]) -> String {
        let mut metrics = String::new();
        for (i, name) in names.iter().enumerate() {
            let m = self
                .e2e
                .iter()
                .chain(&self.layers)
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(m.value.is_finite(), "metric {name} is not finite");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                r#"{sep}"{name}": {{"value": {}, "unit": "{}"}}"#,
                m.value, m.unit
            );
        }
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
            self.correct, self.attempted, self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut r = Report {
            attempted: 10,
            correct: true,
            ..Report::default()
        };
        r.e2e("setup_s", 0.5, "s", 3);
        r.e2e("ops_per_s", 1234.5, "1/s", 10);
        assert_eq!(
            r.json(&["setup_s", "ops_per_s"]),
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}, "ops_per_s": {"value": 1234.5, "unit": "1/s"}}}"#
        );
    }
}
