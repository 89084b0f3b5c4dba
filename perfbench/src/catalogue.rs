//! The metric catalogue — every workload and metric the benchmark
//! reports, read from the repository's `BENCHMARK.json` — and the result
//! line a run prints.

use serde::Value;
use std::sync::OnceLock;

use crate::host::json_str;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in the catalogue.
    pub unit: &'static str,
}

impl Metric {
    /// A metric value.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// A catalogue entry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when higher is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

/// The catalogue: `BENCHMARK.json` at the repository root, compiled in.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalogue {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics: printed by every untraced run of every workload.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics: printed by every traced run of every workload.
    pub per_layer: Vec<MetricDef>,
}

impl Catalogue {
    /// Parses a `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// A member that is missing or of the wrong type.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let list = |key: &str| -> Result<&[Value], String> {
            v.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("`{key}` is not a list"))
        };
        let text_of = |m: &Value, key: &str| -> Result<String, String> {
            m.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("an entry lacks `{key}`"))
        };
        let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: text_of(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: defs("end_to_end")?,
            per_layer: defs("per_layer")?,
        })
    }
}

/// The compiled-in catalogue.
pub fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        Catalogue::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is well formed")
    })
}

/// The metrics a run of the given kind must print.
pub fn expected(traced: bool) -> &'static [MetricDef] {
    let c = catalogue();
    if traced {
        &c.per_layer
    } else {
        &c.end_to_end
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Operations attempted (mixes, campaign runs, requests).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub problems: Vec<String>,
    /// Every measured metric.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds operations and failures from one check.
    pub fn count(&mut self, attempted: u64, failed: u64, problems: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        self.problems.extend(problems);
    }

    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Records `metric`, replacing an earlier value of the same name.
    pub fn set(&mut self, metric: Metric) {
        self.metrics.retain(|m| m.name != metric.name);
        self.metrics.push(metric);
    }

    /// Records each metric not already present.
    pub fn fill(&mut self, metrics: Vec<Metric>) {
        for m in metrics {
            if self.get(&m.name).is_none() {
                self.metrics.push(m);
            }
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// catalogue's metrics for this kind of run, in catalogue order. A
    /// metric that is missing or not finite is an error.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let mut fields = Vec::new();
        for def in expected(traced) {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == def.name)
                .ok_or_else(|| format!("metric `{}` was not measured", def.name))?;
            if !m.value.is_finite() {
                return Err(format!("metric `{}` is not finite ({})", def.name, m.value));
            }
            fields.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&def.name),
                m.value,
                json_str(&def.unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }

    /// Human-readable metric table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("  {:<34} {:>18.6} {}\n", m.name, m.value, m.unit));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    #[test]
    fn result_line_has_exactly_the_catalogue_metrics() {
        let mut report = Report::default();
        for d in expected(false) {
            report.set(Metric::new(&d.name, 1.5, "x"));
        }
        report.set(Metric::new("extra", 2.0, "s"));
        report.count(3, 0, Vec::new());
        let line = report.result_line(false).expect("all metrics present");
        let v: serde_json::Value = serde_json::from_str(&line).expect("result line is JSON");
        let metrics = v["metrics"].as_object().expect("metrics object");
        assert_eq!(metrics.len(), expected(false).len());
        assert_eq!(
            metrics[0].1["unit"].as_str(),
            Some(expected(false)[0].unit.as_str()),
            "units come from the catalogue"
        );
        assert!(matches!(v["correct"], serde::Value::Bool(true)));
        assert_eq!(v["attempted"].as_u64(), Some(3));
        assert!(
            report.result_line(true).is_err(),
            "per-layer metrics are missing"
        );
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut report = Report::default();
        report.count(10, 1, vec!["wrong".into()]);
        assert!(!report.correct());
        assert!(
            !Report::default().correct(),
            "nothing attempted is not a pass"
        );
    }

    #[test]
    fn benchmark_json_names_the_workloads_and_well_formed_metrics() {
        let c = catalogue();
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(c.workloads, workloads);
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|d| d.name.as_str())
            .collect();
        names.extend(&workloads);
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for n in &names {
            assert!(ok(n), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names are used once");
        assert!(c
            .end_to_end
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(c.per_layer.iter().all(|d| d.bound.is_none()));
        let setup = c.end_to_end.iter().find(|d| d.name == "setup_s");
        assert!(setup.is_some_and(|d| d.unit == "s" && !d.higher_is_better));
    }
}
