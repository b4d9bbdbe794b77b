//! The metric registry: `BENCHMARK.json` at the repository root, embedded
//! at compile time so names, units, directions and bounds have one
//! source.

use reaper_serve::json::{self, Value};

/// `BENCHMARK.json`, as committed.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// Relative change from `base` to `new`, signed so that positive
    /// means worse.
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        let change = (new - base) / base.abs();
        match self {
            Better::Lower => change,
            Better::Higher => -change,
        }
    }

    /// True when `new` is strictly better than `base`.
    pub fn improves(self, base: f64, new: f64) -> bool {
        match self {
            Better::Lower => new < base,
            Better::Higher => new > base,
        }
    }
}

/// One metric of the registry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parsed registry.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The registry compiled into this binary.
    pub fn embedded() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid (checked by unit tests)")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| -> Result<&[Value], String> {
            match doc.get(key) {
                Some(Value::Arr(items)) => Ok(items),
                _ => Err(format!("`{key}` must be a list")),
            }
        };
        let text_of = |v: &Value, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry without `{key}`"))
        };
        let metrics = |key: &str, bounded: bool| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = match text_of(m, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("unknown direction `{other}`")),
                    };
                    let bound = if bounded {
                        let b = m.get("bound").and_then(Value::as_f64);
                        Some(b.ok_or_else(|| format!("{key} entry without `bound`"))?)
                    } else {
                        None
                    };
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better,
                        bound,
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("`run_seconds` must be a whole number")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }

    /// Looks a metric up in either list.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Workload, END_TO_END, OVERHEAD};
    use std::collections::BTreeSet;

    /// The benchmark's naming rule: a letter or digit first, then at
    /// most 63 more letters, digits, `_`, `.` or `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn registry_names_follow_the_naming_rule_and_are_unique() {
        let spec = Spec::embedded();
        let mut seen = BTreeSet::new();
        let names = spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name));
        for name in names {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name.clone()), "duplicate name {name}");
        }
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(m.unit.len() <= 16, "unit of {} too long", m.name);
        }
    }

    #[test]
    fn emitted_names_equal_the_registry() {
        let spec = Spec::embedded();
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, workloads);

        let e2e: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(e2e, END_TO_END);

        let registry: BTreeSet<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        let mut emitted: Vec<String> = Workload::ALL.iter().flat_map(|w| w.per_layer()).collect();
        emitted.extend(crate::probes::PER_LAYER.iter().map(|n| n.to_string()));
        emitted.push(OVERHEAD.to_string());
        let emitted_set: BTreeSet<&str> = emitted.iter().map(String::as_str).collect();
        assert_eq!(
            emitted.len(),
            emitted_set.len(),
            "a per-layer name is emitted twice"
        );
        assert_eq!(registry, emitted_set);
        assert!(spec.per_layer.len() <= 128 && spec.end_to_end.len() <= 16);
    }

    #[test]
    fn setup_has_the_largest_bound_and_bounds_stay_within_a_quarter() {
        let spec = Spec::embedded();
        let setup = spec
            .metric("setup_s")
            .and_then(|m| m.bound)
            .expect("setup_s bound");
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics have bounds");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
            assert!(bound <= setup, "{} bound exceeds setup_s's", m.name);
        }
    }
}
