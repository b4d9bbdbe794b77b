//! What one workload run produces, and its JSON form: the line a child
//! process hands its parent, and the line `run --out` appends for
//! `compare`.

use std::collections::BTreeMap;

use reaper_serve::json::{self, Value};

use crate::stats::{Histogram, Samples};

/// One metric value with the distribution it summarises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    /// Samples behind `value`.
    pub n: usize,
    /// Quartiles of those samples, NaN when they do not apply.
    pub q1: f64,
    pub q3: f64,
}

impl Measured {
    /// The median of `samples`, with its quartiles.
    pub fn median(samples: &Samples) -> Measured {
        let (q1, q3) = samples.quartiles();
        Measured {
            value: samples.median(),
            n: samples.len(),
            q1,
            q3,
        }
    }

    /// The median of `h` with its quartiles, by nearest rank, in units of
    /// `unit_ns` nanoseconds.
    pub fn histogram(h: &Histogram, unit_ns: f64) -> Measured {
        let at = |p| h.percentile_ns(p) / unit_ns;
        Measured {
            value: at(50.0),
            n: h.len(),
            q1: at(25.0),
            q3: at(75.0),
        }
    }

    /// A value derived from `n` events (a rate, a count, a ratio).
    pub fn derived(value: f64, n: usize) -> Measured {
        Measured {
            value,
            n,
            q1: f64::NAN,
            q3: f64::NAN,
        }
    }
}

/// The result of one workload (or probe) run.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// `std::thread::available_parallelism` of the host.
    pub cores: usize,
    /// Load threads and `reaper_exec` workers the run used.
    pub threads: usize,
    pub correct: bool,
    /// Operations plus correctness checks.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Measured>,
}

impl Record {
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let v = json::obj([
                    ("value", json::num(m.value)),
                    ("n", json::uint(m.n as u64)),
                    ("q1", json::num(m.q1)),
                    ("q3", json::num(m.q3)),
                ]);
                (name.clone(), v)
            })
            .collect();
        json::obj([
            ("workload", json::str(self.workload.clone())),
            ("seed", json::uint(self.seed)),
            ("seconds", json::num(self.seconds)),
            ("traced", Value::Bool(self.traced)),
            ("cores", json::uint(self.cores as u64)),
            ("threads", json::uint(self.threads as u64)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", json::uint(self.attempted)),
            ("failed", json::uint(self.failed)),
            ("metrics", Value::Obj(metrics)),
        ])
        .encode()
    }

    pub fn from_json(text: &str) -> Result<Record, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let field = |key: &str| doc.get(key).ok_or(format!("record without `{key}`"));
        let uint = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or(format!("`{key}` is not a whole number"))
        };
        let boolean = |key: &str| {
            field(key)?
                .as_bool()
                .ok_or(format!("`{key}` is not a bool"))
        };
        // Non-finite numbers travel as `null`.
        let float = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(f64::NAN);
        let Value::Obj(raw) = field("metrics")? else {
            return Err("`metrics` is not an object".to_string());
        };
        let metrics = raw
            .iter()
            .map(|(name, m)| {
                let measured = Measured {
                    value: float(m.get("value")),
                    n: m.get("n").and_then(Value::as_u64).unwrap_or(0) as usize,
                    q1: float(m.get("q1")),
                    q3: float(m.get("q3")),
                };
                (name.clone(), measured)
            })
            .collect();
        Ok(Record {
            workload: field("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?
                .to_string(),
            seed: uint("seed")?,
            seconds: float(doc.get("seconds")),
            traced: boolean("traced")?,
            cores: uint("cores")? as usize,
            threads: uint("threads")? as usize,
            correct: boolean("correct")?,
            attempted: uint("attempted")?,
            failed: uint("failed")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_json() {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "latency_p50_ms".to_string(),
            Measured {
                value: 11.234567891,
                n: 700,
                q1: 10.5,
                q3: 12.25,
            },
        );
        metrics.insert("e2e.req_per_s".to_string(), Measured::derived(131.5, 800));
        let rec = Record {
            workload: "service_jobs".to_string(),
            seed: 7,
            seconds: 20.0,
            traced: false,
            cores: 2,
            threads: 2,
            correct: true,
            attempted: 1564,
            failed: 0,
            metrics,
        };
        let back = Record::from_json(&rec.to_json()).expect("parses");
        assert_eq!(
            back.metrics["latency_p50_ms"],
            rec.metrics["latency_p50_ms"]
        );
        let tp = back.metrics["e2e.req_per_s"];
        assert_eq!((tp.value, tp.n), (131.5, 800));
        assert!(tp.q1.is_nan() && tp.q3.is_nan());
        assert_eq!(back.attempted, 1564);
    }
}
