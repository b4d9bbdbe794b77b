//! `repro_drift` and `repro_static`: the paper reproduction, split by
//! whether simulated time advances between trials.
//!
//! fig03, fig04 and fig05 call `harness.idle` or `chip.advance` between
//! trials, and every clock step drops the chip's compiled trial plans;
//! the other 17 experiments run fixed-condition trials on compiled plans
//! and the batch kernel, or are analytic. A change to the drift path
//! should move the first workload and leave the second flat.

use std::collections::BTreeMap;
use std::time::Instant;

use reaper_bench::{all_experiments, Experiment, Scale, Table};
use reaper_conformance::diff_tables;
use reaper_conformance::golden::{golden_path, tolerance_for};

use super::{shuffle, Ctx, Session, Tally, Workload};
use crate::record::Measured;
use crate::stats::Samples;
use crate::trace::Tracer;

/// The experiments that advance simulated time between trials.
const DRIFT: [&str; 3] = ["fig03", "fig04", "fig05"];

/// Seed domain of the experiment order.
const ORDER_DOMAIN: u64 = 0x0DE5;

fn experiments(drift: bool) -> Vec<Experiment> {
    all_experiments()
        .into_iter()
        .filter(|(name, _)| DRIFT.contains(name) == drift)
        .collect()
}

fn metric_name(experiment: &str) -> String {
    format!("bench.{experiment}_ms")
}

#[cfg(test)]
pub fn per_layer(drift: bool) -> Vec<String> {
    experiments(drift)
        .iter()
        .map(|(n, _)| metric_name(n))
        .collect()
}

pub struct Repro {
    /// This workload's experiments in the seed's order.
    experiments: Vec<Experiment>,
    /// Each experiment's table from the warm-up pass, as TSV.
    reference: BTreeMap<&'static str, String>,
}

pub struct Window {
    pass_ms: Samples,
    experiment_ms: BTreeMap<&'static str, Samples>,
}

impl Session for Repro {
    type Window = Window;
    /// Each set-up is a pass of seconds; three keep the run short.
    const SETUP_REPS: usize = 3;

    /// Loads the goldens and runs one warm-up pass whose tables must
    /// pass the same tolerant diff as `experiments --check`; it pays the
    /// process's lazy start-up (compute pool, allocator growth) and
    /// becomes the reference later passes must equal byte for byte.
    fn setup(workload: Workload, ctx: &Ctx, tally: &mut Tally) -> Repro {
        let mut experiments = experiments(workload == Workload::ReproDrift);
        shuffle(&mut experiments, &[ctx.seed, ORDER_DOMAIN]);
        let mut reference = BTreeMap::new();
        for &(name, runner) in &experiments {
            let golden = load_golden(name);
            let table = runner(Scale::Quick);
            let diffs = match &golden {
                Ok(golden) => diff_tables(golden, &table, tolerance_for(name))
                    .iter()
                    .take(5)
                    .map(|d| d.to_string())
                    .collect(),
                Err(e) => vec![e.clone()],
            };
            tally.check(diffs.is_empty(), || {
                format!("{name}: golden mismatch: {}", diffs.join("; "))
            });
            reference.insert(name, table.to_tsv());
        }
        Repro {
            experiments,
            reference,
        }
    }

    fn discard(self) {}

    /// Passes back to back until `seconds` have elapsed (at least one).
    fn window(&mut self, seconds: f64, tr: &mut Tracer, tally: &mut Tally) -> Window {
        let mut pass_ms = Samples::default();
        let mut experiment_ms: BTreeMap<&'static str, Samples> = BTreeMap::new();
        let started = Instant::now();
        while pass_ms.len() == 0 || started.elapsed().as_secs_f64() < seconds {
            let mut tables = Vec::with_capacity(self.experiments.len());
            let t0 = Instant::now();
            tr.span("pass", "bench", |tr| {
                for &(name, runner) in &self.experiments {
                    let t = Instant::now();
                    let table = tr.span(name, "bench", |_| runner(Scale::Quick));
                    experiment_ms
                        .entry(name)
                        .or_default()
                        .push(t.elapsed().as_secs_f64() * 1e3);
                    tables.push((name, table));
                }
            });
            pass_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            for (name, table) in tables {
                tally.check(self.reference[name] == table.to_tsv(), || {
                    format!("{name}: table differs from the warm-up pass")
                });
            }
        }
        Window {
            pass_ms,
            experiment_ms,
        }
    }

    fn latency_ms(window: &Window) -> Measured {
        Measured::median(&window.pass_ms)
    }

    fn per_layer(
        &mut self,
        window: &Window,
        _: &mut Tracer,
        _: &mut Tally,
    ) -> Vec<(String, Measured)> {
        window
            .experiment_ms
            .iter()
            .map(|(name, ms)| (metric_name(name), Measured::median(ms)))
            .collect()
    }

    fn finish(self, _: &mut Tally) {}
}

fn load_golden(name: &str) -> Result<Table, String> {
    let path = golden_path(name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Table::from_tsv(&text).map_err(|e| format!("{}: {e}", path.display()))
}
