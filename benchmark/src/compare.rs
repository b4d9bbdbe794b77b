//! `compare BASE NEW [--claim METRIC@WORKLOAD]`: the no-regression and
//! gain rules applied to two sets of recorded runs (`run --out`).
//!
//! - No regression: for every end-to-end metric and workload, the new
//!   median may be worse than the base median by at most the metric's
//!   bound.
//! - Unresolved: when either side's interquartile range exceeds the bound
//!   the metric is unresolved, not unchanged, unless every new run is
//!   better than every base run.
//! - A rise in the failed share fails the comparison.
//! - A claimed gain needs at least 10 pairs (base run i against new run
//!   i, in file order, which the operator alternates), wins in at least
//!   9/10 of them with ties counting for neither, and medians differing
//!   by more than the base's interquartile range.

use std::collections::BTreeMap;

use crate::record::Record;
use crate::spec::{Better, Spec};
use crate::stats::{median, quartiles, relative_spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regression,
    Unresolved,
    /// Spread exceeds the bound, but every new run beats every base run.
    Better,
}

/// One metric on one workload.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    /// Relative change, positive when worse.
    pub worsening: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

pub fn judge(better: Better, bound: f64, base: &[f64], new: &[f64]) -> (Verdict, f64, f64) {
    let worsening = better.worsening(median(base), median(new));
    let spread = relative_spread(base).max(relative_spread(new));
    let verdict = if spread > bound {
        let all_better = new
            .iter()
            .all(|&n| base.iter().all(|&b| better.improves(b, n)));
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worsening > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (verdict, worsening, spread)
}

/// Outcome of a claimed gain.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    pub pairs: usize,
    pub wins: usize,
    pub base_iqr: f64,
    pub difference: f64,
    pub met: bool,
}

pub fn claim(better: Better, base: &[f64], new: &[f64]) -> Claim {
    let pairs = base.len().min(new.len());
    let wins = base
        .iter()
        .zip(new)
        .filter(|&(&b, &n)| better.improves(b, n))
        .count();
    let (q1, q3) = quartiles(base);
    let base_iqr = q3 - q1;
    let (mb, mn) = (median(base), median(new));
    let difference = (mn - mb).abs();
    let met =
        pairs >= 10 && wins * 10 >= pairs * 9 && better.improves(mb, mn) && difference > base_iqr;
    Claim {
        pairs,
        wins,
        base_iqr,
        difference,
        met,
    }
}

/// `failed / attempted` per workload over a set of runs.
pub fn failed_share(records: &[Record]) -> BTreeMap<String, f64> {
    let mut sums: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for r in records {
        let e = sums.entry(r.workload.clone()).or_default();
        e.0 += r.failed;
        e.1 += r.attempted;
    }
    sums.into_iter()
        .map(|(w, (failed, attempted))| (w, failed as f64 / attempted.max(1) as f64))
        .collect()
}

fn values(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric))
        .map(|m| m.value)
        .filter(|v| v.is_finite())
        .collect()
}

/// Every end-to-end metric on every workload both sides measured.
pub fn rows(spec: &Spec, base: &[Record], new: &[Record]) -> Vec<Row> {
    let (base, new): (Vec<Record>, Vec<Record>) = (
        base.iter().filter(|r| !r.traced).cloned().collect(),
        new.iter().filter(|r| !r.traced).cloned().collect(),
    );
    let mut out = Vec::new();
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let (b, n) = (
                values(&base, workload, &m.name),
                values(&new, workload, &m.name),
            );
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let bound = m.bound.unwrap_or(0.0);
            let (verdict, worsening, spread) = judge(m.better, bound, &b, &n);
            out.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                base: median(&b),
                new: median(&n),
                worsening,
                spread,
                bound,
                verdict,
            });
        }
    }
    out
}

/// Runs the comparison, prints it, and returns whether it passes.
pub fn run(
    spec: &Spec,
    base: &[Record],
    new: &[Record],
    claimed: Option<(&str, &str)>,
) -> Result<bool, String> {
    let mut pass = true;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "worse", "spread", "bound"
    );
    let rows = rows(spec, base, new);
    if rows.is_empty() {
        return Err("no end-to-end metric was measured on both sides".to_string());
    }
    for r in &rows {
        pass &= matches!(r.verdict, Verdict::Ok | Verdict::Better);
        println!(
            "{:<14} {:<18} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>5.1}%  {:?}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.worsening * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict
        );
    }
    let (fb, fnew) = (failed_share(base), failed_share(new));
    for (workload, &share) in &fnew {
        let was = fb.get(workload).copied().unwrap_or(0.0);
        let rose = share > was;
        pass &= !rose;
        println!(
            "{workload:<14} failed_frac        {was:>14.6} {share:>14.6}  {}",
            if rose { "Regression" } else { "Ok" }
        );
    }
    if let Some((metric, workload)) = claimed {
        let m = spec
            .metric(metric)
            .ok_or(format!("unknown metric `{metric}`"))?;
        let (b, n) = (
            values(base, workload, metric),
            values(new, workload, metric),
        );
        let c = claim(m.better, &b, &n);
        pass &= c.met;
        println!(
            "claim {metric}@{workload}: {} of {} pairs won, |median difference| {:.6} vs base IQR {:.6}: {}",
            c.wins,
            c.pairs,
            c.difference,
            c.base_iqr,
            if c.met { "met" } else { "not met" }
        );
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + jitter * ((i % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn worsening_within_the_bound_passes_and_beyond_it_regresses() {
        let base = around(100.0, 0.01, 10);
        let (v, w, _) = judge(Better::Lower, 0.05, &base, &around(104.0, 0.01, 10));
        assert_eq!(v, Verdict::Ok);
        assert!((w - 0.04).abs() < 1e-9);
        let (v, _, _) = judge(Better::Lower, 0.05, &base, &around(106.0, 0.01, 10));
        assert_eq!(v, Verdict::Regression);
        // Direction matters: a throughput drop is the regression.
        let (v, _, _) = judge(Better::Higher, 0.05, &base, &around(94.0, 0.01, 10));
        assert_eq!(v, Verdict::Regression);
        let (v, _, _) = judge(Better::Higher, 0.05, &base, &around(106.0, 0.01, 10));
        assert_eq!(v, Verdict::Ok);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let noisy = around(100.0, 0.2, 10);
        let (v, _, spread) = judge(Better::Lower, 0.05, &noisy, &around(100.0, 0.2, 10));
        assert_eq!(v, Verdict::Unresolved);
        assert!(spread > 0.05);
        let (v, _, _) = judge(Better::Lower, 0.05, &noisy, &around(50.0, 0.2, 10));
        assert_eq!(v, Verdict::Better);
    }

    #[test]
    fn a_claim_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_base_iqr() {
        let base = around(100.0, 0.02, 10);
        let c = claim(Better::Lower, &base, &around(90.0, 0.02, 10));
        assert!(c.met, "{c:?}");
        assert_eq!((c.pairs, c.wins), (10, 10));
        // Nine pairs are too few however clear the gain.
        assert!(!claim(Better::Lower, &base[..9], &around(90.0, 0.02, 9)).met);
        // Two losses in ten fall short of nine tenths.
        let mut new = around(90.0, 0.02, 10);
        new[0] = 200.0;
        new[1] = 200.0;
        let c = claim(Better::Lower, &base, &new);
        assert_eq!(c.wins, 8);
        assert!(!c.met);
        // Winning every pair by less than the base's IQR is not a gain.
        let wide = around(100.0, 0.2, 10);
        let barely: Vec<f64> = wide.iter().map(|v| v - 1.0).collect();
        let c = claim(Better::Lower, &wide, &barely);
        assert_eq!(c.wins, 10);
        assert!(!c.met);
    }

    #[test]
    fn a_rise_in_failures_is_visible_per_workload() {
        let rec = |failed| Record {
            workload: "fleet_mixed".to_string(),
            seed: 1,
            seconds: 20.0,
            traced: false,
            cores: 2,
            threads: 2,
            correct: true,
            attempted: 1000,
            failed,
            metrics: BTreeMap::new(),
        };
        let base = failed_share(&[rec(0), rec(0)]);
        let new = failed_share(&[rec(0), rec(3)]);
        assert_eq!(base["fleet_mixed"], 0.0);
        assert!(new["fleet_mixed"] > base["fleet_mixed"]);
    }
}
