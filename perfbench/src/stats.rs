//! Sample statistics, name rules, failure accounting and the regression
//! check the benchmark's numbers are judged by.

use std::collections::{BTreeMap, BTreeSet};

/// Samples that must lie beyond a reported percentile: a p99 needs at
/// least 1 000 samples, a median at least 20.
pub const MIN_TAIL_SAMPLES: f64 = 10.0;

/// The smallest sample count at which percentile `q` (in `(0, 1)`) has
/// [`MIN_TAIL_SAMPLES`] samples beyond it.
#[must_use]
pub fn min_samples_for(q: f64) -> usize {
    (MIN_TAIL_SAMPLES / (1.0 - q) - 1e-9).ceil() as usize
}

/// Percentile `q` of `samples` by linear interpolation between order
/// statistics, or `None` when fewer than [`min_samples_for`]`(q)` samples
/// back it.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.len() < min_samples_for(q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(interpolate(&sorted, q))
}

/// Median of any non-empty sample (no tail rule: a median of a handful
/// of whole-pass figures is what a run reports).
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(interpolate(&sorted, 0.5))
}

/// Arithmetic mean of a non-empty sample.
#[must_use]
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

fn interpolate(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Inter-quartile range over the median, with quartiles computed the way
/// Python's `statistics.quantiles(values, n=4)` computes them (the
/// "exclusive" method). `None` below two samples or at a zero median.
#[must_use]
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let m = n + 1;
    let quartile = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let med = median(&sorted)?;
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med.abs())
}

/// Metric and workload names: 1–64 characters from `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// Units: 1–16 characters from `[A-Za-z0-9_/%.-]`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Operations attempted and failed across a run. Steps returning `Err`,
/// shed placements, failed recoveries and failed correctness gates all
/// count as failures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure (gates and recoveries; shed and `Err` steps
    /// are summarised by count).
    pub reasons: Vec<String>,
}

impl Accounting {
    /// Counts `n` attempts of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Counts one checked operation; a failure is recorded with `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.reasons.push(why());
        }
    }

    /// Adds another run's counts.
    pub fn merge(&mut self, other: Accounting) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
    }

    /// `failed / attempted` (0 when nothing was attempted).
    #[must_use]
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (latencies, sizes).
    Lower,
    /// Larger values are better (throughputs).
    Higher,
}

/// An end-to-end metric's regression bound: the share of the baseline
/// median by which it may get worse.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening as a share of the baseline median.
    pub bound: f64,
}

/// One run's metrics by name.
pub type RunMetrics = BTreeMap<String, f64>;

/// One run's result, as its report records it.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload the run measured.
    pub workload: String,
    /// Seed of its input.
    pub seed: String,
    /// Every gate passed and every listed metric was measured.
    pub correct: bool,
    /// Failed operations and gates.
    pub failed: u64,
    /// Metrics by name (ignored unless `correct`).
    pub metrics: RunMetrics,
}

/// Compares two sets of runs workload by workload and returns one line
/// per problem: a run on either side that failed its gates, a workload
/// that only one side ran, or an end-to-end metric whose median over a
/// workload's correct runs got worse by more than its bound (or is
/// missing from either side). An empty result means no regression.
#[must_use]
pub fn regressions(bounds: &[Bound], base: &[Run], new: &[Run]) -> Vec<String> {
    let mut out = Vec::new();
    for (side, runs) in [("base", base), ("new", new)] {
        for r in runs.iter().filter(|r| !r.correct) {
            out.push(format!(
                "{side} {} seed {}: failed ({} failed operations)",
                r.workload, r.seed, r.failed
            ));
        }
    }
    let workloads: BTreeSet<&str> = base
        .iter()
        .chain(new)
        .map(|r| r.workload.as_str())
        .collect();
    for w in workloads {
        let values = |runs: &[Run], name: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.workload == w && r.correct)
                .filter_map(|r| r.metrics.get(name).copied())
                .collect()
        };
        for b in bounds {
            let (bv, nv) = (values(base, &b.name), values(new, &b.name));
            let (Some(bm), Some(nm)) = (median(&bv), median(&nv)) else {
                out.push(format!("{w} {}: missing from one side", b.name));
                continue;
            };
            let worse = match b.better {
                Better::Lower => nm > bm * (1.0 + b.bound),
                Better::Higher => nm < bm * (1.0 - b.bound),
            };
            if worse {
                out.push(format!(
                    "{w} {}: median {nm} vs baseline {bm} is worse by more than {}%",
                    b.name,
                    b.bound * 100.0
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples_for(0.5), 20);
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(min_samples_for(0.99), 1000);
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&short, 0.99), None);
        let long: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = percentile(&long, 0.99).unwrap();
        assert!((p99 - 989.01).abs() < 1e-9, "{p99}");
        assert_eq!(percentile(&long[..20], 0.5), Some(9.5));
        assert_eq!(percentile(&long[..19], 0.5), None);
    }

    #[test]
    fn median_interpolates_and_ignores_order() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        let s = quartile_spread(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "{s}");
        assert_eq!(quartile_spread(&[1.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn metric_names_use_the_restricted_charset() {
        for ok in ["events_per_s", "engine.place_ms", "lp.pivots", "a-b", "9x"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "x y", "µs", "a/b", "x\"", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "us", "s", "1/s", "%", "count", "B", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "m s", &"x".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn failed_ratio_counts_every_kind_of_failure() {
        let mut a = Accounting::default();
        assert_eq!(a.failed_ratio(), 0.0);
        a.ops(96, 0); // steps, none returned Err
        a.ops(0, 0);
        a.check(true, || unreachable!());
        a.check(false, || "ledger drift".to_string());
        a.ops(2, 1); // placements, one shed
        assert_eq!((a.attempted, a.failed), (100, 2));
        assert!((a.failed_ratio() - 0.02).abs() < 1e-12);
        assert_eq!(a.reasons, vec!["ledger drift".to_string()]);
        let mut b = Accounting::default();
        b.check(false, || "recovery failed".to_string());
        a.merge(b);
        assert_eq!((a.attempted, a.failed, a.reasons.len()), (101, 3, 2));
    }

    fn run(workload: &str, seed: u64, eps: f64, ms: f64) -> Run {
        Run {
            workload: workload.to_string(),
            seed: seed.to_string(),
            correct: true,
            failed: 0,
            metrics: RunMetrics::from([
                ("events_per_s".to_string(), eps),
                ("step_ms".to_string(), ms),
            ]),
        }
    }

    fn runs(workload: &str, values: &[(f64, f64)]) -> Vec<Run> {
        values
            .iter()
            .enumerate()
            .map(|(i, &(eps, ms))| run(workload, i as u64, eps, ms))
            .collect()
    }

    fn bounds() -> Vec<Bound> {
        vec![
            Bound {
                name: "events_per_s".into(),
                better: Better::Higher,
                bound: 0.1,
            },
            Bound {
                name: "step_ms".into(),
                better: Better::Lower,
                bound: 0.2,
            },
        ]
    }

    #[test]
    fn identical_result_sets_pass_the_bound_check() {
        let base = runs("w", &[(100.0, 1.0), (104.0, 1.1), (98.0, 0.9)]);
        assert!(regressions(&bounds(), &base, &base).is_empty());
        // Within the bounds on both sides of the baseline.
        let near = runs("w", &[(91.0, 1.19), (95.0, 1.15), (93.0, 1.18)]);
        assert!(regressions(&bounds(), &base, &near).is_empty());
    }

    #[test]
    fn a_regression_past_a_bound_fails_the_check() {
        let base = runs("w", &[(100.0, 1.0), (104.0, 1.1), (98.0, 0.9)]);
        let slower = runs("w", &[(89.0, 1.0), (88.0, 1.0), (90.0, 1.0)]);
        let found = regressions(&bounds(), &base, &slower);
        assert_eq!(found.len(), 1);
        assert!(found[0].starts_with("w events_per_s"), "{found:?}");
        let laggier = runs("w", &[(100.0, 1.3), (100.0, 1.21), (100.0, 1.25)]);
        let found = regressions(&bounds(), &base, &laggier);
        assert_eq!(found.len(), 1);
        assert!(found[0].starts_with("w step_ms"), "{found:?}");
        // Getting better by any amount is never a regression.
        let faster = runs("w", &[(300.0, 0.1), (310.0, 0.1), (290.0, 0.1)]);
        assert!(regressions(&bounds(), &base, &faster).is_empty());
        // A metric that vanished counts against the change.
        let mut missing = base.clone();
        for r in &mut missing {
            r.metrics.remove("step_ms");
        }
        let found = regressions(&bounds(), &base, &missing);
        assert_eq!(found, vec!["w step_ms: missing from one side".to_string()]);
    }

    #[test]
    fn workloads_are_compared_separately_and_failed_runs_count() {
        // A fast and a slow workload. Pooled, the slow one's 2x step time
        // would hide behind the fast one's median.
        let mut base = runs("fast", &[(1000.0, 0.1), (1000.0, 0.1), (1000.0, 0.1)]);
        base.extend(runs("slow", &[(10.0, 1.0), (10.0, 1.0), (10.0, 1.0)]));
        let mut new = runs("fast", &[(1000.0, 0.1); 6]);
        new.extend(runs("slow", &[(10.0, 2.0), (10.0, 2.0), (10.0, 2.0)]));
        let found = regressions(&bounds(), &base, &new);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("slow step_ms"), "{found:?}");
        // A workload only one side ran is reported.
        let found = regressions(&bounds(), &base, &base[..3]);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().all(|f| f.starts_with("slow ")), "{found:?}");
        // A run that failed its gates fails the check, even when the
        // correct runs keep their medians.
        let mut broken = base.clone();
        broken.push(Run {
            correct: false,
            failed: 2,
            metrics: RunMetrics::new(),
            ..run("slow", 9, 0.0, 0.0)
        });
        assert!(regressions(&bounds(), &base, &base).is_empty());
        let found = regressions(&bounds(), &base, &broken);
        assert_eq!(
            found,
            vec!["new slow seed 9: failed (2 failed operations)".to_string()]
        );
        let found = regressions(&bounds(), &broken, &base);
        assert_eq!(found.len(), 1);
        assert!(found[0].starts_with("base slow seed 9"), "{found:?}");
    }
}
