//! Output checks.
//!
//! Every rep's canonical report must be byte-identical to the first
//! rep's for the same workload and seed, and a report checked against an
//! independent run of the same spec must match it. The paper's metrics
//! (CCR, OER, ...) sit inside those bytes, so byte identity covers them.
//! A rep that fails a check counts all of its jobs as failed; a rep that
//! passes counts its timed-out and failed placeholder jobs.

use std::collections::BTreeMap;

use crate::workload::Rep;

/// Result of the checks of one run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Failed jobs per rep index.
    failed: BTreeMap<usize, usize>,
}

impl Verdict {
    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }

    /// Jobs counted as failed, over all reps.
    pub fn failed_jobs(&self) -> usize {
        self.failed.values().sum()
    }

    fn fail(&mut self, rep: usize, jobs: usize, problem: String) {
        let entry = self.failed.entry(rep).or_insert(0);
        *entry = (*entry).max(jobs);
        self.problems.push(problem);
    }

    /// Folds another verdict's findings into this one.
    pub fn merge(&mut self, other: Verdict) {
        self.problems.extend(other.problems);
        for (rep, jobs) in other.failed {
            let entry = self.failed.entry(rep).or_insert(0);
            *entry = (*entry).max(jobs);
        }
    }
}

/// Checks every rep against the first: no placeholder jobs, identical
/// report bytes.
pub fn reps(reps: &[Rep]) -> Verdict {
    let mut verdict = Verdict::default();
    let Some(first) = reps.first() else {
        return verdict;
    };
    for (i, rep) in reps.iter().enumerate() {
        if rep.report != first.report {
            verdict.fail(i, rep.jobs, format!("rep {i}: report differs from rep 0"));
        } else if rep.placeholders > 0 {
            let n = rep.placeholders;
            verdict.fail(i, n, format!("rep {i}: {n} job(s) timed out or failed"));
        }
    }
    verdict
}

/// Checks rep 0 of `rep`'s run against `other`, the report an
/// independent run (`what`) produced for the same spec.
pub fn same_report(what: &str, rep: &Rep, other: &str) -> Verdict {
    let mut verdict = Verdict::default();
    if rep.report != other {
        verdict.fail(0, rep.jobs, format!("report differs from the {what}"));
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::JournalFacts;

    fn rep(report: &str, jobs: usize, placeholders: usize) -> Rep {
        Rep {
            setup_s: 0.1,
            campaign_s: 1.0,
            report: report.to_string(),
            jobs,
            placeholders,
            journal: JournalFacts::default(),
            steals: 0,
        }
    }

    #[test]
    fn identical_reports_pass() {
        let v = reps(&[rep("{}", 8, 0), rep("{}", 8, 0)]);
        assert!(v.ok());
        assert_eq!(v.failed_jobs(), 0);
    }

    #[test]
    fn a_mismatching_report_fails_all_its_jobs() {
        let v = reps(&[
            rep("{\"a\": 1}", 8, 0),
            rep("{\"a\": 2}", 8, 0),
            rep("{\"a\": 1}", 8, 0),
        ]);
        assert!(!v.ok());
        assert_eq!(v.failed_jobs(), 8);
        assert!(v.problems[0].contains("rep 1"));
    }

    #[test]
    fn placeholder_jobs_count_as_failed() {
        let v = reps(&[rep("{}", 8, 2), rep("{}", 8, 2)]);
        assert!(!v.ok());
        assert_eq!(v.failed_jobs(), 4);
    }

    #[test]
    fn cross_check_mismatch_is_not_double_counted() {
        let runs = [rep("{}", 8, 3)];
        let mut v = reps(&runs);
        v.merge(same_report("solo sweep", &runs[0], "{\"x\": 0}"));
        assert_eq!(v.problems.len(), 2);
        assert_eq!(v.failed_jobs(), 8);
        assert!(same_report("solo sweep", &runs[0], "{}").ok());
    }
}
