//! The run's result document: metrics with units, run facts, and the
//! verdicts of the correctness checks, rendered as one JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Facts about the run that are not metrics: sample counts, tile mix,
    /// per-call operation counts. Name → number.
    pub info: BTreeMap<String, f64>,
    /// Correctness checks: name → failure message (`None` = passed).
    pub checks: BTreeMap<String, Option<String>>,
    /// Operations (evaluations, fits, factorizations) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    pub fn info(&mut self, name: impl Into<String>, value: f64) {
        self.info.insert(name.into(), value);
    }

    /// Record a correctness check; a failing check fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks
            .insert(name.to_string(), if ok { None } else { Some(detail()) });
    }

    /// Count one operation, failed or not.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Every check passed, no operation failed and every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.checks.values().all(Option::is_none)
            && self.failed == 0
            && self.metrics.values().all(|(v, _)| v.is_finite())
    }

    pub fn to_json(&self) -> String {
        let mut s = String::new();
        write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        )
        .expect("write to String");
        for (i, (name, (v, unit))) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
            .expect("write to String");
        }
        s.push_str("}, \"info\": {");
        for (i, (name, v)) in self.info.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(s, "{sep}\"{name}\": {}", num(*v)).expect("write to String");
        }
        s.push_str("}, \"checks\": {");
        for (i, (name, verdict)) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = match verdict {
                None => "\"ok\"".to_string(),
                Some(msg) => format!("\"FAILED: {}\"", msg.replace(['"', '\\'], "'")),
            };
            write!(s, "{sep}\"{name}\": {v}").expect("write to String");
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number; non-finite values become `null` (and fail the run).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn failing_check_or_op_makes_run_incorrect() {
        let mut r = Report::default();
        r.metric("op_s", 1.5, "s");
        r.attempt(true);
        r.check("a", true, String::new);
        assert!(r.correct());
        r.check("b", false, || "bad \"thing\"".into());
        assert!(!r.correct());
        let json = r.to_json();
        assert!(json.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 0"));
        assert!(json.contains("\"b\": \"FAILED: bad 'thing'\""));

        let mut r = Report::default();
        r.attempt(false);
        assert!(!r.correct());
        let mut r = Report::default();
        r.metric("x", f64::NAN, "s");
        assert!(!r.correct());
        assert!(r.to_json().contains("\"value\": null"));
    }
}
