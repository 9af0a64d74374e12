//! `jitsu_benchmark agree <dir_a> <dir_b>`: do two sets of runs of one commit
//! agree within the benchmark's own bounds?
//!
//! `check.sh` writes each run's result line to `<dir>/<workload>.e2e.json`
//! (`--trace 0`) and `<dir>/<workload>.layers.json` (`--trace 1`). End-to-end
//! metrics must agree within their bound; counts and simulated statistics
//! must agree exactly; host timings of single layers are listed without a
//! verdict, since they have no bound.

use crate::json::{self, Value};
use crate::metrics::{Spec, END_TO_END, PER_LAYER};
use crate::WORKLOADS;
use std::path::Path;

fn read_result(dir: &Path, workload: &str, kind: &str) -> Result<Value, String> {
    let path = dir.join(format!("{workload}.{kind}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{}: the run was not correct", path.display()));
    }
    Ok(doc)
}

fn metric(doc: &Value, spec: &Spec) -> Result<f64, String> {
    let m = doc
        .get("metrics")
        .and_then(|m| m.get(spec.name))
        .ok_or_else(|| format!("metric {} is missing", spec.name))?;
    if m.get("unit").and_then(Value::as_str) != Some(spec.unit) {
        return Err(format!("metric {} is not in {}", spec.name, spec.unit));
    }
    m.get("value")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("metric {} has no value", spec.name))
}

/// How far apart two readings are, as a share of the smaller.
pub fn relative_gap(a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    (a - b).abs() / a.abs().min(b.abs())
}

/// Print the agreement table; `Ok(misses)`.
pub fn run(dir_a: &Path, dir_b: &Path) -> Result<usize, String> {
    let mut misses = 0;
    println!(
        "{:<15} {:<32} {:>16} {:>16} {:>8} {:>7}  verdict",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for workload in WORKLOADS {
        for (kind, catalogue) in [("e2e", END_TO_END), ("layers", PER_LAYER)] {
            let a = read_result(dir_a, workload, kind)?;
            let b = read_result(dir_b, workload, kind)?;
            for count in ["attempted", "failed"] {
                if a.get(count) != b.get(count) {
                    println!("{workload:<15} {count:<32} differs between the sets  MISS");
                    misses += 1;
                }
            }
            for spec in catalogue {
                let (x, y) = (metric(&a, spec)?, metric(&b, spec)?);
                let gap = relative_gap(x, y);
                let (bound, verdict) = match spec.bound {
                    Some(bound) if gap <= bound => (format!("{bound}"), "ok"),
                    Some(bound) => (format!("{bound}"), "MISS"),
                    None if !spec.exact => ("-".to_string(), "(no bound)"),
                    None if x.to_bits() == y.to_bits() => ("exact".to_string(), "ok"),
                    None => ("exact".to_string(), "MISS"),
                };
                misses += usize::from(verdict == "MISS");
                println!(
                    "{workload:<15} {:<32} {x:>16.4} {y:>16.4} {:>7.2}% {bound:>7}  {verdict}",
                    spec.name,
                    gap * 100.0
                );
            }
        }
    }
    Ok(misses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_is_relative_to_the_smaller_reading() {
        assert_eq!(relative_gap(10.0, 11.0), 0.1);
        assert_eq!(relative_gap(11.0, 10.0), 0.1);
        assert_eq!(relative_gap(0.0, 0.0), 0.0);
        assert_eq!(relative_gap(5.0, 5.0), 0.0);
    }
}
