//! Conformance report aggregation and the hand-rolled JSON emitter for
//! `results/conformance.json` (no serde: the workspace builds offline).
//!
//! Schema (`nufft-conformance/v1`):
//!
//! ```json
//! {
//!   "schema": "nufft-conformance/v1",
//!   "tier": "quick",
//!   "summary": {"total": 412, "pass": 400, "fail": 0, "skip": 12,
//!               "max_ratio": 0.41},
//!   "cells": [
//!     {"name": "t1-2d-f64-gm-pow2-rand-eps1e-05", "type": "t1",
//!      "dim": 2, "precision": "f64", "backend": "gm",
//!      "family": "pow2", "dist": "rand", "modes": [32, 32], "m": 220,
//!      "eps": 1e-5, "rel_l2": 1.1e-5, "envelope": 6.2e-5,
//!      "ratio": 0.18, "outcome": "pass"},
//!     {"name": "...", "outcome": "skip", "reason": "..."}
//!   ]
//! }
//! ```
//!
//! `ratio = rel_l2 / envelope`: below 1 passes, and the margin tells you
//! how much headroom a cell has before it would trip. Skipped cells have
//! no `rel_l2` and carry a `reason` instead (the only expected one is
//! the SM shared-memory feasibility limit of paper Remark 2).

use crate::{CellResult, Outcome, Tier};
use nufft_trace::chrome::escape;

/// Aggregated result of a conformance run.
pub struct Report {
    pub tier: Tier,
    pub results: Vec<CellResult>,
}

impl Report {
    pub fn new(tier: Tier, results: Vec<CellResult>) -> Self {
        Report { tier, results }
    }

    pub fn pass_count(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Pass))
    }

    pub fn fail_count(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Fail))
    }

    pub fn skip_count(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Skip(_)))
    }

    fn count(&self, f: impl Fn(&Outcome) -> bool) -> usize {
        self.results.iter().filter(|r| f(&r.outcome)).count()
    }

    /// Worst `rel_l2 / envelope` across all evaluated cells.
    pub fn max_ratio(&self) -> f64 {
        self.results.iter().map(|r| r.ratio()).fold(0.0, f64::max)
    }

    /// Cells that violated the envelope.
    pub fn failures(&self) -> Vec<&CellResult> {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Fail))
            .collect()
    }

    /// Serialize to the `nufft-conformance/v1` JSON schema.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.results.len() * 256);
        s.push_str("{\n");
        s.push_str("  \"schema\": \"nufft-conformance/v1\",\n");
        s.push_str(&format!("  \"tier\": \"{}\",\n", self.tier.label()));
        s.push_str(&format!(
            "  \"summary\": {{\"total\": {}, \"pass\": {}, \"fail\": {}, \"skip\": {}, \"max_ratio\": {}}},\n",
            self.results.len(),
            self.pass_count(),
            self.fail_count(),
            self.skip_count(),
            json_f64(self.max_ratio()),
        ));
        s.push_str("  \"cells\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            s.push_str("    {");
            s.push_str(&format!("\"name\": \"{}\", ", escape(&r.cell.name())));
            s.push_str(&format!(
                "\"type\": \"{}\", ",
                match r.cell.ttype {
                    nufft_common::TransformType::Type1 => "t1",
                    nufft_common::TransformType::Type2 => "t2",
                }
            ));
            s.push_str(&format!("\"dim\": {}, ", r.cell.dim));
            s.push_str(&format!(
                "\"precision\": \"{}\", ",
                if r.cell.double { "f64" } else { "f32" }
            ));
            s.push_str(&format!("\"backend\": \"{}\", ", r.cell.backend.label()));
            s.push_str(&format!("\"family\": \"{}\", ", r.cell.family.label()));
            s.push_str(&format!(
                "\"dist\": \"{}\", ",
                match r.cell.dist {
                    nufft_common::workload::PointDist::Rand => "rand",
                    nufft_common::workload::PointDist::Cluster => "cluster",
                }
            ));
            s.push_str(&format!(
                "\"modes\": [{}], ",
                r.modes
                    .iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            s.push_str(&format!("\"m\": {}, ", r.m));
            s.push_str(&format!("\"eps\": {}, ", json_f64(r.cell.eps)));
            if let Some(e) = r.rel_l2 {
                s.push_str(&format!("\"rel_l2\": {}, ", json_f64(e)));
            }
            s.push_str(&format!("\"envelope\": {}, ", json_f64(r.envelope)));
            s.push_str(&format!("\"ratio\": {}, ", json_f64(r.ratio())));
            match &r.outcome {
                Outcome::Pass => s.push_str("\"outcome\": \"pass\""),
                Outcome::Fail => s.push_str("\"outcome\": \"fail\""),
                Outcome::Skip(reason) => s.push_str(&format!(
                    "\"outcome\": \"skip\", \"reason\": \"{}\"",
                    escape(reason)
                )),
            }
            s.push('}');
            if i + 1 < self.results.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Write the JSON table, creating the parent directory if needed.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// One-line human summary.
    pub fn summary_line(&self) -> String {
        format!(
            "conformance[{}]: {} cells, {} pass, {} fail, {} skip, max ratio {:.2}",
            self.tier.label(),
            self.results.len(),
            self.pass_count(),
            self.fail_count(),
            self.skip_count(),
            self.max_ratio(),
        )
    }
}

/// Finite f64 to JSON number (JSON has no inf/nan; clamp defensively).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, Cell, GridFamily};
    use cufinufft::opts::Method;
    use nufft_common::workload::PointDist;
    use nufft_common::TransformType;

    fn sample_result(outcome: Outcome) -> CellResult {
        CellResult {
            cell: Cell {
                ttype: TransformType::Type1,
                dim: 2,
                double: true,
                backend: Backend::Gpu(Method::Gm),
                eps: 1e-5,
                dist: PointDist::Rand,
                family: GridFamily::PowTwo,
            },
            modes: vec![32, 32],
            m: 220,
            rel_l2: if matches!(outcome, Outcome::Skip(_)) {
                None
            } else {
                Some(1.1e-5)
            },
            envelope: 6.1e-5,
            outcome,
        }
    }

    #[test]
    fn json_is_well_formed_and_counts_match() {
        let report = Report::new(
            Tier::Quick,
            vec![
                sample_result(Outcome::Pass),
                sample_result(Outcome::Fail),
                sample_result(Outcome::Skip("SM infeasible".into())),
            ],
        );
        assert_eq!(report.pass_count(), 1);
        assert_eq!(report.fail_count(), 1);
        assert_eq!(report.skip_count(), 1);
        let json = report.to_json();
        // structural sanity without a parser dependency
        assert_eq!(json.matches("\"name\"").count(), 3);
        assert_eq!(json.matches("\"outcome\": \"skip\"").count(), 1);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"schema\": \"nufft-conformance/v1\""));
        assert!(json.contains("\"reason\": \"SM infeasible\""));
        // skipped cells carry no rel_l2 field
        assert_eq!(json.matches("\"rel_l2\"").count(), 2);
    }

    #[test]
    fn escape_handles_quotes_and_control() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_numbers_are_finite() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1e-5), "1e-5");
    }
}
