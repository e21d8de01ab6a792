//! Report rendering: human-readable evaluation write-ups and a tiny CSV
//! emitter for machine-readable experiment outputs.
//!
//! The paper asks evaluations to *report* — both axes, the metric's
//! principle compliance, the scaling assumptions, and the verdict — so
//! that future papers can reuse the numbers as baselines. [`render_text`]
//! produces that write-up; [`Csv`] serializes the raw series.

use crate::evaluate::EvaluationResult;
use crate::verdict::Verdict;

/// Renders an evaluation result as a plain-text report.
pub fn render_text(r: &EvaluationResult) -> String {
    let mut out = String::new();
    out.push_str(&format!("## Fair comparison: {} vs {}\n", r.proposed.name(), r.baseline.name()));
    out.push_str(&format!("proposed : {}\n", r.proposed.point()));
    out.push_str(&format!("baseline : {}\n", r.baseline.point()));

    let cost_metric = r.proposed.point().cost().metric();
    out.push_str(&format!("cost metric: {}", cost_metric));
    if let Some(caveat) = cost_metric.caveat() {
        out.push_str(&format!(" (caveat: {caveat})"));
    }
    out.push('\n');

    if r.violations.is_empty() {
        out.push_str("principles 1-3: satisfied for these systems\n");
    } else {
        out.push_str("principle violations:\n");
        for v in &r.violations {
            out.push_str(&format!("  - {v}\n"));
        }
    }

    out.push_str(&format!("operating regime: {}\n", r.regime));
    out.push_str(&format!("pareto relation : proposed {} baseline\n", r.relation));

    if let Verdict::Scaled { anchors, .. } = &r.verdict {
        out.push_str("scaled anchors:\n");
        for a in anchors {
            out.push_str(&format!("  - {a}\n"));
        }
    }

    out.push_str(&format!("verdict: {}\n", r.verdict));
    out
}

/// Renders an evaluation result as GitHub-flavored markdown, suitable
/// for pasting into a paper's artifact appendix or a PR description.
pub fn render_markdown(r: &EvaluationResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "### Fair comparison: `{}` vs `{}`\n\n",
        r.proposed.name(),
        r.baseline.name()
    ));
    out.push_str("| | performance | cost |\n|---|---|---|\n");
    out.push_str(&format!(
        "| proposed | {} | {} |\n",
        r.proposed.point().perf(),
        r.proposed.point().cost()
    ));
    out.push_str(&format!(
        "| baseline | {} | {} |\n\n",
        r.baseline.point().perf(),
        r.baseline.point().cost()
    ));

    if r.violations.is_empty() {
        out.push_str("- cost metric satisfies principles 1–3 for these systems\n");
    } else {
        out.push_str("- **principle violations:**\n");
        for v in &r.violations {
            out.push_str(&format!("  - {v}\n"));
        }
    }
    out.push_str(&format!("- operating regime: {}\n", r.regime));
    out.push_str(&format!("- Pareto relation: proposed {} baseline\n", r.relation));
    if let Verdict::Scaled { anchors, notes, .. } = &r.verdict {
        for a in anchors {
            out.push_str(&format!("- anchor {a}\n"));
        }
        for n in notes {
            out.push_str(&format!("- note: {n}\n"));
        }
    }
    out.push_str(&format!("\n**Verdict:** {}\n", r.verdict));
    out
}

/// A minimal table builder with two renderings: CSV (its `Display`,
/// quoting fields that contain separators, per RFC 4180's essentials)
/// and a markdown table ([`Csv::to_markdown`]). Kept tiny on purpose —
/// experiment outputs are simple numeric series.
#[derive(Debug, Clone, Default)]
pub struct Csv {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Csv {
    /// Starts a table with the given column names.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Csv { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row; panics if the width differs from the header.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width must match header");
        self.rows.push(row);
        self
    }

    /// Appends a row of floats formatted with 6 significant digits.
    pub fn row_f64(&mut self, cells: impl IntoIterator<Item = f64>) -> &mut Self {
        self.row(cells.into_iter().map(|v| format!("{v:.6}")))
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn write_row(out: &mut String, cells: &[String]) {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if cell.contains([',', '"', '\n']) {
                out.push('"');
                out.push_str(&cell.replace('"', "\"\""));
                out.push('"');
            } else {
                out.push_str(cell);
            }
        }
        out.push('\n');
    }

    /// Renders the table as a GitHub-flavored markdown table: a header
    /// row, a separator, then one row per data row, each field in one
    /// cell as written (no CSV quoting), with `|` escaped.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        Self::write_markdown_row(&mut out, &self.header);
        out.push('|');
        out.push_str(&"---|".repeat(self.header.len()));
        out.push('\n');
        for r in &self.rows {
            Self::write_markdown_row(&mut out, r);
        }
        out
    }

    fn write_markdown_row(out: &mut String, cells: &[String]) {
        out.push('|');
        for cell in cells {
            out.push(' ');
            out.push_str(&cell.replace('|', "\\|"));
            out.push_str(" |");
        }
        out.push('\n');
    }
}

impl std::fmt::Display for Csv {
    /// Serializes the table (header row, then data rows).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        Self::write_row(&mut out, &self.header);
        for r in &self.rows {
            Self::write_row(&mut out, r);
        }
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::Evaluation;
    use crate::point::test_support::tp;
    use crate::point::System;
    use crate::scaling::IdealLinear;
    use apples_metrics::cost::DeviceClass;

    fn result() -> EvaluationResult {
        Evaluation::new(
            System::new(
                "fw+switch",
                vec![DeviceClass::Cpu, DeviceClass::ProgrammableSwitch],
                tp(100.0, 200.0),
            ),
            System::new("fw", vec![DeviceClass::Cpu, DeviceClass::Nic], tp(35.0, 100.0)),
        )
        .with_baseline_scaling(&IdealLinear)
        .run()
    }

    #[test]
    fn text_report_contains_all_sections() {
        let s = render_text(&result());
        for needle in [
            "fw+switch",
            "operating regime",
            "pareto relation",
            "scaled anchors",
            "verdict",
            "principles 1-3: satisfied",
        ] {
            assert!(s.contains(needle), "missing '{needle}' in:\n{s}");
        }
    }

    #[test]
    fn text_report_lists_violations_when_present() {
        use apples_metrics::cost::CostMetric;
        use apples_metrics::perf::PerfMetric;
        use apples_metrics::quantity::{cores, gbps};
        let p = crate::OperatingPoint::new(
            PerfMetric::throughput_bps().value(gbps(20.0)),
            CostMetric::cpu_cores().value(cores(2.0)),
        );
        let b = crate::OperatingPoint::new(
            PerfMetric::throughput_bps().value(gbps(10.0)),
            CostMetric::cpu_cores().value(cores(4.0)),
        );
        let r = Evaluation::new(
            System::new("accel", vec![DeviceClass::Cpu, DeviceClass::Fpga], p),
            System::new("cpu", vec![DeviceClass::Cpu], b),
        )
        .run();
        let s = render_text(&r);
        assert!(s.contains("principle violations"), "{s}");
        assert!(s.contains("principle 3 violation"), "{s}");
    }

    #[test]
    fn markdown_report_contains_table_and_verdict() {
        let s = render_markdown(&result());
        assert!(s.contains("| proposed |"), "{s}");
        assert!(s.contains("| baseline |"), "{s}");
        assert!(s.contains("**Verdict:**"), "{s}");
        assert!(s.contains("anchor at equal performance"), "{s}");
        assert!(s.contains("principles 1–3"), "{s}");
    }

    #[test]
    fn csv_round_trip_basics() {
        let mut t = Csv::new(["k", "gbps", "watts"]);
        t.row_f64([1.0, 10.0, 50.0]);
        t.row_f64([2.0, 18.0, 80.0]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "k,gbps,watts");
        assert!(lines[1].starts_with("1.000000,10.000000"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_quotes_special_characters() {
        let mut t = Csv::new(["name", "note"]);
        t.row(["a,b", "say \"hi\""]);
        let s = t.to_string();
        assert!(s.contains("\"a,b\""));
        assert!(s.contains("\"say \"\"hi\"\"\""));
        // The markdown rendering keeps each field in one cell, unquoted.
        t.row(["x|y", ""]);
        assert_eq!(
            t.to_markdown(),
            "| name | note |\n|---|---|\n| a,b | say \"hi\" |\n| x\\|y |  |\n"
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn csv_rejects_ragged_rows() {
        let mut t = Csv::new(["a", "b"]);
        t.row(["only one"]);
    }
}
