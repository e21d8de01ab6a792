//! Experiment output structure: human-readable lines plus CSV series.

use apples_core::report::Csv;
use apples_obs::Provenance;

/// One experiment's complete output.
#[derive(Debug)]
pub struct ExperimentReport {
    /// Stable experiment id (e.g. `fig3`).
    pub id: &'static str,
    /// Title matching the paper artifact.
    pub title: &'static str,
    /// What the paper reports/claims for this artifact.
    pub paper: Vec<String>,
    /// What we measured/derived.
    pub measured: Vec<String>,
    /// Machine-readable series, named.
    pub tables: Vec<(String, Csv)>,
    /// Replay stamp: seed, fault digest, config digest, toolchain,
    /// git rev. Stamped by the experiment runner so every
    /// rendered artifact says what produced it.
    pub provenance: Option<Provenance>,
}

impl ExperimentReport {
    /// Creates an empty report shell.
    pub fn new(id: &'static str, title: &'static str) -> Self {
        ExperimentReport {
            id,
            title,
            paper: Vec::new(),
            measured: Vec::new(),
            tables: Vec::new(),
            provenance: None,
        }
    }

    /// Attaches the replay stamp rendered at the end of the report.
    pub fn set_provenance(&mut self, p: Provenance) -> &mut Self {
        self.provenance = Some(p);
        self
    }

    /// Adds a paper-side line.
    pub fn paper_line(&mut self, s: impl Into<String>) -> &mut Self {
        self.paper.push(s.into());
        self
    }

    /// Adds a measured-side line.
    pub fn measured_line(&mut self, s: impl Into<String>) -> &mut Self {
        self.measured.push(s.into());
        self
    }

    /// Attaches a named CSV table.
    pub fn table(&mut self, name: impl Into<String>, csv: Csv) -> &mut Self {
        self.tables.push((name.into(), csv));
        self
    }

    /// Renders the report as GitHub-flavored markdown (tables included).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## `{}` — {}\n\n", self.id, self.title));
        if !self.paper.is_empty() {
            out.push_str("**Paper:**\n\n");
            for l in &self.paper {
                out.push_str(&format!("> {l}\n"));
            }
            out.push('\n');
        }
        if !self.measured.is_empty() {
            out.push_str("**Measured:**\n\n");
            for l in &self.measured {
                out.push_str(&format!("- {l}\n"));
            }
            out.push('\n');
        }
        for (name, csv) in &self.tables {
            out.push_str(&format!("### {name}\n\n{}\n", csv.to_markdown()));
        }
        if let Some(p) = &self.provenance {
            out.push_str(&format!("**Provenance:** `{}`\n", p.render_compact()));
        }
        out
    }

    /// Renders the report as plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("=== [{}] {} ===\n", self.id, self.title));
        if !self.paper.is_empty() {
            out.push_str("paper:\n");
            for l in &self.paper {
                out.push_str(&format!("  {l}\n"));
            }
        }
        if !self.measured.is_empty() {
            out.push_str("measured:\n");
            for l in &self.measured {
                out.push_str(&format!("  {l}\n"));
            }
        }
        for (name, csv) in &self.tables {
            out.push_str(&format!("--- {name} ---\n{csv}"));
        }
        if let Some(p) = &self.provenance {
            out.push_str(&format!("provenance: {}\n", p.render_compact()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_render_produces_tables() {
        let mut r = ExperimentReport::new("figY", "Markdown check");
        r.paper_line("claims");
        r.measured_line("got");
        let mut csv = Csv::new(["a", "b"]);
        csv.row_f64([1.0, 2.0]);
        csv.row(["5.3 [4.4, 6.2]", "x"]);
        r.table("series", csv);
        let md = r.render_markdown();
        assert!(md.contains("## `figY`"), "{md}");
        assert!(md.contains("| a | b |"), "{md}");
        assert!(md.contains("|---|---|"), "{md}");
        // A field with a comma stays one cell, without CSV quotes.
        assert!(md.contains("\n| 5.3 [4.4, 6.2] | x |\n"), "{md}");
        assert!(md.contains("> claims"), "{md}");
        assert!(md.contains("- got"), "{md}");
    }

    #[test]
    fn provenance_renders_in_both_formats() {
        let mut r = ExperimentReport::new("figZ", "Provenance check");
        r.measured_line("ok");
        assert!(!r.render().contains("provenance:"), "unstamped report carries no stamp");
        r.set_provenance(Provenance::new(9, "none", "cafe"));
        let text = r.render();
        assert!(text.contains("provenance: seed=9 fault=none"), "{text}");
        let md = r.render_markdown();
        assert!(md.contains("**Provenance:** `seed=9"), "{md}");
    }

    #[test]
    fn render_contains_all_sections() {
        let mut r = ExperimentReport::new("figX", "A test figure");
        r.paper_line("claims 2x");
        r.measured_line("got 1.9x");
        let mut csv = Csv::new(["a", "b"]);
        csv.row_f64([1.0, 2.0]);
        r.table("series", csv);
        let s = r.render();
        assert!(s.contains("[figX]"));
        assert!(s.contains("claims 2x"));
        assert!(s.contains("got 1.9x"));
        assert!(s.contains("--- series ---"));
        assert!(s.contains("a,b"));
    }
}
