//! Shared diagnostic vocabulary for the whole-application analyzer.
//!
//! The analyzer and `webml::validate` speak one language: every finding is
//! a [`Diagnostic`] with a *stable* code, a severity (shared with
//! `webml::Severity`), a location path, a message and an optional
//! *witness* — for dataflow findings, the navigation path that exhibits
//! the defect.
//!
//! Code spaces:
//! * `WVxxx` — local, per-construct validation ([`webml::validate()`]);
//! * `AZ0xx` — link-parameter dataflow (pass 1);
//! * `AZ1xx` — cache-invalidation soundness (pass 2);
//! * `AZ2xx` — descriptor/model cross-checks (pass 3);
//! * `AZ3xx` — query-plan quality advisories (pass 4);
//! * `AZ4xx` — distribution safety under read replicas (passes 6–7; codes
//!   start at `AZ404` and are never renumbered: they label the
//!   `analyze_distribution_total{code}` metric);
//! * `AZ5xx` — incremental-maintenance coverage (pass 8).

use std::collections::BTreeMap;
use std::fmt;

pub use webml::Severity;

/// AZ001: a consumed context parameter is defined on at least one but not
/// every navigation path reaching the consumer.
pub const AZ001: &str = "AZ001";
/// AZ002: a consumed context parameter is defined on *no* reaching path.
pub const AZ002: &str = "AZ002";
/// AZ003: an operation input is missing on some invocation path.
pub const AZ003: &str = "AZ003";
/// AZ004: an operation is not invocable from any page (warning).
pub const AZ004: &str = "AZ004";
/// AZ101: a cached unit's dependency list does not cover its read-set
/// (stale-serving hazard).
pub const AZ101: &str = "AZ101";
/// AZ102: an operation writes a table read by a cached unit but does not
/// invalidate it (stale-serving hazard).
pub const AZ102: &str = "AZ102";
/// AZ103: an operation invalidates a table no cached unit reads
/// (over-invalidation, warning).
pub const AZ103: &str = "AZ103";
/// AZ104: a unit is cached with neither TTL nor write-invalidation
/// (unbounded staleness).
pub const AZ104: &str = "AZ104";
/// AZ201: a descriptor has no counterpart in the model (orphan).
pub const AZ201: &str = "AZ201";
/// AZ202: a model element has no descriptor (or its page does not list it).
pub const AZ202: &str = "AZ202";
/// AZ203: a dangling reference inside the descriptor bundle.
pub const AZ203: &str = "AZ203";
/// AZ204: controller configuration and descriptor bundle disagree.
pub const AZ204: &str = "AZ204";
/// AZ301: a hot unit query probes a table with no derivable index — the
/// traversal degenerates to a full scan (plan-quality advisory).
pub const AZ301: &str = "AZ301";
/// AZ302: a `LIKE` selector cannot use an equality index; the unit scans
/// its whole table per request (plan-quality advisory).
pub const AZ302: &str = "AZ302";
/// AZ404: a page directly on an operation's OK/KO chain reads the
/// operation's write-set but is served replica-side without a session
/// floor (stale read-your-writes, error).
pub const AZ404: &str = "AZ404";
/// AZ405: as AZ404, but the reading page is only transitively reachable
/// from the operation's OK/KO chain (warning).
pub const AZ405: &str = "AZ405";
/// AZ406: two operations reachable from the same site view update the
/// same table's non-disjoint key space — concurrent submissions race
/// last-writer-wins, so one silently loses its update (warning).
pub const AZ406: &str = "AZ406";
/// AZ501: a cached unit's query shape is not incrementally maintainable —
/// under WAL-driven maintenance every dependent write drops and
/// recomputes its bean (warning).
pub const AZ501: &str = "AZ501";
/// AZ502: a cached unit's *kind* is outside the maintenance layer's
/// patchable set (scroller/hierarchy/entry) — same fallback, but fixable
/// only by changing the unit, not its query (warning).
pub const AZ502: &str = "AZ502";

/// Human-oriented summary of each analyzer code (for reports/docs).
pub fn describe(code: &str) -> &'static str {
    match code {
        AZ001 => "context parameter undefined on some reaching path",
        AZ002 => "context parameter undefined on every reaching path",
        AZ003 => "operation input undefined on an invocation path",
        AZ004 => "operation not invocable from any page",
        AZ101 => "cached unit dependency list misses part of its read-set",
        AZ102 => "write is not propagated to a cached reader",
        AZ103 => "invalidation triggers no cached reader",
        AZ104 => "cached unit has neither TTL nor write-invalidation",
        AZ201 => "descriptor without model counterpart",
        AZ202 => "model element without descriptor",
        AZ203 => "dangling reference in the descriptor bundle",
        AZ204 => "controller/bundle mismatch",
        AZ301 => "hot unit query has no usable index (full-scan join)",
        AZ302 => "LIKE selector forces a per-request table scan",
        AZ404 => "post-operation page may read stale data replica-side",
        AZ405 => "transitively reachable page may read stale data replica-side",
        AZ406 => "operations from one site view race on the same rows (lost update)",
        AZ501 => "cached unit's query shape defeats incremental maintenance",
        AZ502 => "cached unit's kind defeats incremental maintenance",
        _ => "model validation finding",
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`WVxxx` or `AZxxx`).
    pub code: &'static str,
    pub severity: Severity,
    /// Location path, e.g. `main/home/Books` or `op1_create_book`.
    pub location: String,
    pub message: String,
    /// For dataflow findings: a witness navigation path.
    pub witness: Option<String>,
}

impl Diagnostic {
    pub fn error(
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            location: location.into(),
            message: message.into(),
            witness: None,
        }
    }

    pub fn warning(
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Warning,
            location: location.into(),
            message: message.into(),
            witness: None,
        }
    }

    pub fn with_witness(mut self, witness: impl Into<String>) -> Diagnostic {
        self.witness = Some(witness.into());
        self
    }

    pub fn severity_str(&self) -> &'static str {
        match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

impl From<webml::Issue> for Diagnostic {
    fn from(i: webml::Issue) -> Diagnostic {
        Diagnostic {
            code: i.code,
            severity: i.severity,
            location: i.location,
            message: i.message,
            witness: None,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity_str(),
            self.code,
            self.location,
            self.message
        )?;
        if let Some(w) = &self.witness {
            write!(f, " (witness: {w})")?;
        }
        Ok(())
    }
}

/// Size of the lowered IR, carried on the report for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IrStats {
    pub pages: usize,
    pub units: usize,
    pub operations: usize,
    pub edges: usize,
}

/// The complete result of one analyzer run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    pub stats: IrStats,
}

impl Report {
    /// `true` when no Error-severity diagnostic exists.
    pub fn is_clean(&self) -> bool {
        !self.has_errors()
    }

    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// The distinct codes present, sorted.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = self.diagnostics.iter().map(|d| d.code).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Diagnostics carrying `code`.
    pub fn with_code<'a>(&'a self, code: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Drop duplicate findings: the validator and the analyzer passes may
    /// observe the same defect; a deploy-time report must show it once.
    /// Keyed on `(code, location, message)`; the first occurrence (and
    /// its witness) wins.
    pub fn dedup(&mut self) {
        let mut seen: std::collections::HashSet<(String, String, String)> =
            std::collections::HashSet::new();
        self.diagnostics
            .retain(|d| seen.insert((d.code.to_string(), d.location.clone(), d.message.clone())));
    }

    /// Stable presentation order: errors first, then by code, location.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            let sa = matches!(a.severity, Severity::Warning);
            let sb = matches!(b.severity, Severity::Warning);
            sa.cmp(&sb)
                .then_with(|| a.code.cmp(b.code))
                .then_with(|| a.location.cmp(&b.location))
                .then_with(|| a.message.cmp(&b.message))
        });
    }

    /// Canonicalize the report after all passes have contributed: dedup
    /// then sort, in that order, so interleaved pass families (AZ4xx
    /// beside AZ1xx–AZ3xx from the same deploy) always render stably.
    pub fn finish(&mut self) {
        self.dedup();
        self.sort();
    }

    /// Per-(code, severity) counts, for metrics export.
    pub fn code_counts(&self) -> BTreeMap<(&'static str, &'static str), u64> {
        let mut out = BTreeMap::new();
        for d in &self.diagnostics {
            *out.entry((d.code, d.severity_str())).or_insert(0) += 1;
        }
        out
    }

    /// Render a human-oriented text report.
    pub fn render_text(&self, title: &str) -> String {
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        let mut out = String::new();
        out.push_str(&format!(
            "analysis of {title}: {} page(s), {} unit(s), {} operation(s), {} edge(s)\n",
            self.stats.pages, self.stats.units, self.stats.operations, self.stats.edges
        ));
        if self.diagnostics.is_empty() {
            out.push_str("  clean: no findings\n");
            return out;
        }
        for d in &self.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
        out.push_str(&format!("  {errors} error(s), {warnings} warning(s)\n"));
        out
    }

    /// Render the report as a JSON document (no external dependencies).
    pub fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"stats\":{{\"pages\":{},\"units\":{},\"operations\":{},\"edges\":{}}},",
            self.stats.pages, self.stats.units, self.stats.operations, self.stats.edges
        ));
        out.push_str(&format!(
            "\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            self.errors().count(),
            self.warnings().count()
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"location\":\"{}\",\"message\":\"{}\"",
                d.code,
                d.severity_str(),
                esc(&d.location),
                esc(&d.message)
            ));
            if let Some(w) = &d.witness {
                out.push_str(&format!(",\"witness\":\"{}\"", esc(w)));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_drops_repeats_keeps_first_witness() {
        let mut r = Report::default();
        r.diagnostics
            .push(Diagnostic::error(AZ001, "p", "m").with_witness("w1"));
        r.diagnostics.push(Diagnostic::error(AZ001, "p", "m"));
        r.diagnostics.push(Diagnostic::error(AZ001, "p", "other"));
        r.dedup();
        assert_eq!(r.diagnostics.len(), 2);
        assert_eq!(r.diagnostics[0].witness.as_deref(), Some("w1"));
    }

    #[test]
    fn json_escapes_quotes() {
        let mut r = Report::default();
        r.diagnostics
            .push(Diagnostic::warning(AZ103, "a\"b", "line\nbreak"));
        let j = r.render_json();
        assert!(j.contains("a\\\"b"));
        assert!(j.contains("line\\nbreak"));
        assert!(j.contains("\"warnings\":1"));
    }

    #[test]
    fn sort_puts_errors_first() {
        let mut r = Report::default();
        r.diagnostics.push(Diagnostic::warning(AZ004, "z", "w"));
        r.diagnostics.push(Diagnostic::error(AZ101, "a", "e"));
        r.sort();
        assert_eq!(r.diagnostics[0].code, AZ101);
    }
}
