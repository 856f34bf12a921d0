//! # analyze — whole-application model checking
//!
//! `webml::validate` proves *local* properties (per construct); this crate
//! proves the *global* ones the paper's generative story relies on:
//!
//! 1. **Parameter-availability dataflow** ([`mod@dataflow`], `AZ0xx`): every
//!    context parameter a unit or operation consumes is defined on every
//!    navigation path that reaches it, starting from the home/landmark
//!    roots. Violations are reported with a witness path.
//! 2. **Invalidation soundness** ([`mod@invalidation`], `AZ1xx`): the
//!    §6 model-derived bean-cache invalidation actually covers every cached
//!    unit's read-set, and every operation's write-set reaches its cached
//!    readers. Gaps are stale-serving hazards (errors); invalidations with
//!    no cached reader are over-invalidation (warnings).
//! 3. **Descriptor/model cross-check** ([`mod@crosscheck`], `AZ2xx`): the
//!    controller configuration, page and unit descriptors round-trip to
//!    model elements and to each other.
//!
//! Everything is lowered first into an explicit navigation/dataflow IR
//! ([`ir::NavIr`]). [`analyze`] also folds in the validator's `WVxxx`
//! findings so a deploy-time report is complete — and deduplicated.

pub mod crosscheck;
pub mod dataflow;
pub mod diag;
pub mod distribution;
pub mod invalidation;
pub mod ir;
pub mod maintenance;
pub mod plan;

pub use diag::{
    describe, Diagnostic, IrStats, Report, Severity, AZ001, AZ002, AZ003, AZ004, AZ101, AZ102,
    AZ103, AZ104, AZ201, AZ202, AZ203, AZ204, AZ301, AZ302, AZ404, AZ405, AZ406, AZ501, AZ502,
};
pub use ir::{lower, NavIr};

use descriptors::DescriptorSet;
use er::{ErModel, RelationalMapping};
use webml::HypertextModel;

/// How much the deploy path lets the analyzer decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Gate {
    /// Skip analysis entirely.
    Off,
    /// Run the analyzer, keep the report, deploy anyway.
    Warn,
    /// Refuse to deploy a model with Error-severity findings.
    #[default]
    Deny,
}

/// Run the whole-application analysis: validator findings (`WVxxx`) plus
/// the global passes (`AZ0xx`–`AZ3xx`, `AZ5xx`), deduplicated and sorted.
/// For a replicated deploy use [`analyze_deployment`].
pub fn analyze(
    er: &ErModel,
    mapping: &RelationalMapping,
    ht: &HypertextModel,
    set: &DescriptorSet,
) -> Report {
    analyze_deployment(er, mapping, ht, set, 0)
}

/// [`analyze`] plus, when `replicas ≥ 1`, the distribution-safety passes
/// (`AZ4xx`: read-your-writes coverage and conflict hotspots). A single
/// store (`replicas == 0`) reduces to [`analyze`].
pub fn analyze_deployment(
    er: &ErModel,
    mapping: &RelationalMapping,
    ht: &HypertextModel,
    set: &DescriptorSet,
    replicas: usize,
) -> Report {
    let mut report = Report::default();
    for issue in webml::validate(er, ht) {
        report.diagnostics.push(issue.into());
    }
    let ir = ir::lower(ht, set);
    report.stats = ir.stats();
    report.diagnostics.extend(dataflow::check(&ir));
    report
        .diagnostics
        .extend(invalidation::check(er, mapping, ht, set));
    report.diagnostics.extend(crosscheck::check(ht, set));
    report.diagnostics.extend(plan::check(er, mapping, ht));
    report
        .diagnostics
        .extend(distribution::check(er, mapping, ht, set, &ir, replicas));
    report.diagnostics.extend(maintenance::check(set));
    report.finish();
    report
}
