//! # codegen — the WebRatio code generators
//!
//! From an [`er::ErModel`] + [`webml::HypertextModel`], [`mod@generate`]
//! produces the complete artifact set of the paper's architecture:
//!
//! * XML **unit/page/operation descriptors** feeding the generic services
//!   (Fig. 5);
//! * the **controller configuration**, derived from hypertext topology
//!   (§3, §7) — re-link a page, regenerate, done;
//! * **template skeletons** for the presentation pipeline (§5);
//! * the **DDL script** for the data tier.
//!
//! [`regenerate`] implements the §6 round trip: descriptors the developer
//! marked `optimized` (or whose service component was overridden) survive
//! regeneration untouched.
//!
//! [`baseline`] contains the architectures the paper compares against —
//! dedicated-classes MVC and the template-based approach — emitted as
//! source text so experiments E1/E6/E7 can count artifacts and bytes.

pub mod baseline;
pub mod generate;
pub mod indexes;
pub mod project;
pub mod queries;
pub mod stats;

pub use baseline::{
    artifacts_referencing, changed_artifacts, conventional_mvc_artifacts, generic_artifacts,
    mvc_files_touched_by_retarget, template_based_artifacts, Artifact,
};
pub use generate::{
    generate, operation_id, operation_url, page_id, page_url, regenerate, unit_id, Generated,
};
pub use indexes::{derive_indexes, DerivedIndex};
pub use project::{load_project, project_from_xml, project_to_xml, save_project};
pub use queries::{GenError, QueryGen};
pub use stats::{ArchitectureComparison, CategoryStats};
