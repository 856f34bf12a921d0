//! # webcache — the two-level cache architecture of §6
//!
//! The paper resolves the tension between the MVC architecture and Web
//! caching with two cooperating levels:
//!
//! 1. a **template-fragment cache** ([`fragment::FragmentCache`]) — the
//!    ESI-like product developers already use. It spares markup
//!    generation but *not* query execution, and supports only TTL
//!    policies because it sees nothing but markup;
//! 2. a **unit-bean cache** ([`bean::BeanCache`]) in the business tier.
//!    Because the conceptual model exposes which entities each unit
//!    depends on, writes invalidate affected beans automatically — the
//!    developer never writes cache-management code.
//!
//! One consumer of each node's change stream —
//! [`maintain::LogDrivenMaintainer`] — keeps both levels coherent on every
//! node: it records each write's version, patches beans in place under
//! the compiled [`maintain::MaintenancePlan`], and drops what the plan
//! cannot patch. Fragments are never visited by a write: each is checked
//! against the recorded versions when it is read.
//!
//! One version runs through all of it: the commit LSN
//! ([`version::VersionTable`]). Every cached value is put with the LSN it
//! was computed at, a put that a recorded newer write has outdated is
//! refused, and so is a fragment read after such a write.
//!
//! Both caches are bounded (LRU), thread-safe, lock-striped for
//! concurrent serving (hash(key) → stripe; see [`bean::BeanCache`]), and
//! instrumented
//! ([`stats::CacheStats`]); TTL logic takes explicit `Instant`s in the
//! `_at` variants so tests and benches stay deterministic.

pub mod bean;
pub mod fragment;
pub mod maintain;
pub mod stats;
pub mod version;

pub use bean::{BeanCache, BeanKey, Patch, PatchEffect, MAX_STRIPES, MIN_STRIPE_CAPACITY};
pub use fragment::{FragmentCache, FragmentKey, Lookup};
pub use maintain::{
    parse_fingerprint, query_scope, DeltaOp, LogDrivenMaintainer, MaintenancePlan, PatchOutcome,
    Patcher, RowDelta, RowOrder, Strategy, TableCatalog, UnitPlan, UnitShape,
};
pub use stats::{CacheStats, StatsSnapshot};
pub use version::{Provenance, VersionTable};
