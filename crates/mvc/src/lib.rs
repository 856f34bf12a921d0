//! # mvc — the MVC-2 runtime of the WebRatio architecture
//!
//! Implements Figs. 3, 4, 5 and 6 of the paper:
//!
//! * [`controller`] — the front Controller: action-mapping dispatch, page
//!   rendering, operation execution with OK/KO forwarding, the §6
//!   two-level cache, and §5 compile-time vs runtime styling;
//! * [`plan`] — the deploy-time compilation of the descriptor set: one
//!   page plan per page (units, edges, links, consumed parameters,
//!   services, navigation) and the definition of a unit's cache identity;
//! * [`page`] — the **single generic page service** (`computePage()`),
//!   parametric in the page plan: topological unit computation with
//!   parameter propagation;
//! * [`services`] — the **generic unit services** (data, index, multidata,
//!   multichoice, scroller, entry, hierarchy) plus the plug-in/override
//!   registry;
//! * [`operations`] — the generic operation service (create, delete,
//!   modify, connect, disconnect, login, logout, sendmail, custom);
//! * [`beans`] — unit beans, the Model-side state objects, with JSON
//!   marshalling for the app-server boundary;
//! * [`appserver`] — Fig. 6: business services behind a serialisation
//!   boundary on an elastic clone pool, vs in-process execution;
//! * [`render`] — the unit programs compiled at deploy that write beans
//!   straight into the page (the custom-tag layer), and landmark
//!   navigation;
//! * [`session`], [`request`], [`error`] — supporting types.

pub mod appserver;
pub mod beans;
pub mod controller;
pub mod error;
pub mod maintain;
pub mod operations;
pub mod page;
pub mod plan;
pub mod render;
pub mod request;
pub mod services;
pub mod session;

pub use appserver::{AppServerTier, BusinessTier, InProcessTier, TierContext};
pub use beans::{BeanRow, NestedBeanRow, Shape, UnitBean};
pub use controller::{to_value, Controller, ControllerParts, RuntimeOptions, StylingMode};
pub use error::{MvcError, Result};
pub use maintain::UnitBeanPatcher;
pub use operations::{Mail, OpResult, OperationEngine, OperationHandler};
pub use page::{compute_page, PageEnv, PageResult};
pub use plan::{ComputedUnit, PagePlan, Route, SitePlan, UnitStep};
pub use render::{navigation_html, UnitProgram};
pub use request::{
    build_url, url_decode, url_encode, url_encode_into, WebRequest, WebResponse, WebResponseParts,
};
pub use services::{fingerprint, ParamMap, ServiceRegistry, UnitService};
pub use session::{Session, SessionManager, DEFAULT_SESSION_TTL};

/// A counting [`std::alloc::GlobalAlloc`] for the unit-test binary only:
/// render-path tests assert that hot loops reuse one buffer instead of
/// minting per-row temporaries.
#[cfg(test)]
pub(crate) mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        // const-init: reading the counter inside `alloc` never allocates
        static COUNT: Cell<usize> = const { Cell::new(0) };
    }

    struct Counting;

    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = COUNT.try_with(|c| c.set(c.get() + 1));
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    /// Heap allocations performed on the current thread while running `f`.
    /// Per-thread, so parallel tests do not pollute each other's counts.
    pub fn allocations_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
        let before = COUNT.try_with(Cell::get).unwrap_or(0);
        let out = f();
        let after = COUNT.try_with(Cell::get).unwrap_or(0);
        (after.saturating_sub(before), out)
    }
}
