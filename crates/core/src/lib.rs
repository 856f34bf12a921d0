//! # webratio — the facade of the WebML/WebRatio reproduction
//!
//! Assembles the full pipeline of the paper:
//!
//! ```text
//! ER model + WebML model          (er, webml)
//!        │ validate
//!        ▼
//! code generation                 (codegen) → descriptors, controller
//!        │                                     config, skeletons, DDL
//!        ▼
//! deployment                      (relstore schema + mvc Controller)
//!        │
//!        ▼
//! HTTP serving                    (httpd adapter)
//! ```
//!
//! * [`app`] — [`Application`] / [`Deployment`]: model-to-running-system
//!   in two calls, through one assembly pipeline
//!   ([`Application::assemble`]);
//! * [`fixtures`] — the quickstart bookstore and the paper's Fig. 1/2 ACM
//!   Digital Library application;
//! * [`synth`] — the Acer-Euro-scale synthetic model generator and data
//!   seeder used by the experiments.

pub mod app;
pub mod fixtures;
pub mod synth;

pub use app::{
    adapt_request, adapt_response, assemble_node, Application, DeployError, DeployOptions,
    Deployment, DurabilityConfig, NodeSpec, Plugins, SESSION_COOKIE,
};
pub use synth::{seed_data, synthesize, SynthSpec};
pub use wal;

// re-export the component crates so downstream users need one dependency
pub use analyze;
pub use codegen;
pub use descriptors;
pub use er;
pub use httpd;
pub use mvc;
pub use obs;
pub use presentation;
pub use relstore;
pub use webcache;
pub use webml;
