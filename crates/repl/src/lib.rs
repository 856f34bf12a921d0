//! # repl — log-shipping read replicas: one app, one leader, N replicas
//!
//! The paper's §6 ships cache-invalidation messages to *replicated* front
//! ends; this crate generalizes that stream into actual data replication,
//! so reads scale past one [`relstore::Database`]:
//!
//! * **log-shipping read replicas** ([`Replica`]) — each replica owns its
//!   own `Database` and consumes the leader's durable WAL batch stream
//!   (leader-based replication, the DDIA ch. 5 shape). Batches cross a
//!   real serialization boundary ([`transport`]) even in process, apply
//!   idempotently in LSN order, and feed the replica's own cache
//!   maintainer (`webcache::LogDrivenMaintainer`) before the replica
//!   publishes the LSN — §6's replica invalidation;
//! * **bounded-staleness routing** ([`Router`]) — writes go to the
//!   leader; reads go to a replica only if its `applied_lsn` has caught
//!   up with the session's last write (read-your-writes), else the leader
//!   serves them and `repl_stale_redirects_total` counts the redirect.
//!
//! Deploy wiring lives in [`deploy_replicated`], honoring
//! `webratio::DeployOptions::replicas`. Lag, routed reads, and
//! duplicate-batch counts report into [`obs::ReplCounters`] and render at
//! `/metrics`.

pub mod deploy;
pub mod replica;
pub mod router;
pub mod transport;

pub use deploy::{deploy_replicated, ReplicatedDeployment};
pub use replica::Replica;
pub use router::{Router, LAST_WRITE_VAR};
pub use transport::{decode_frame, encode_frame, FrameSink, InProcessLink, ShippingObserver};
