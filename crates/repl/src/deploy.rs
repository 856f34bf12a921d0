//! Deploy wiring: one application, a leader, N replicas.
//!
//! [`deploy_replicated`] honors `webratio::DeployOptions::replicas`: the
//! leader deploys durably (its WAL is the replication log), each replica
//! bootstraps by recovering the leader's snapshot + log into its own
//! store, then subscribes to the durable batch stream via
//! [`wal::Wal::replay_from`] — the hole between "recovered to LSN x" and
//! "subscribed" is closed by replaying the tail under the observer lock.

use mvc::{WebRequest, WebResponse};
use relstore::Database;
use std::sync::Arc;
use webratio::{
    assemble_node, Application, DeployError, DeployOptions, Deployment, DurabilityConfig, NodeSpec,
};

use crate::router::{ReplicaEndpoint, Router};
use crate::transport::{InProcessLink, ShippingObserver};
use crate::Replica;

/// A replicated deployment.
pub struct ReplicatedDeployment {
    /// The write side: a plain durable deployment.
    pub leader: Deployment,
    /// The routing tier in front of leader + replicas.
    pub router: Arc<Router>,
    pub replicas: Vec<Arc<Replica>>,
}

impl ReplicatedDeployment {
    /// Service one request through the routing tier.
    pub fn handle(&self, req: &WebRequest) -> WebResponse {
        self.router.handle(req)
    }
}

/// Deploy `app` with `options.replicas` log-shipping read replicas behind
/// a [`Router`].
///
/// The leader is `Application::assemble` with `durability` — so the
/// analysis gate runs for the requested replica count (the
/// distribution-safety passes `AZ4xx` included) and an `AZ404`, or any
/// other Error-severity finding, refuses the deploy at `Gate::Deny`
/// *before* any durable side effect; the report lands on
/// `leader.analysis`. Every replica is the
/// same node assembly ([`assemble_node`]) over its recovered store, the
/// leader's session store, and its own applied-batch stream.
pub fn deploy_replicated(
    app: &Application,
    options: DeployOptions,
    durability: &DurabilityConfig,
) -> Result<ReplicatedDeployment, DeployError> {
    let leader = app.assemble(options.clone(), Some(durability), None)?;
    let wal = Arc::clone(
        leader
            .wal
            .as_ref()
            .expect("durable deploy always has a WAL"),
    );
    let registry = Arc::clone(&leader.obs);
    let generated = &leader.generated;

    let mut replicas = Vec::with_capacity(options.replicas);
    let mut endpoints = Vec::with_capacity(options.replicas);
    for i in 0..options.replicas {
        // bootstrap: recover the leader's snapshot + log tail into a
        // fresh store — schema arrives through logged DDL, so the replica
        // is structurally identical by construction
        let db = Arc::new(Database::with_counters(Arc::clone(&registry.db)));
        let info = wal.recover_into(&db).map_err(DeployError::Durability)?;
        let replica = Replica::new(
            format!("replica-{i}"),
            Arc::clone(&db),
            info.last_lsn,
            Arc::clone(&registry.repl),
        );
        // cache maintenance runs per replica, against the replica's own
        // caches, driven by the batches the replica applied
        let controller = Arc::new(assemble_node(
            generated,
            NodeSpec {
                db,
                runtime: options.runtime.clone(),
                obs: Arc::clone(&registry),
                sessions: Some(Arc::clone(&leader.controller.sessions)),
                plugins: None,
                stream: Some(&*replica),
                maintenance: leader.maintenance.clone(),
            },
        )?);
        // subscribe through the serialization boundary; replay_from
        // delivers whatever the leader logged since recover_into, then
        // attaches for live batches with no window in between
        let link = Arc::new(InProcessLink::new(Arc::clone(&replica)));
        wal.replay_from(info.last_lsn, Arc::new(ShippingObserver::new(link)))
            .map_err(DeployError::Durability)?;
        endpoints.push(ReplicaEndpoint {
            replica: Arc::clone(&replica),
            controller,
        });
        replicas.push(replica);
    }

    let router = Arc::new(Router::new(
        Arc::clone(&leader.controller),
        Arc::clone(&wal),
        endpoints,
        Arc::clone(&registry.repl),
    ));

    Ok(ReplicatedDeployment {
        leader,
        router,
        replicas,
    })
}
