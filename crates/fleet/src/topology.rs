//! Fleet topology: N shard servers + one router, managed as a unit.
//!
//! [`Fleet`] owns the in-process shard [`Server`] instances, the shared
//! [`ShardDirectory`], and the [`Router`]. It exposes the operations
//! the failover conformance test and the load generator script:
//! killing a shard, restarting it on a fresh ephemeral port (the
//! directory retargets; placement is name-keyed so the partition does
//! not move), and running one replication tick across all live shards.

use std::net::SocketAddr;
use std::sync::Arc;

use reaper_serve::{Server, ServerConfig, SyncHandle};

use crate::replication::{ReplicationAgent, ReplicationStats};
use crate::router::{Router, RouterConfig, ShardDirectory};

/// Warm connections the router keeps per shard.
const POOL_IDLE_PER_SHARD: usize = 8;

/// Fleet configuration: how many shards, their common server template,
/// and the router frontend.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Shard count (minimum 1).
    pub shards: usize,
    /// Template for every shard's [`ServerConfig`]; `addr` is replaced
    /// with an ephemeral bind and `shard_id` with the shard index.
    pub shard_template: ServerConfig,
    /// Router frontend configuration.
    pub router: RouterConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            shard_template: ServerConfig::default(),
            router: RouterConfig::default(),
        }
    }
}

struct ShardInstance {
    name: String,
    template: ServerConfig,
    server: Option<Server>,
    sync: Option<SyncHandle>,
}

/// A running fleet. Shut down explicitly; dropping it leaks the
/// listener threads like a dropped [`Server`] does.
pub struct Fleet {
    shards: Vec<ShardInstance>,
    directory: Arc<ShardDirectory>,
    router: Option<Router>,
}

impl Fleet {
    /// Starts `config.shards` shard servers on ephemeral ports, wires
    /// the directory, and starts the router in front of them.
    ///
    /// # Errors
    /// Propagates bind/spawn failures from any component.
    pub fn start(config: FleetConfig) -> std::io::Result<Self> {
        let mut shards = Vec::new();
        let mut addrs = Vec::new();
        for i in 0..config.shards.max(1) {
            let name = format!("shard-{i}");
            let mut template = config.shard_template.clone();
            template.addr = "127.0.0.1:0".to_string();
            template.shard_id = Some(reaper_exec::num::to_u64(i));
            let server = Server::start(template.clone())?;
            addrs.push((name.clone(), server.local_addr()));
            shards.push(ShardInstance {
                name,
                template,
                sync: Some(server.sync_handle()),
                server: Some(server),
            });
        }
        let directory = Arc::new(ShardDirectory::new(&addrs, POOL_IDLE_PER_SHARD));
        let router = Router::start(config.router, Arc::clone(&directory))?;
        Ok(Self {
            shards,
            directory,
            router: Some(router),
        })
    }

    /// The router frontend address clients talk to.
    pub fn router_addr(&self) -> Option<SocketAddr> {
        self.router.as_ref().map(Router::local_addr)
    }

    /// The shared shard directory (placement + pools).
    pub fn directory(&self) -> &Arc<ShardDirectory> {
        &self.directory
    }

    /// Number of shards (live or killed).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard's current address, `None` while killed.
    pub fn shard_addr(&self, index: usize) -> Option<SocketAddr> {
        self.shards
            .get(index)?
            .server
            .as_ref()
            .map(Server::local_addr)
    }

    /// The index of the shard that owns `job_id`, per the directory's
    /// current placement.
    pub fn owner_of(&self, job_id: u64) -> Option<usize> {
        let name = self.directory.owner(job_id)?;
        self.shards.iter().position(|s| s.name == name)
    }

    /// Stops one shard (its sockets close; router round-trips to it
    /// start failing over). Returns false for an unknown or already
    /// killed shard.
    pub fn kill_shard(&mut self, index: usize) -> bool {
        let Some(instance) = self.shards.get_mut(index) else {
            return false;
        };
        instance.sync = None;
        match instance.server.take() {
            Some(server) => {
                server.shutdown();
                true
            }
            None => false,
        }
    }

    /// Restarts a killed shard on a fresh ephemeral port and retargets
    /// the directory. The new instance starts with an empty store; a
    /// replication tick re-fills it from its peers at the original
    /// epochs.
    ///
    /// # Errors
    /// Propagates bind/spawn failures.
    pub fn restart_shard(&mut self, index: usize) -> std::io::Result<Option<SocketAddr>> {
        let Some(instance) = self.shards.get_mut(index) else {
            return Ok(None);
        };
        if instance.server.is_some() {
            return Ok(instance.server.as_ref().map(Server::local_addr));
        }
        let server = Server::start(instance.template.clone())?;
        let addr = server.local_addr();
        instance.sync = Some(server.sync_handle());
        instance.server = Some(server);
        self.directory.update_addr(&instance.name, addr);
        Ok(Some(addr))
    }

    /// One replication tick on every live shard, in shard order.
    pub fn replicate_once(&self) -> ReplicationStats {
        let mut total = ReplicationStats::default();
        for instance in &self.shards {
            let Some(sync) = instance.sync.clone() else {
                continue;
            };
            let agent = ReplicationAgent::new(
                instance.name.clone(),
                sync,
                Arc::clone(&self.directory),
            );
            total.absorb(agent.run_once());
        }
        total
    }

    /// Graceful shutdown of the router and every live shard.
    pub fn shutdown(mut self) {
        if let Some(router) = self.router.take() {
            router.shutdown();
        }
        for instance in &mut self.shards {
            if let Some(server) = instance.server.take() {
                server.shutdown();
            }
        }
    }
}
