//! In-process multi-node loopback harness for deterministic integration
//! tests and the CI smoke gate: real TCP, real daemons, no external
//! processes — so a test can kill a node mid-run and assert the router's
//! failover picks up every request.

use crate::client::{ClusterClient, ClusterConfig, ClusterError};
use crate::node::{Node, NodeConfig};
use apim_serve::PoolConfig;
use std::io;
use std::time::Duration;

/// `n` node daemons on ephemeral loopback ports.
#[derive(Debug)]
pub struct LoopbackCluster {
    nodes: Vec<Option<Node>>,
    addrs: Vec<String>,
}

impl LoopbackCluster {
    /// Spawns `n` nodes, each wrapping a pool built from `pool`.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn failures.
    pub fn spawn(n: usize, pool: &PoolConfig) -> io::Result<LoopbackCluster> {
        let mut nodes = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let node = Node::spawn(NodeConfig {
                addr: "127.0.0.1:0".into(),
                pool: pool.clone(),
                ..NodeConfig::default()
            })?;
            addrs.push(node.addr().to_string());
            nodes.push(Some(node));
        }
        Ok(LoopbackCluster { nodes, addrs })
    }

    /// The nodes' addresses, in spawn order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Nodes still alive.
    pub fn alive(&self) -> usize {
        self.nodes.iter().flatten().count()
    }

    /// A client over every node (alive or not) with test-friendly
    /// failover settings: fast health checks and a retry budget that
    /// covers losing all but one node.
    ///
    /// # Errors
    ///
    /// Propagates [`ClusterClient::connect`] failures.
    pub fn client(&self) -> Result<ClusterClient, ClusterError> {
        ClusterClient::connect(self.client_config())
    }

    /// The configuration [`LoopbackCluster::client`] uses; tweak and build
    /// a custom client from it when a test needs different knobs.
    pub fn client_config(&self) -> ClusterConfig {
        ClusterConfig {
            nodes: self.addrs.clone(),
            max_attempts: (self.addrs.len() as u32 * 2).max(4),
            health_interval: Some(Duration::from_millis(20)),
            rpc_timeout: Duration::from_secs(30),
            ..ClusterConfig::default()
        }
    }

    /// Abruptly kills node `index` (connections severed mid-RPC). Returns
    /// whether it was still alive.
    pub fn kill(&mut self, index: usize) -> bool {
        match self.nodes.get_mut(index).and_then(Option::take) {
            Some(node) => {
                node.kill();
                true
            }
            None => false,
        }
    }

    /// Gracefully shuts down every remaining node.
    pub fn shutdown(mut self) {
        for node in self.nodes.iter_mut().filter_map(Option::take) {
            node.shutdown();
        }
    }
}
