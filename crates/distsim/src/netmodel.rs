//! Link bandwidth/latency model.

use serde::{Deserialize, Serialize};

/// A network link model: bandwidth plus one-way latency.
///
/// All cluster traffic funnels through the parameter server's link (the
/// bottleneck in the paper's topology of ten workers and one server);
/// `threelc-bench`'s paced relay shapes a loopback connection to it.
///
/// ```
/// use threelc_distsim::NetworkModel;
/// let [(label, slowest), ..] = NetworkModel::paper_presets();
/// assert_eq!((label, slowest.bandwidth_bps), ("10 Mbps", 10e6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// Fixed one-way latency, in seconds.
    pub latency_s: f64,
}

impl NetworkModel {
    /// Creates a model with the given bandwidth (bits/s) and latency.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not positive or latency is negative.
    pub fn new(bandwidth_bps: f64, latency_s: f64) -> Self {
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        assert!(latency_s >= 0.0, "latency must be non-negative");
        NetworkModel {
            bandwidth_bps,
            latency_s,
        }
    }

    /// The three links the paper evaluates (§5.2), slowest first, with the
    /// labels used in Table 1: 10 Mbps (WAN-like), 100 Mbps and 1 Gbps
    /// (datacenter LAN), each with 1 ms of latency.
    pub fn paper_presets() -> [(&'static str, NetworkModel); 3] {
        [
            ("10 Mbps", NetworkModel::new(10e6, 1e-3)),
            ("100 Mbps", NetworkModel::new(100e6, 1e-3)),
            ("1 Gbps", NetworkModel::new(1e9, 1e-3)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_bandwidths() {
        let rates = NetworkModel::paper_presets().map(|(_, net)| net.bandwidth_bps);
        assert_eq!(rates, [10e6, 100e6, 1e9]);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_panics() {
        NetworkModel::new(0.0, 0.0);
    }
}
