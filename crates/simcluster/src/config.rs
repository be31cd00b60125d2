//! Cluster topology and the calibrated cost model.

use mining_types::OpMeter;

/// Topology of the simulated cluster: `hosts × procs_per_host` processors.
///
/// Matches the paper's notation: `H` hosts, `P` processors per host,
/// `T = H·P` total (§8.1). Processor ids are dense `0..T`, host-major:
/// processor `p` lives on host `p / procs_per_host`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterConfig {
    /// `H` — number of hosts (nodes).
    pub hosts: usize,
    /// `P` — processors per host.
    pub procs_per_host: usize,
}

impl ClusterConfig {
    /// A new topology.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(hosts: usize, procs_per_host: usize) -> ClusterConfig {
        assert!(hosts > 0 && procs_per_host > 0, "empty cluster");
        ClusterConfig {
            hosts,
            procs_per_host,
        }
    }

    /// A single sequential processor.
    pub fn sequential() -> ClusterConfig {
        ClusterConfig::new(1, 1)
    }

    /// The paper's full testbed: 8 hosts × 4 processors.
    pub fn dec_testbed() -> ClusterConfig {
        ClusterConfig::new(8, 4)
    }

    /// `T = H·P` — total processors.
    #[inline]
    pub fn total(&self) -> usize {
        self.hosts * self.procs_per_host
    }

    /// Host of processor `p`.
    #[inline]
    pub fn host_of(&self, p: usize) -> usize {
        debug_assert!(p < self.total());
        p / self.procs_per_host
    }

    /// Do two processors share a host (and hence a local disk)?
    #[inline]
    pub fn same_host(&self, p: usize, q: usize) -> bool {
        self.host_of(p) == self.host_of(q)
    }

    /// The paper's configuration label, e.g. `P=4,H=2,T=8`.
    pub fn label(&self) -> String {
        format!(
            "P={},H={},T={}",
            self.procs_per_host,
            self.hosts,
            self.total()
        )
    }
}

/// Cost constants converting abstract trace steps into virtual
/// nanoseconds. `dec_alpha_1997` is calibrated from the figures the
/// paper publishes (§6.1: 5.2 µs MC latency, 30 MB/s per-link, ~32 MB/s
/// aggregate; 233 MHz Alphas; 1997-era 2 GB local SCSI disks) plus the
/// locality arguments of §7 — hash-tree probes are priced several times a
/// sequential tid comparison because *"complicated hash structures also
/// suffer from poor cache locality \[13\]"* while tid-lists are scanned
/// sequentially.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// ns per tid-list element comparison (sequential access).
    pub tid_cmp_ns: f64,
    /// ns per hash-tree node/entry probe (pointer-chasing, cache-hostile).
    pub hash_probe_ns: f64,
    /// ns per triangular-array pair increment (random access into a large
    /// array).
    pub pair_incr_ns: f64,
    /// ns per k-subset generated from a transaction.
    pub subset_gen_ns: f64,
    /// ns per candidate generated in the join step.
    pub cand_gen_ns: f64,
    /// ns per record touched (transaction parse, tid append, …).
    pub record_ns: f64,
    /// Local-disk sequential bandwidth, bytes/s.
    pub disk_bw: f64,
    /// Fixed per-request disk overhead (seek + settle), ns.
    pub disk_seek_ns: f64,
    /// Memory Channel one-sided write latency, ns (paper: 5.2 µs).
    pub mc_latency_ns: f64,
    /// Per-link MC transfer bandwidth, bytes/s (paper: 30 MB/s).
    pub mc_link_bw: f64,
    /// MC hub aggregate bandwidth, bytes/s (paper: ~32 MB/s).
    pub mc_hub_bw: f64,
    /// Intra-host copy bandwidth (write-doubling path), bytes/s.
    pub local_copy_bw: f64,
    /// Flat cost of a barrier once the last processor arrives, ns.
    pub barrier_ns: f64,
}

impl CostModel {
    /// The 1997 DEC Alpha / Memory Channel calibration (see type docs).
    pub fn dec_alpha_1997() -> CostModel {
        const MB: f64 = 1024.0 * 1024.0;
        CostModel {
            tid_cmp_ns: 40.0,
            hash_probe_ns: 900.0,
            pair_incr_ns: 400.0,
            subset_gen_ns: 150.0,
            cand_gen_ns: 2_000.0,
            record_ns: 800.0,
            disk_bw: 4.0 * MB,
            disk_seek_ns: 10_000_000.0, // 10 ms
            mc_latency_ns: 5_200.0,
            mc_link_bw: 30.0 * MB,
            mc_hub_bw: 32.0 * MB,
            local_copy_bw: 80.0 * MB,
            barrier_ns: 200_000.0, // 0.2 ms
        }
    }

    /// Virtual nanoseconds for a bundle of metered operations.
    pub fn compute_ns(&self, ops: &OpMeter) -> f64 {
        ops.tid_cmp as f64 * self.tid_cmp_ns
            + ops.hash_probe as f64 * self.hash_probe_ns
            + ops.pair_incr as f64 * self.pair_incr_ns
            + ops.subsets_gen as f64 * self.subset_gen_ns
            + ops.cand_gen as f64 * self.cand_gen_ns
            + ops.record as f64 * self.record_ns
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::dec_alpha_1997()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_indexing() {
        let c = ClusterConfig::new(2, 4);
        assert_eq!(c.total(), 8);
        assert_eq!(c.host_of(0), 0);
        assert_eq!(c.host_of(3), 0);
        assert_eq!(c.host_of(4), 1);
        assert!(c.same_host(4, 7));
        assert!(!c.same_host(3, 4));
    }

    #[test]
    fn label_matches_paper_notation() {
        assert_eq!(ClusterConfig::new(2, 4).label(), "P=4,H=2,T=8");
        assert_eq!(ClusterConfig::sequential().label(), "P=1,H=1,T=1");
        assert_eq!(ClusterConfig::dec_testbed().total(), 32);
    }

    #[test]
    #[should_panic(expected = "empty cluster")]
    fn empty_cluster_rejected() {
        ClusterConfig::new(0, 4);
    }

    #[test]
    fn compute_ns_prices_categories() {
        let m = CostModel::dec_alpha_1997();
        let mut ops = OpMeter::new();
        ops.tid_cmp = 10;
        ops.hash_probe = 2;
        let ns = m.compute_ns(&ops);
        let expect = 10.0 * m.tid_cmp_ns + 2.0 * m.hash_probe_ns;
        assert!((ns - expect).abs() < 1e-9);
        assert_eq!(m.compute_ns(&OpMeter::new()), 0.0);
    }

    #[test]
    fn hash_probe_costs_more_than_tid_cmp() {
        // The §7 locality argument must be reflected in the calibration.
        let m = CostModel::dec_alpha_1997();
        assert!(m.hash_probe_ns > 3.0 * m.tid_cmp_ns);
    }
}
