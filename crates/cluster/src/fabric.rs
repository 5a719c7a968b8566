//! The spine/leaf cluster fabric.
//!
//! The paper rejects a PCIe NIC per node (10 W minimum) and instead runs
//! Infiniband off each DPU's integrated A9 over a shared switch (§2).
//! This module models that fabric as queuing resources per transfer —
//! the sender's NIC, the rack's leaf switch, the receiver's NIC — each a
//! [`BandwidthServer`], plus a fixed per-hop latency. Congestion falls
//! out of the queuing: two nodes sending to one receiver serialize on
//! its NIC; an all-to-all shuffle saturates the switch.
//!
//! Past one rack, a second switching tier appears ([`Topology`]): each
//! rack keeps its leaf switch, the leaves interconnect through a
//! non-blocking spine over per-rack uplinks carrying
//! `switch_bytes_per_cycle / oversub`. An inter-rack transfer crosses
//! sender NIC → leaf → uplink → spine → downlink → leaf → receiver NIC
//! (4 hop latencies); an intra-rack transfer crosses exactly the
//! original 2-hop path. With `racks = 1` no spine resource is ever
//! requested, so the flat fabric is reproduced cycle for cycle — the
//! committed `BENCH_rack_*.json` baselines pin that equivalence.
//!
//! All times are in dpCore cycles ([`dpu_sim::Time`]), the one clock of
//! the simulator: the coordinator hands the fabric instants on that
//! clock and the fault plan answers in it, so no transfer converts.

use dpu_core::rack::FabricProvision;
use dpu_sim::{BandwidthServer, Time};

use crate::fault::FaultPlan;
use crate::topology::Topology;
use crate::CLOCK;

/// Fabric rates and latencies, in dpCore-cycle units.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Per-node NIC bandwidth, bytes per cycle (each direction).
    pub nic_bytes_per_cycle: u64,
    /// Leaf switch bandwidth, bytes per cycle (the shared switch of a
    /// single-rack fabric).
    pub switch_bytes_per_cycle: u64,
    /// One-hop propagation + forwarding latency, cycles.
    pub hop_cycles: u64,
    /// Fixed per-message cost on a NIC (descriptor setup on the A9).
    pub message_overhead_cycles: u64,
}

impl FabricConfig {
    /// The prototype fabric: ~1.6 GB/s per NIC, ~51 GB/s of switch,
    /// ~1.6 µs per hop at the 800 MHz core clock.
    pub fn infiniband() -> Self {
        FabricConfig {
            nic_bytes_per_cycle: 2,
            switch_bytes_per_cycle: 64,
            hop_cycles: 1280,
            message_overhead_cycles: 256,
        }
    }

    /// Builds a config from the rack model's provisioning bridge, at the
    /// dpCore clock.
    pub fn from_provision(p: &FabricProvision) -> Self {
        let hz = CLOCK.hz();
        FabricConfig {
            nic_bytes_per_cycle: ((p.nic_bytes_per_sec / hz).round() as u64).max(1),
            switch_bytes_per_cycle: ((p.switch_bytes_per_sec / hz).round() as u64).max(1),
            hop_cycles: Time::from_secs(p.hop_seconds, CLOCK).cycles(),
            message_overhead_cycles: 256,
        }
    }
}

/// The cluster network: per-node NICs around per-rack leaf switches,
/// interconnected by a spine when the topology has more than one rack.
#[derive(Debug)]
pub struct Fabric {
    cfg: FabricConfig,
    topo: Topology,
    tx: Vec<BandwidthServer>,
    rx: Vec<BandwidthServer>,
    /// One leaf switch per rack; `leaves[0]` is the shared switch of the
    /// flat single-rack fabric.
    leaves: Vec<BandwidthServer>,
    /// Per-rack uplink (rack → spine) and downlink (spine → rack)
    /// serialization, `switch_bytes_per_cycle / oversub` each. Never
    /// requested when `racks == 1`.
    up: Vec<BandwidthServer>,
    down: Vec<BandwidthServer>,
    /// The non-blocking spine core: `racks ×` the uplink rate, so the
    /// oversubscribed uplinks — not the core — are where a leaf tier
    /// saturates.
    spine: BandwidthServer,
    transfers: u64,
    payload_bytes: u64,
    spine_bytes: u64,
    node_tx_bytes: Vec<u64>,
    node_rx_bytes: Vec<u64>,
    faults: FaultPlan,
}

impl Fabric {
    /// A flat single-rack fabric connecting `n_nodes` DPUs.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero.
    pub fn new(n_nodes: usize, cfg: FabricConfig) -> Self {
        Fabric::with_topology(Topology::single_rack(n_nodes), cfg)
    }

    /// A spine/leaf fabric over `topo`.
    pub fn with_topology(topo: Topology, cfg: FabricConfig) -> Self {
        let n_nodes = topo.n_nodes();
        let racks = topo.racks();
        let uplink = topo.uplink_bytes_per_cycle(&cfg);
        let nic = |c: &FabricConfig| {
            BandwidthServer::new(c.nic_bytes_per_cycle, c.message_overhead_cycles)
        };
        Fabric {
            tx: (0..n_nodes).map(|_| nic(&cfg)).collect(),
            rx: (0..n_nodes).map(|_| nic(&cfg)).collect(),
            leaves: (0..racks)
                .map(|_| BandwidthServer::new(cfg.switch_bytes_per_cycle, 0))
                .collect(),
            up: (0..racks).map(|_| BandwidthServer::new(uplink, 0)).collect(),
            down: (0..racks).map(|_| BandwidthServer::new(uplink, 0)).collect(),
            spine: BandwidthServer::new(uplink * racks as u64, 0),
            cfg,
            topo,
            transfers: 0,
            payload_bytes: 0,
            spine_bytes: 0,
            node_tx_bytes: vec![0; n_nodes],
            node_rx_bytes: vec![0; n_nodes],
            faults: FaultPlan::none(),
        }
    }

    /// Installs a fault plan; NIC-degradation windows in it inflate the
    /// wire time of transfers touching a degraded node's NIC. Survives
    /// [`reset`](Self::reset) (faults outlive individual queries).
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// The installed fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The coordinator's per-attempt failover timeout: the topology's
    /// worst-case probe round trip (see
    /// [`Topology::failover_timeout_cycles`]).
    pub fn failover_timeout(&self) -> Time {
        Time::from_cycles(self.topo.failover_timeout_cycles(&self.cfg))
    }

    /// Node count.
    pub fn n_nodes(&self) -> usize {
        self.tx.len()
    }

    /// The configured rates.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// The spine/leaf geometry this fabric realizes.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// One point-to-point transfer of `bytes` from `src` to `dst`,
    /// injected at `now`; returns delivery time. A local "transfer"
    /// (`src == dst`) is free. An intra-rack transfer crosses sender NIC
    /// → leaf → receiver NIC (2 hops); an inter-rack transfer additionally
    /// serializes on the source rack's uplink, the spine core, and the
    /// destination rack's downlink and leaf (4 hops). A NIC-degradation
    /// fault active at `now` on either endpoint inflates that NIC's wire
    /// time by `1/factor` (the link carries the same payload at a
    /// fraction of its rate).
    pub fn transfer(&mut self, now: Time, src: usize, dst: usize, bytes: u64) -> Time {
        if src == dst {
            return now;
        }
        self.transfers += 1;
        self.payload_bytes += bytes;
        self.node_tx_bytes[src] += bytes;
        self.node_rx_bytes[dst] += bytes;
        let wire = |bytes: u64, factor: f64| -> u64 {
            if factor >= 1.0 {
                bytes
            } else {
                (bytes as f64 / factor).ceil() as u64
            }
        };
        let hop = Time::from_cycles(self.cfg.hop_cycles);
        let (ra, rb) = (self.topo.rack_of(src), self.topo.rack_of(dst));
        let injected = self.tx[src].request(now, wire(bytes, self.faults.nic_factor(src, now)));
        let at_leaf = self.leaves[ra].request(injected + hop, bytes);
        let at_dst_leaf = if ra == rb {
            at_leaf
        } else {
            self.spine_bytes += bytes;
            // The uplink/downlink serialize at the leaf and spine ports
            // they attach to — no extra propagation hop of their own.
            let lifted = self.up[ra].request(at_leaf, bytes);
            let crossed = self.spine.request(lifted + hop, bytes);
            let dropped = self.down[rb].request(crossed, bytes);
            self.leaves[rb].request(dropped + hop, bytes)
        };
        self.rx[dst].request(at_dst_leaf + hop, wire(bytes, self.faults.nic_factor(dst, now)))
    }

    /// Gathers one part from each listed `(node, ready, bytes)` source to
    /// `dst`; returns the time the last part lands.
    pub fn gather(&mut self, parts: &[(usize, Time, u64)], dst: usize) -> Time {
        let mut done = Time::ZERO;
        for &(src, ready, bytes) in parts {
            done = done.max(self.transfer(ready, src, dst, bytes));
        }
        done
    }

    /// Broadcasts `bytes` from `src` to every other node (the A9 serializes
    /// the sends on its NIC); returns the time the last copy lands.
    pub fn broadcast(&mut self, now: Time, src: usize, bytes: u64) -> Time {
        let mut done = now;
        for dst in 0..self.n_nodes() {
            done = done.max(self.transfer(now, src, dst, bytes));
        }
        done
    }

    /// An all-to-all shuffle: node `s` becomes ready at `ready[s]` and
    /// sends `matrix[s][d]` bytes to node `d`. Sends are issued in
    /// rotation order (`d = s+1, s+2, …`) so no receiver is hammered by
    /// every sender at once. Returns the per-destination completion time
    /// (at least `ready[d]` — a node cannot finish receiving before it
    /// has finished its own local phase).
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape does not match the node count.
    pub fn all_to_all(&mut self, ready: &[Time], matrix: &[Vec<u64>]) -> Vec<Time> {
        let n = self.n_nodes();
        assert_eq!(ready.len(), n, "ready times per node");
        assert_eq!(matrix.len(), n, "matrix rows per node");
        let mut done: Vec<Time> = ready.to_vec();
        for k in 1..n {
            for s in 0..n {
                let d = (s + k) % n;
                assert_eq!(matrix[s].len(), n, "matrix cols per node");
                let bytes = matrix[s][d];
                if bytes > 0 {
                    let t = self.transfer(ready[s], s, d, bytes);
                    done[d] = done[d].max(t);
                }
            }
        }
        done
    }

    /// Transfers issued since construction or [`reset`](Self::reset).
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Payload bytes moved since construction or [`reset`](Self::reset).
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// Payload bytes that crossed the spine tier (inter-rack transfers
    /// only) since construction or [`reset`](Self::reset). Zero on a
    /// single-rack fabric.
    pub fn spine_bytes(&self) -> u64 {
        self.spine_bytes
    }

    /// Payload bytes sent by `node` since construction or reset.
    pub fn node_tx_bytes(&self, node: usize) -> u64 {
        self.node_tx_bytes[node]
    }

    /// Payload bytes received by `node` since construction or reset.
    pub fn node_rx_bytes(&self, node: usize) -> u64 {
        self.node_rx_bytes[node]
    }

    /// Per-node `(tx, rx)` payload bytes since construction or reset.
    pub fn node_bytes(&self) -> Vec<(u64, u64)> {
        self.node_tx_bytes.iter().copied().zip(self.node_rx_bytes.iter().copied()).collect()
    }

    /// A pristine fabric sharing this one's configuration and installed
    /// fault plan: idle queues, zeroed statistics. This is the
    /// config-vs-state split of [`dpu_sim::ServerConfig`] lifted to the
    /// whole fabric — config (rates, latencies, topology, faults) is
    /// carried over, state (occupancy, counters) starts fresh.
    /// [`reset`](Self::reset) is defined as replacing `self` with its
    /// fork, so both share one code path.
    pub fn fork(&self) -> Self {
        let n = self.n_nodes();
        Fabric {
            cfg: self.cfg.clone(),
            topo: self.topo.clone(),
            tx: self.tx.iter().map(BandwidthServer::fork).collect(),
            rx: self.rx.iter().map(BandwidthServer::fork).collect(),
            leaves: self.leaves.iter().map(BandwidthServer::fork).collect(),
            up: self.up.iter().map(BandwidthServer::fork).collect(),
            down: self.down.iter().map(BandwidthServer::fork).collect(),
            spine: self.spine.fork(),
            transfers: 0,
            payload_bytes: 0,
            spine_bytes: 0,
            node_tx_bytes: vec![0; n],
            node_rx_bytes: vec![0; n],
            faults: self.faults.clone(),
        }
    }

    /// Clears all queue occupancy and statistics (between queries),
    /// including the per-node tx/rx byte counters. The installed fault
    /// plan is preserved — faults outlive individual queries. Defined via
    /// [`fork`](Self::fork): reset = become a fork of yourself.
    pub fn reset(&mut self) {
        *self = self.fork();
    }
}

/// Shared fabric occupancy for the **concurrent serving pipeline**.
///
/// The per-query [`Fabric`] model prices one query's shuffle/gather in
/// isolation. When the serving front-end keeps several queries in flight
/// at once, their fabric phases compete for the same switches and NICs —
/// a Q10 reshuffle running next to another Q10 reshuffle cannot see the
/// full switch. `ServeFabric` models that sharing with the same
/// [`BandwidthServer`] queuing primitive: one server per leaf switch and
/// one per node NIC (each query's aggregate flow touches every NIC with
/// a `1/n` share and every leaf with a `1/racks` share — exact for an
/// all-to-all, conservative for a gather, whose single hot receiver is
/// already priced into the isolated cost). On a multi-rack topology the
/// cross-rack fraction of each flow additionally occupies the per-rack
/// uplinks/downlinks and the spine core, so oversubscription throttles
/// concurrent serving exactly where it throttles isolated queries.
///
/// A query's fabric phase is charged as its isolated cost plus whatever
/// queueing delay the shared servers impose: with nothing else in
/// flight, a charge is exactly the isolated span; with overlapping
/// phases, strictly more.
#[derive(Debug)]
pub struct ServeFabric {
    cfg: FabricConfig,
    topo: Topology,
    nics: Vec<BandwidthServer>,
    leaves: Vec<BandwidthServer>,
    up: Vec<BandwidthServer>,
    down: Vec<BandwidthServer>,
    spine: BandwidthServer,
}

impl ServeFabric {
    /// A shared serving fabric over `n_nodes` NICs in one flat rack. The
    /// servers carry no per-request overhead — fixed message costs are
    /// already inside each template's isolated fabric seconds.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero.
    pub fn new(n_nodes: usize, cfg: FabricConfig) -> Self {
        ServeFabric::with_topology(Topology::single_rack(n_nodes), cfg)
    }

    /// A shared serving fabric over a spine/leaf topology.
    pub fn with_topology(topo: Topology, cfg: FabricConfig) -> Self {
        let racks = topo.racks();
        let uplink = topo.uplink_bytes_per_cycle(&cfg);
        ServeFabric {
            nics: (0..topo.n_nodes())
                .map(|_| BandwidthServer::new(cfg.nic_bytes_per_cycle, 0))
                .collect(),
            leaves: (0..racks)
                .map(|_| BandwidthServer::new(cfg.switch_bytes_per_cycle, 0))
                .collect(),
            up: (0..racks).map(|_| BandwidthServer::new(uplink, 0)).collect(),
            down: (0..racks).map(|_| BandwidthServer::new(uplink, 0)).collect(),
            spine: BandwidthServer::new(uplink * racks as u64, 0),
            cfg,
            topo,
        }
    }

    /// Node count.
    pub fn n_nodes(&self) -> usize {
        self.nics.len()
    }

    /// The cross-rack fraction of a `bytes` flow: `(racks-1)/racks`,
    /// the uniform-destination expectation.
    fn inter_rack_bytes(&self, bytes: u64) -> u64 {
        let racks = self.topo.racks() as u64;
        bytes - bytes / racks
    }

    /// The serialization cycles an uncontended `bytes` flow spends on the
    /// bottleneck shared resource (leaf share, NIC share, or — across
    /// racks — the uplink share or spine core).
    fn serialization_cycles(&self, bytes: u64) -> u64 {
        let racks = self.topo.racks() as u64;
        let leaf = bytes.div_ceil(racks).div_ceil(self.cfg.switch_bytes_per_cycle);
        let share = bytes.div_ceil(self.nics.len() as u64);
        let nic = share.div_ceil(self.cfg.nic_bytes_per_cycle);
        let mut serial = leaf.max(nic);
        if racks > 1 {
            let inter = self.inter_rack_bytes(bytes);
            let uplink = self.topo.uplink_bytes_per_cycle(&self.cfg);
            serial = serial
                .max(inter.div_ceil(racks).div_ceil(uplink))
                .max(inter.div_ceil(racks * uplink));
        }
        serial
    }

    /// Charges one fabric phase of `bytes` payload starting at `now`,
    /// whose isolated (uncontended) duration is `isolated`; returns the
    /// actual duration under whatever contention the shared servers
    /// currently carry.
    ///
    /// The flow occupies each leaf for a `1/racks` share, every NIC for a
    /// `1/n` share, and (across racks) each uplink/downlink for its
    /// cross-rack share plus the spine core for the full cross-rack
    /// payload; the isolated duration minus the bottleneck serialization
    /// rides along as fixed latency (hops, message setup, the
    /// receiver-side serialization already priced per query).
    pub(crate) fn charge_at(&mut self, now: Time, bytes: u64, isolated: Time) -> Time {
        if bytes == 0 {
            return isolated;
        }
        let racks = self.topo.racks() as u64;
        let leaf_share = bytes.div_ceil(racks);
        let nic_share = bytes.div_ceil(self.nics.len() as u64);
        let mut done = Time::ZERO;
        for leaf in &mut self.leaves {
            done = done.max(leaf.request(now, leaf_share));
        }
        for nic in &mut self.nics {
            done = done.max(nic.request(now, nic_share));
        }
        if racks > 1 {
            let inter = self.inter_rack_bytes(bytes);
            let link_share = inter.div_ceil(racks);
            for link in self.up.iter_mut().chain(self.down.iter_mut()) {
                done = done.max(link.request(now, link_share));
            }
            done = done.max(self.spine.request(now, inter));
        }
        let residual = isolated.saturating_sub(Time::from_cycles(self.serialization_cycles(bytes)));
        (done - now) + residual
    }

    /// The same charge in seconds, each argument rounded to the nearest
    /// cycle. Only perfbench's layer replay calls it; ROADMAP direction 5
    /// (the benchmark revision) removes it.
    pub fn charge(&mut self, start_seconds: f64, bytes: u64, isolated_seconds: f64) -> f64 {
        let now = Time::from_secs(start_seconds, CLOCK);
        let isolated = Time::from_secs(isolated_seconds, CLOCK);
        self.charge_at(now, bytes, isolated).as_secs(CLOCK)
    }

    /// A pristine serving fabric with this one's configuration and idle
    /// servers — the same config-vs-state split as [`Fabric::fork`].
    pub fn fork(&self) -> Self {
        ServeFabric {
            cfg: self.cfg.clone(),
            topo: self.topo.clone(),
            nics: self.nics.iter().map(BandwidthServer::fork).collect(),
            leaves: self.leaves.iter().map(BandwidthServer::fork).collect(),
            up: self.up.iter().map(BandwidthServer::fork).collect(),
            down: self.down.iter().map(BandwidthServer::fork).collect(),
            spine: self.spine.fork(),
        }
    }

    /// Clears all server occupancy (between serving runs). Defined via
    /// [`fork`](Self::fork) — one reset/fork code path for both fabrics.
    pub fn reset(&mut self) {
        *self = self.fork();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(n: usize) -> Fabric {
        Fabric::new(n, FabricConfig::infiniband())
    }

    fn spine_fabric(n: usize, racks: usize, oversub: f64) -> Fabric {
        Fabric::with_topology(Topology::new(n, racks, oversub), FabricConfig::infiniband())
    }

    #[test]
    fn transfer_pays_wire_time_and_hops() {
        let mut f = fabric(4);
        let t = f.transfer(Time::ZERO, 0, 1, 1 << 20);
        let cfg = f.config();
        // At least the NIC serialization of 1 MiB plus two hops.
        let floor = (1u64 << 20) / cfg.nic_bytes_per_cycle + 2 * cfg.hop_cycles;
        assert!(t.cycles() >= floor, "{} < {floor}", t.cycles());
        // And the payload crossed each resource exactly once.
        assert_eq!(f.transfers(), 1);
        assert_eq!(f.payload_bytes(), 1 << 20);
    }

    #[test]
    fn local_transfer_is_free() {
        let mut f = fabric(4);
        let t = f.transfer(Time::from_cycles(7), 2, 2, 1 << 30);
        assert_eq!(t.cycles(), 7);
        assert_eq!(f.transfers(), 0);
    }

    #[test]
    fn incast_serializes_on_receiver_nic() {
        let mut f = fabric(3);
        let one = f.transfer(Time::ZERO, 1, 0, 1 << 20);
        let two = f.transfer(Time::ZERO, 2, 0, 1 << 20);
        // The second sender's payload queues behind the first at node 0's
        // RX NIC: it must finish roughly one NIC-serialization later.
        let wire = (1u64 << 20) / f.config().nic_bytes_per_cycle;
        assert!(two.cycles() >= one.cycles() + wire - f.config().message_overhead_cycles);
    }

    #[test]
    fn disjoint_pairs_run_in_parallel() {
        let mut f = fabric(4);
        let a = f.transfer(Time::ZERO, 0, 1, 1 << 20);
        let b = f.transfer(Time::ZERO, 2, 3, 1 << 20);
        // Different NICs; the shared switch is 32× faster than a NIC, so
        // the two transfers overlap almost entirely.
        assert!(b.cycles() < a.cycles() + a.cycles() / 4);
    }

    #[test]
    fn all_to_all_respects_ready_times_and_counts_bytes() {
        let mut f = fabric(4);
        let ready = vec![Time::from_cycles(1000); 4];
        let matrix: Vec<Vec<u64>> =
            (0..4).map(|s| (0..4).map(|d| if s == d { 0 } else { 4096 }).collect()).collect();
        let done = f.all_to_all(&ready, &matrix);
        for d in &done {
            assert!(d.cycles() > 1000);
        }
        // 12 off-diagonal messages of 4 KiB each.
        assert_eq!(f.transfers(), 12);
        assert_eq!(f.payload_bytes(), 12 * 4096);
    }

    #[test]
    fn reset_clears_occupancy() {
        let mut f = fabric(2);
        let busy = f.transfer(Time::ZERO, 0, 1, 1 << 24);
        f.reset();
        let fresh = f.transfer(Time::ZERO, 0, 1, 1 << 10);
        assert!(fresh < busy, "post-reset transfer must not queue");
        assert_eq!(f.payload_bytes(), 1 << 10);
    }

    #[test]
    fn per_node_counters_track_and_reset() {
        let mut f = fabric(4);
        f.transfer(Time::ZERO, 0, 1, 1000);
        f.transfer(Time::ZERO, 0, 2, 500);
        f.transfer(Time::ZERO, 3, 0, 250);
        assert_eq!(f.node_tx_bytes(0), 1500);
        assert_eq!(f.node_rx_bytes(0), 250);
        assert_eq!(f.node_rx_bytes(1), 1000);
        assert_eq!(f.node_bytes()[3], (250, 0));
        // Regression (PR 2): reset must clear the per-node replication
        // counters too, not just the aggregate transfer stats.
        f.reset();
        assert_eq!(f.node_bytes(), vec![(0, 0); 4]);
        assert_eq!(f.transfers(), 0);
        assert_eq!(f.payload_bytes(), 0);
    }

    #[test]
    fn fork_keeps_faults_and_matches_reset() {
        use crate::fault::FaultPlan;
        let mut f = fabric(2);
        let horizon = Time::from_cycles(u64::MAX / 2).as_secs(CLOCK);
        f.set_faults(FaultPlan::none().degrade_nic(1, 0.0, horizon, 0.25));
        f.transfer(Time::ZERO, 0, 1, 1 << 24);
        let mut forked = f.fork();
        assert_eq!(forked.faults(), f.faults(), "fork carries the fault plan");
        assert_eq!(forked.transfers(), 0);
        assert_eq!(forked.node_bytes(), vec![(0, 0); 2]);
        // reset is the same operation applied in place: afterwards the
        // original and the fork serve identically (faults included).
        f.reset();
        assert_eq!(
            f.transfer(Time::ZERO, 0, 1, 1 << 20),
            forked.transfer(Time::ZERO, 0, 1, 1 << 20)
        );

        let mut sf = ServeFabric::new(2, FabricConfig::infiniband());
        sf.charge(0.0, 1 << 24, 1.0);
        let mut sfork = sf.fork();
        sf.reset();
        let a = sf.charge(0.0, 1 << 20, 0.5);
        let b = sfork.charge(0.0, 1 << 20, 0.5);
        assert_eq!(a, b, "ServeFabric reset == fork");
    }

    #[test]
    fn nic_degradation_slows_transfers_in_its_window() {
        use crate::fault::FaultPlan;
        let mut healthy = fabric(2);
        let base = healthy.transfer(Time::ZERO, 0, 1, 1 << 20);

        let mut degraded = fabric(2);
        let horizon = Time::from_cycles(u64::MAX / 2).as_secs(CLOCK);
        degraded.set_faults(FaultPlan::none().degrade_nic(1, 0.0, horizon, 0.25));
        let slow = degraded.transfer(Time::ZERO, 0, 1, 1 << 20);
        // The receiver's NIC runs at a quarter rate: that hop alone costs
        // 4× its healthy wire time, stretching the whole transfer by the
        // 3× difference.
        let wire = (1u64 << 20) / degraded.config().nic_bytes_per_cycle;
        assert!(
            slow.cycles() >= base.cycles() + 3 * wire,
            "{} vs {}",
            slow.cycles(),
            base.cycles()
        );

        // Outside the window the same fabric runs at full rate.
        let mut windowed = fabric(2);
        windowed.set_faults(FaultPlan::none().degrade_nic(1, 0.0, 1e-9, 0.25));
        let after = windowed.transfer(Time::from_cycles(1 << 20), 0, 1, 1 << 20);
        assert_eq!(after.cycles() - (1 << 20), base.cycles());
    }

    #[test]
    fn failover_timeout_is_a_fabric_round_trip() {
        let f = fabric(2);
        let cfg = f.config();
        assert_eq!(
            f.failover_timeout().cycles(),
            2 * (4 * cfg.hop_cycles + 2 * cfg.message_overhead_cycles)
        );
        assert!(f.failover_timeout() > Time::ZERO);
        // Multi-rack fabrics probe over 4 hops instead of 2, so their
        // timeout is strictly longer.
        let spine = spine_fabric(4, 2, 1.0);
        assert!(spine.failover_timeout() > f.failover_timeout());
    }

    #[test]
    fn single_rack_topology_is_cycle_identical_to_flat() {
        // The refactor's load-bearing invariant: Fabric::new and an
        // explicit single-rack topology issue identical server requests,
        // so every committed baseline is unchanged.
        let mut flat = fabric(4);
        let mut topo = Fabric::with_topology(Topology::single_rack(4), FabricConfig::infiniband());
        for (s, d, b) in [(0, 1, 1 << 20), (2, 0, 4096), (1, 3, 123_456), (3, 0, 1 << 18)] {
            assert_eq!(
                flat.transfer(Time::ZERO, s, d, b),
                topo.transfer(Time::ZERO, s, d, b),
                "transfer {s}->{d} of {b} bytes diverged"
            );
        }
        assert_eq!(flat.spine_bytes(), 0);
        assert_eq!(topo.spine_bytes(), 0);
    }

    #[test]
    fn cross_rack_transfer_pays_four_hops_and_feeds_the_spine() {
        let mut f = spine_fabric(8, 2, 1.0);
        let b = 1u64 << 20;
        let intra = f.transfer(Time::ZERO, 0, 1, b);
        f.reset();
        let inter = f.transfer(Time::ZERO, 0, 4, b);
        // Beyond the shared NIC→leaf→NIC path, the cross-rack transfer
        // pays two more propagation hops plus store-and-forward
        // serialization at the uplink, downlink and destination leaf
        // (uplink rate = leaf rate at oversub 1) and at the spine core
        // (racks × the uplink rate).
        let switch = f.config().switch_bytes_per_cycle;
        let extra = 2 * f.config().hop_cycles + 3 * b.div_ceil(switch) + b.div_ceil(2 * switch);
        assert_eq!(
            inter.cycles() - intra.cycles(),
            extra,
            "non-blocking cross-rack transfer = two extra hops + spine-tier serialization"
        );
        assert_eq!(f.spine_bytes(), 1 << 20);
        // An intra-rack transfer never touches the spine tier.
        f.reset();
        f.transfer(Time::ZERO, 0, 3, 1 << 20);
        assert_eq!(f.spine_bytes(), 0);
    }

    #[test]
    fn oversubscribed_uplink_throttles_cross_rack_flows() {
        // Two simultaneous cross-rack flows from one rack: under a
        // non-blocking fabric they ride the 64 B/cycle uplink together;
        // at oversub 32 the uplink matches one NIC and the flows must
        // serialize on it.
        let run = |oversub: f64| {
            let mut f = spine_fabric(8, 2, oversub);
            let a = f.transfer(Time::ZERO, 0, 4, 1 << 20);
            let b = f.transfer(Time::ZERO, 1, 5, 1 << 20);
            a.max(b)
        };
        let fast = run(1.0);
        let slow = run(32.0);
        let wire = (1u64 << 20) / FabricConfig::infiniband().nic_bytes_per_cycle;
        assert!(
            slow.cycles() >= fast.cycles() + wire / 2,
            "oversubscription must queue the second flow: {} vs {}",
            slow.cycles(),
            fast.cycles()
        );
    }

    #[test]
    fn serve_fabric_single_rack_topology_matches_flat() {
        let mut flat = ServeFabric::new(8, FabricConfig::infiniband());
        let mut topo =
            ServeFabric::with_topology(Topology::single_rack(8), FabricConfig::infiniband());
        for (start, bytes, iso) in [(0.0, 1u64 << 20, 0.01), (0.001, 4096, 0.0005), (0.002, 0, 0.1)]
        {
            assert_eq!(flat.charge(start, bytes, iso), topo.charge(start, bytes, iso));
        }
    }

    #[test]
    fn serve_fabric_oversubscription_stretches_shared_phases() {
        let charge_all = |racks: usize, oversub: f64| {
            let mut sf = ServeFabric::with_topology(
                Topology::new(8, racks, oversub),
                FabricConfig::infiniband(),
            );
            // Four overlapping 1 MiB fabric phases.
            (0..4).map(|_| sf.charge(0.0, 1 << 20, 0.001)).fold(0.0f64, f64::max)
        };
        let non_blocking = charge_all(2, 1.0);
        let oversubscribed = charge_all(2, 32.0);
        assert!(
            oversubscribed > non_blocking,
            "oversub 32 must throttle concurrent serving: {oversubscribed} vs {non_blocking}"
        );
    }

    #[test]
    fn provision_roundtrip_matches_prototype_rates() {
        let rack = dpu_core::rack::Rack::prototype();
        let cfg = FabricConfig::from_provision(&rack.fabric_provision());
        assert_eq!(cfg.nic_bytes_per_cycle, 2);
        assert_eq!(cfg.switch_bytes_per_cycle, 64);
        assert_eq!(cfg.hop_cycles, 1280);
    }
}
