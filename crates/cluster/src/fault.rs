//! Deterministic fault injection for the rack.
//!
//! A [`FaultPlan`] is a *schedule* of failures fixed before the run —
//! crashes, transient NIC degradation, slow-node stragglers — so every
//! simulation under faults is exactly reproducible: the plan is either
//! built explicitly or drawn from a seed, and the same plan always
//! yields the same routing decisions, the same timeouts and the same
//! report bytes. Nothing in the fault path consults a wall clock or an
//! unseeded RNG.
//!
//! The builders take seconds; the plan stores every instant as a
//! [`Time`] on the rack's one clock (rounded to the nearest cycle once,
//! when the fault is added), and every query takes a [`Time`].
//!
//! The three fault kinds map to what the paper's rack argument (§2, §6)
//! has to survive in practice:
//!
//! - **Crash** — the node stops answering at time *t* (fail-stop). Its
//!   shards must be served by surviving replicas; if a shard has no
//!   surviving replica the query fails with
//!   [`QueryError::ShardUnavailable`](crate::coordinator::QueryError).
//! - **NIC degradation** — the node's Infiniband link runs at a fraction
//!   of its rate over a window (cable flap, error-correction storm).
//!   Modelled in [`Fabric`](crate::fabric::Fabric) by inflating the wire
//!   time of transfers touching the degraded NIC.
//! - **Straggler** — the node computes at a fraction of its speed over a
//!   window (thermal throttling, background compaction). Modelled by the
//!   coordinator stretching the node's local phases.

use dpu_sim::{SplitMix64, Time};

use crate::CLOCK;

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Fail-stop crash of `node` at `at`.
    Crash {
        /// The failing node.
        node: usize,
        /// Simulation time of the crash.
        at: Time,
    },
    /// `node`'s NIC runs at `factor` (< 1) of its bandwidth over
    /// `[from, until)`.
    NicDegrade {
        /// The degraded node.
        node: usize,
        /// Window start.
        from: Time,
        /// Window end.
        until: Time,
        /// Remaining fraction of NIC bandwidth (0 < factor ≤ 1).
        factor: f64,
    },
    /// `node` computes at `factor` (< 1) of its speed over
    /// `[from, until)`.
    Straggler {
        /// The slow node.
        node: usize,
        /// Window start.
        from: Time,
        /// Window end.
        until: Time,
        /// Remaining fraction of compute speed (0 < factor ≤ 1).
        factor: f64,
    },
}

/// A deterministic schedule of faults for one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan: every node healthy forever.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Adds a fail-stop crash of `node` at `at_seconds` (builder style).
    pub fn crash(mut self, node: usize, at_seconds: f64) -> Self {
        self.faults.push(Fault::Crash { node, at: Time::from_secs(at_seconds, CLOCK) });
        self
    }

    /// Adds a NIC-degradation window (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]` or the window is inverted.
    pub fn degrade_nic(mut self, node: usize, from: f64, until: f64, factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0, "NIC factor must be in (0, 1]");
        assert!(from <= until, "inverted degradation window");
        let (from, until) = (Time::from_secs(from, CLOCK), Time::from_secs(until, CLOCK));
        self.faults.push(Fault::NicDegrade { node, from, until, factor });
        self
    }

    /// Adds a compute-straggler window (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]` or the window is inverted.
    pub fn straggle(mut self, node: usize, from: f64, until: f64, factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0, "straggler factor must be in (0, 1]");
        assert!(from <= until, "inverted straggler window");
        let (from, until) = (Time::from_secs(from, CLOCK), Time::from_secs(until, CLOCK));
        self.faults.push(Fault::Straggler { node, from, until, factor });
        self
    }

    /// Draws a random plan from `seed`: each of `n_nodes` nodes suffers a
    /// crash with probability `crash_p` (uniform time in the horizon) and
    /// independently a NIC-degradation and a straggler window with the
    /// same probability. Same seed ⇒ same plan, byte for byte.
    pub fn random(seed: u64, n_nodes: usize, horizon_seconds: f64, crash_p: f64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan::none();
        for node in 0..n_nodes {
            if rng.next_f64() < crash_p {
                plan = plan.crash(node, rng.next_f64() * horizon_seconds);
            }
            if rng.next_f64() < crash_p {
                let from = rng.next_f64() * horizon_seconds;
                let len = rng.next_f64() * horizon_seconds * 0.25;
                let factor = 0.1 + 0.8 * rng.next_f64();
                plan = plan.degrade_nic(node, from, from + len, factor);
            }
            if rng.next_f64() < crash_p {
                let from = rng.next_f64() * horizon_seconds;
                let len = rng.next_f64() * horizon_seconds * 0.25;
                let factor = 0.2 + 0.7 * rng.next_f64();
                plan = plan.straggle(node, from, from + len, factor);
            }
        }
        plan
    }

    /// Whether `node` is crashed at time `t` (crashes are permanent until
    /// [`recovered`](Self::recovered) marks the node rebuilt).
    pub fn is_down(&self, node: usize, t: Time) -> bool {
        self.faults.iter().any(|f| match *f {
            Fault::Crash { node: n, at } => n == node && t >= at,
            _ => false,
        })
    }

    /// The crash time of `node`, if one is scheduled.
    pub fn crash_time(&self, node: usize) -> Option<Time> {
        self.faults
            .iter()
            .filter_map(|f| match *f {
                Fault::Crash { node: n, at } if n == node => Some(at),
                _ => None,
            })
            .min()
    }

    /// Remaining NIC-bandwidth fraction of `node` at time `t` (1.0 when
    /// healthy; the worst overlapping window wins).
    pub fn nic_factor(&self, node: usize, t: Time) -> f64 {
        self.faults
            .iter()
            .filter_map(|f| match *f {
                Fault::NicDegrade { node: n, from, until, factor }
                    if n == node && t >= from && t < until =>
                {
                    Some(factor)
                }
                _ => None,
            })
            .fold(1.0, f64::min)
    }

    /// Remaining compute-speed fraction of `node` at time `t` (1.0 when
    /// healthy; the worst overlapping window wins).
    pub fn compute_factor(&self, node: usize, t: Time) -> f64 {
        self.faults
            .iter()
            .filter_map(|f| match *f {
                Fault::Straggler { node: n, from, until, factor }
                    if n == node && t >= from && t < until =>
                {
                    Some(factor)
                }
                _ => None,
            })
            .fold(1.0, f64::min)
    }

    /// Returns the plan with `node`'s crash removed (the node has been
    /// rebuilt and rejoins the ring).
    pub fn recovered(mut self, node: usize) -> Self {
        self.faults.retain(|f| !matches!(*f, Fault::Crash { node: n, .. } if n == node));
        self
    }

    /// Nodes alive at `t`, ascending.
    pub fn live_nodes(&self, n_nodes: usize, t: Time) -> Vec<usize> {
        (0..n_nodes).filter(|&n| !self.is_down(n, t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(seconds: f64) -> Time {
        Time::from_secs(seconds, CLOCK)
    }

    #[test]
    fn crash_is_permanent_from_its_instant() {
        let p = FaultPlan::none().crash(3, 1.5);
        assert!(!p.is_down(3, at(1.49)));
        assert!(p.is_down(3, at(1.5)));
        assert!(p.is_down(3, at(100.0)));
        assert!(!p.is_down(2, at(100.0)));
        assert_eq!(p.crash_time(3), Some(at(1.5)));
        assert_eq!(p.crash_time(2), None);
    }

    #[test]
    fn windows_gate_their_factors() {
        let p = FaultPlan::none().degrade_nic(1, 2.0, 4.0, 0.25).straggle(1, 3.0, 5.0, 0.5);
        assert_eq!(p.nic_factor(1, at(1.9)), 1.0);
        assert_eq!(p.nic_factor(1, at(2.0)), 0.25);
        assert_eq!(p.nic_factor(1, at(3.99)), 0.25);
        assert_eq!(p.nic_factor(1, at(4.0)), 1.0);
        assert_eq!(p.compute_factor(1, at(3.5)), 0.5);
        assert_eq!(p.compute_factor(0, at(3.5)), 1.0);
    }

    #[test]
    fn overlapping_windows_take_the_worst_factor() {
        let p = FaultPlan::none().degrade_nic(0, 0.0, 10.0, 0.5).degrade_nic(0, 5.0, 6.0, 0.1);
        assert_eq!(p.nic_factor(0, at(5.5)), 0.1);
        assert_eq!(p.nic_factor(0, at(7.0)), 0.5);
    }

    #[test]
    fn random_plans_are_reproducible() {
        let a = FaultPlan::random(42, 16, 60.0, 0.3);
        let b = FaultPlan::random(42, 16, 60.0, 0.3);
        assert_eq!(a, b, "same seed must give the same plan");
        let c = FaultPlan::random(43, 16, 60.0, 0.3);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn recovery_clears_the_crash_only() {
        let p = FaultPlan::none().crash(2, 1.0).degrade_nic(2, 0.0, 9.0, 0.5);
        let r = p.recovered(2);
        assert!(!r.is_down(2, at(5.0)));
        assert_eq!(r.nic_factor(2, at(5.0)), 0.5, "non-crash faults survive recovery");
    }

    #[test]
    fn live_nodes_excludes_the_crashed() {
        let p = FaultPlan::none().crash(1, 0.0).crash(3, 10.0);
        assert_eq!(p.live_nodes(4, at(5.0)), vec![0, 2, 3]);
        assert_eq!(p.live_nodes(4, at(10.0)), vec![0, 2]);
    }
}
