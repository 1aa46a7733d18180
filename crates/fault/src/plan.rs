//! Seed-driven fault plans: what fails, where, and when — reproducibly.
//!
//! A [`FaultPlan`] is immutable and cheap to share (the dispatcher holds it in
//! an `Arc`). All the *state* involved in fault decisions lives in per-link
//! [`LinkFaults`] streams handed out by [`FaultPlan::link_faults`], each seeded
//! from `(plan seed, vp, direction)` — so the decision for the k-th frame on a
//! link depends only on the plan and k, never on thread scheduling. Device
//! outages are windows over *simulated* time: a device is down **for a given
//! request** iff the request's guest-clock timestamp falls inside an outage
//! window, which makes the device-record split across a failover identical
//! across runs even though wall-clock arrival order races.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sigmavp_ipc::message::VpId;

/// Which way a link endpoint sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkDirection {
    /// The VP-side endpoint: requests travelling guest → host.
    GuestToHost,
    /// The host-side endpoint: responses travelling host → guest.
    HostToGuest,
}

/// Per-frame fault probabilities on a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultConfig {
    /// Probability a frame is silently dropped.
    pub drop_prob: f64,
    /// Probability a frame is corrupted (truncated so decoding fails).
    pub corrupt_prob: f64,
    /// Probability a frame is held back before delivery.
    pub delay_prob: f64,
    /// How long a delayed frame is held, in (wall) seconds.
    pub delay_s: f64,
}

impl LinkFaultConfig {
    /// A perfectly reliable link.
    pub const fn none() -> Self {
        LinkFaultConfig { drop_prob: 0.0, corrupt_prob: 0.0, delay_prob: 0.0, delay_s: 0.0 }
    }

    /// A lossy link dropping and corrupting frames with the given probabilities.
    pub const fn lossy(drop_prob: f64, corrupt_prob: f64) -> Self {
        LinkFaultConfig { drop_prob, corrupt_prob, delay_prob: 0.0, delay_s: 0.0 }
    }

    /// Add delay faults (builder style).
    pub const fn with_delay(mut self, delay_prob: f64, delay_s: f64) -> Self {
        self.delay_prob = delay_prob;
        self.delay_s = delay_s;
        self
    }

    fn is_none(&self) -> bool {
        self.drop_prob <= 0.0 && self.corrupt_prob <= 0.0 && self.delay_prob <= 0.0
    }
}

/// A host-GPU outage window over simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// The device index that goes down.
    pub device: usize,
    /// Simulated time the outage begins (inclusive).
    pub from_s: f64,
    /// Simulated time the outage ends (exclusive; `f64::INFINITY` = forever).
    pub until_s: f64,
}

/// Transient device errors injected on specific operations of one device.
///
/// `ops` indexes the device's *attempted* operations (executions plus injected
/// transients), in dispatch order.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientFaults {
    /// The device the errors occur on.
    pub device: usize,
    /// Which attempted-operation indices fail transiently.
    pub ops: Vec<u64>,
}

/// The fault schedule for one run: link faults, device outages, and transient
/// device errors, all derived from one seed.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    link: LinkFaultConfig,
    outages: Vec<Outage>,
    transients: Vec<TransientFaults>,
    breaker_threshold: u32,
}

/// Default consecutive-failure count that trips a device's circuit breaker.
pub const DEFAULT_BREAKER_THRESHOLD: u32 = 3;

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            link: LinkFaultConfig::none(),
            outages: Vec::new(),
            transients: Vec::new(),
            breaker_threshold: DEFAULT_BREAKER_THRESHOLD,
        }
    }

    /// A standard chaos mixture: moderate drops, corruption and short delays on
    /// every link. Outages and transients are added by the caller.
    pub fn chaos(seed: u64) -> Self {
        Self::seeded(seed).with_link(LinkFaultConfig::lossy(0.05, 0.03).with_delay(0.04, 50e-6))
    }

    /// Set the per-link fault probabilities (builder style).
    pub fn with_link(mut self, link: LinkFaultConfig) -> Self {
        self.link = link;
        self
    }

    /// Kill `device` permanently from simulated time `from_s` (builder style).
    pub fn with_outage(self, device: usize, from_s: f64) -> Self {
        self.with_outage_window(device, from_s, f64::INFINITY)
    }

    /// Take `device` down for `[from_s, until_s)` of simulated time (builder
    /// style).
    pub fn with_outage_window(mut self, device: usize, from_s: f64, until_s: f64) -> Self {
        self.outages.push(Outage { device, from_s, until_s });
        self
    }

    /// Inject transient errors on the given attempted-op indices of `device`
    /// (builder style).
    pub fn with_transients(mut self, device: usize, ops: Vec<u64>) -> Self {
        self.transients.push(TransientFaults { device, ops });
        self
    }

    /// Override the circuit-breaker trip threshold (builder style).
    pub fn with_breaker_threshold(mut self, threshold: u32) -> Self {
        self.breaker_threshold = threshold.max(1);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Consecutive transient failures that trip a device's circuit breaker.
    pub fn breaker_threshold(&self) -> u32 {
        self.breaker_threshold
    }

    /// The configured outage windows.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// The deterministic fault stream for one link endpoint. Streams for
    /// different `(vp, dir)` pairs are independent; the same pair always yields
    /// the same decision sequence.
    pub fn link_faults(&self, vp: VpId, dir: LinkDirection) -> LinkFaults {
        let dir_bit = match dir {
            LinkDirection::GuestToHost => 0u64,
            LinkDirection::HostToGuest => 1u64,
        };
        // Decorrelate per-link streams: splitmix's output mixing makes even
        // adjacent seeds independent, but spread them anyway.
        let link_seed = self
            .seed
            .wrapping_mul(0x0000_0100_0000_01B3)
            .wrapping_add((u64::from(vp.0) << 1) | dir_bit);
        LinkFaults { rng: StdRng::seed_from_u64(link_seed), cfg: self.link }
    }

    /// Whether `device` is down for a request stamped at simulated time
    /// `sim_s`. A pure function of `(device, sim_s)`: run-to-run identical.
    pub fn device_down(&self, device: usize, sim_s: f64) -> bool {
        self.outages.iter().any(|o| o.device == device && sim_s >= o.from_s && sim_s < o.until_s)
    }

    /// Whether the `op`-th attempted operation on `device` fails transiently.
    pub fn transient_at(&self, device: usize, op: u64) -> bool {
        self.transients.iter().any(|t| t.device == device && t.ops.contains(&op))
    }
}

/// One injected link fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFault {
    /// Drop the frame silently.
    Drop,
    /// Truncate the frame so decoding fails on the receiving side.
    Corrupt,
    /// Hold the frame back for the given number of wall seconds.
    Delay(f64),
}

/// The per-link fault decision stream: one decision drawn per sent frame.
#[derive(Debug, Clone)]
pub struct LinkFaults {
    rng: StdRng,
    cfg: LinkFaultConfig,
}

impl LinkFaults {
    /// Decide the fate of the next frame on this link. Exactly one RNG draw per
    /// call, so decision k is a pure function of the link seed and k.
    pub fn decide(&mut self) -> Option<LinkFault> {
        if self.cfg.is_none() {
            return None;
        }
        let u = self.rng.gen_range(0.0f64..1.0);
        if u < self.cfg.drop_prob {
            Some(LinkFault::Drop)
        } else if u < self.cfg.drop_prob + self.cfg.corrupt_prob {
            Some(LinkFault::Corrupt)
        } else if u < self.cfg.drop_prob + self.cfg.corrupt_prob + self.cfg.delay_prob {
            Some(LinkFault::Delay(self.cfg.delay_s))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_streams_are_deterministic_and_independent() {
        let plan = FaultPlan::chaos(7);
        let draw = |mut lf: LinkFaults| -> Vec<Option<LinkFault>> {
            (0..64).map(|_| lf.decide()).collect()
        };
        let a1 = draw(plan.link_faults(VpId(3), LinkDirection::GuestToHost));
        let a2 = draw(plan.link_faults(VpId(3), LinkDirection::GuestToHost));
        assert_eq!(a1, a2, "same link, same stream");
        let b = draw(plan.link_faults(VpId(3), LinkDirection::HostToGuest));
        assert_ne!(a1, b, "directions get independent streams");
        let c = draw(plan.link_faults(VpId(4), LinkDirection::GuestToHost));
        assert_ne!(a1, c, "vps get independent streams");
        assert!(a1.iter().any(Option::is_some), "chaos mixture injects something in 64 frames");
    }

    #[test]
    fn empty_plan_never_faults() {
        let plan = FaultPlan::seeded(1);
        let mut lf = plan.link_faults(VpId(0), LinkDirection::GuestToHost);
        assert!((0..100).all(|_| lf.decide().is_none()));
        assert!(!plan.device_down(0, 1.0));
        assert!(!plan.transient_at(0, 0));
        let mut back = plan.link_faults(VpId(0), LinkDirection::HostToGuest);
        assert!((0..100).all(|_| back.decide().is_none()), "no link faults either way");
    }

    #[test]
    fn outage_windows_are_half_open_in_sim_time() {
        let plan = FaultPlan::seeded(0).with_outage_window(1, 2.0, 5.0).with_outage(0, 10.0);
        assert!(!plan.device_down(1, 1.9));
        assert!(plan.device_down(1, 2.0));
        assert!(plan.device_down(1, 4.999));
        assert!(!plan.device_down(1, 5.0));
        assert!(!plan.device_down(0, 9.0));
        assert!(plan.device_down(0, 1e12), "permanent outage never lifts");
        assert_eq!(plan.outages().len(), 2);
    }

    #[test]
    fn transient_schedule_hits_listed_ops_only() {
        let plan = FaultPlan::seeded(0).with_transients(0, vec![2, 3, 4]);
        assert!(!plan.transient_at(0, 1));
        assert!(plan.transient_at(0, 3));
        assert!(!plan.transient_at(1, 3), "other devices unaffected");
    }
}
