//! Fleet sizing and policy knobs.

use sigmavp_sched::Policy;

/// Configuration for a [`Fleet`](crate::Fleet).
///
/// Defaults are chosen so `FleetConfig::new(sessions)` gives a working fleet:
/// a bounded admission queue of 1024 jobs and a steal round every 64
/// admissions. Every session runs one Quadro-4000 host GPU behind a
/// shared-memory transport, with sequential block execution.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of independent execution sessions (shards).
    pub sessions: usize,
    /// Scheduling policy of every session's shard: it plans sync windows
    /// and prices the job logs at shutdown, and its live knobs drive sync
    /// holds (quorum, window timeout), end-to-end deadlines, the hung-VP
    /// watchdog and the SPTX tier.
    pub policy: Policy,
    /// Maximum in-flight jobs (queued + executing) across the whole fleet;
    /// admissions beyond this are shed with
    /// [`FleetError::Saturated`](crate::FleetError::Saturated).
    pub admission_capacity: usize,
    /// Admissions per work-stealing window; every `steal_interval` admitted
    /// jobs the rebalancer compares per-session submitted cost and plans
    /// migrations. `0` disables stealing.
    pub steal_interval: u64,
}

impl FleetConfig {
    /// A fleet of `sessions` single-GPU sessions with default knobs.
    pub fn new(sessions: usize) -> Self {
        FleetConfig { sessions, policy: Policy::Fifo, admission_capacity: 1024, steal_interval: 64 }
    }

    /// Set the admission capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.admission_capacity = capacity;
        self
    }

    /// Set the steal window (`0` disables stealing).
    pub fn with_steal_interval(mut self, interval: u64) -> Self {
        self.steal_interval = interval;
        self
    }

    /// Validate the configuration.
    pub(crate) fn validate(&self) -> Result<(), crate::FleetError> {
        if self.sessions == 0 {
            return Err(crate::FleetError::Config("need at least one session".into()));
        }
        if self.admission_capacity == 0 {
            return Err(crate::FleetError::Config("admission capacity must be positive".into()));
        }
        if self.policy.sync_quorum_pct == 0 || self.policy.sync_quorum_pct > 100 {
            return Err(crate::FleetError::Config(format!(
                "sync quorum must be in 1..=100 percent, got {}",
                self.policy.sync_quorum_pct
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(FleetConfig::new(4).validate().is_ok());
        assert!(FleetConfig::new(0).validate().is_err());
        assert!(FleetConfig::new(1).with_capacity(0).validate().is_err());
    }

    #[test]
    fn sync_quorum_outside_one_to_a_hundred_percent_is_rejected() {
        let with_quorum = |pct| {
            let mut config = FleetConfig::new(2);
            config.policy.sync_quorum_pct = pct;
            config.validate()
        };
        assert!(
            matches!(with_quorum(0), Err(crate::FleetError::Config(m)) if m.contains("quorum"))
        );
        assert!(matches!(with_quorum(101), Err(crate::FleetError::Config(m)) if m.contains("101")));
        assert!(with_quorum(1).is_ok());
        assert!(with_quorum(100).is_ok());
    }
}
