//! Placement policies: where a VP goes inside a session and inside a fleet.
//!
//! Two placement mechanisms live here, both deliberately ignorant of what a
//! "slot" is:
//!
//! * [`Placement`] — least-loaded slot routing with per-slot health. The
//!   execution session routes VPs onto its host GPUs with it (least-loaded
//!   healthy slot, ties to the lowest index, degraded fallback to the full set
//!   when nothing is healthy).
//! * [`HashRing`] — consistent hashing with virtual nodes, the fleet's
//!   *initial* VP→session placement: a stable key→slot map where retiring a
//!   slot only moves that slot's keys, which keeps cross-session migrations
//!   (journal replays) proportional to the failure, not to the fleet.
//!
//! Like [`Rebalance`](crate::Rebalance), these are scheduling *policies*: they
//! decide where work goes and leave the mechanics (connections, journal
//! replay, handle translation) to the runtime that owns the state.

/// Least-loaded slot picker with per-slot health.
///
/// Load is an abstract unit count — the session counts connected VPs — and
/// ties always break to the lowest index, so sequentially adding keys to an
/// idle `Placement` yields the classic round-robin partition.
#[derive(Debug, Clone)]
pub struct Placement {
    load: Vec<u64>,
    healthy: Vec<bool>,
}

impl Placement {
    /// A placement over `slots` empty, healthy slots.
    pub fn new(slots: usize) -> Self {
        Placement { load: vec![0; slots], healthy: vec![true; slots] }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.load.len()
    }

    /// Current load units on `slot`.
    pub fn load(&self, slot: usize) -> u64 {
        self.load[slot]
    }

    /// Whether `slot` is still considered healthy.
    pub fn is_healthy(&self, slot: usize) -> bool {
        self.healthy[slot]
    }

    /// Mark `slot` down: [`Placement::least_loaded`] routes around it.
    pub fn mark_down(&mut self, slot: usize) {
        self.healthy[slot] = false;
    }

    /// Number of slots still marked healthy.
    pub fn healthy_count(&self) -> usize {
        self.healthy.iter().filter(|h| **h).count()
    }

    /// The least-loaded *healthy* slot, ties to the lowest index. `None` when
    /// every slot is down.
    pub fn least_loaded(&self) -> Option<usize> {
        self.pick(true)
    }

    /// The least-loaded slot over the full set regardless of health — the
    /// degraded fallback that keeps routing total.
    pub fn least_loaded_any(&self) -> Option<usize> {
        self.pick(false)
    }

    fn pick(&self, healthy_only: bool) -> Option<usize> {
        self.load
            .iter()
            .enumerate()
            .filter(|(i, _)| !healthy_only || self.healthy[*i])
            .min_by_key(|(i, load)| (**load, *i))
            .map(|(i, _)| i)
    }

    /// Add one load unit to `slot` (a key was routed there).
    pub fn add(&mut self, slot: usize) {
        self.load[slot] += 1;
    }

    /// Remove one load unit from `slot` (a key left), saturating at zero.
    pub fn remove(&mut self, slot: usize) {
        self.load[slot] = self.load[slot].saturating_sub(1);
    }

    /// Move one load unit from `from` to `to` (a key was reassigned). Moving a
    /// unit onto the slot it is already on is a no-op, so reassignment is
    /// idempotent.
    pub fn transfer(&mut self, from: usize, to: usize) {
        if from != to {
            self.remove(from);
            self.add(to);
        }
    }
}

/// SplitMix64: a strong, dependency-free 64-bit mixer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Consistent-hash ring with virtual nodes.
///
/// Each slot contributes `vnodes` points on a 64-bit ring; a key maps to the
/// first *alive* point clockwise from its hash. Retiring a slot removes only
/// its points, so surviving keys keep their placement and the retired slot's
/// keys spread over the survivors in proportion to their point share.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted `(point, slot)` pairs.
    points: Vec<(u64, usize)>,
    alive: Vec<bool>,
}

impl HashRing {
    /// A ring over `slots` slots with `vnodes` points each (`vnodes` is
    /// clamped to at least 1).
    pub fn new(slots: usize, vnodes: usize) -> Self {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(slots * vnodes);
        for slot in 0..slots {
            for v in 0..vnodes {
                points.push((mix64((slot as u64) << 32 | v as u64), slot));
            }
        }
        points.sort_unstable();
        HashRing { points, alive: vec![true; slots] }
    }

    /// Number of slots the ring was built over.
    pub fn slots(&self) -> usize {
        self.alive.len()
    }

    /// Whether `slot` is still alive on the ring.
    pub fn is_alive(&self, slot: usize) -> bool {
        self.alive[slot]
    }

    /// Number of slots still alive.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Retire `slot`: its keys re-map to the next alive point clockwise, all
    /// other keys keep their placement.
    pub fn retire(&mut self, slot: usize) {
        self.alive[slot] = false;
    }

    /// The alive slot owning `key`, or `None` when every slot is retired.
    pub fn slot_of(&self, key: u64) -> Option<usize> {
        if self.points.is_empty() || self.alive_count() == 0 {
            return None;
        }
        let h = mix64(key);
        let start = self.points.partition_point(|(p, _)| *p < h);
        let n = self.points.len();
        (0..n).map(|i| self.points[(start + i) % n].1).find(|&slot| self.alive[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_loaded_breaks_ties_low_and_round_robins() {
        let mut p = Placement::new(3);
        let mut picks = Vec::new();
        for _ in 0..6 {
            let s = p.least_loaded().unwrap();
            p.add(s);
            picks.push(s);
        }
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn down_slots_are_routed_around_with_total_fallback() {
        let mut p = Placement::new(2);
        p.add(1);
        p.mark_down(0);
        assert_eq!(p.least_loaded(), Some(1), "healthy slot wins despite load");
        p.mark_down(1);
        assert_eq!(p.least_loaded(), None);
        assert_eq!(p.least_loaded_any(), Some(0), "degraded fallback is total");
        assert_eq!(p.healthy_count(), 0);
    }

    #[test]
    fn transfer_is_idempotent_and_conserves_load() {
        let mut p = Placement::new(2);
        p.add(0);
        p.transfer(0, 1);
        assert_eq!((p.load(0), p.load(1)), (0, 1));
        p.transfer(1, 1);
        assert_eq!((p.load(0), p.load(1)), (0, 1), "self-transfer is a no-op");
        p.transfer(0, 1);
        assert_eq!((p.load(0), p.load(1)), (0, 2), "saturating remove never underflows");
    }

    #[test]
    fn ring_placement_is_stable_and_total() {
        let ring = HashRing::new(4, 16);
        for key in 0..256u64 {
            let a = ring.slot_of(key).unwrap();
            let b = ring.slot_of(key).unwrap();
            assert_eq!(a, b);
            assert!(a < 4);
        }
        // Every slot owns some keys at 16 vnodes over 256 keys.
        let mut owned = [0usize; 4];
        for key in 0..256u64 {
            owned[ring.slot_of(key).unwrap()] += 1;
        }
        assert!(owned.iter().all(|&n| n > 0), "ownership {owned:?}");
    }

    #[test]
    fn retiring_a_slot_moves_only_its_keys() {
        let mut ring = HashRing::new(4, 32);
        let before: Vec<usize> = (0..512u64).map(|k| ring.slot_of(k).unwrap()).collect();
        ring.retire(2);
        assert!(!ring.is_alive(2));
        for (k, &was) in before.iter().enumerate() {
            let now = ring.slot_of(k as u64).unwrap();
            assert_ne!(now, 2, "retired slot still owns key {k}");
            if was != 2 {
                assert_eq!(now, was, "survivor key {k} moved");
            }
        }
    }

    #[test]
    fn fully_retired_ring_maps_nothing() {
        let mut ring = HashRing::new(2, 4);
        ring.retire(0);
        ring.retire(1);
        assert_eq!(ring.slot_of(7), None);
        assert_eq!(ring.alive_count(), 0);
    }
}
