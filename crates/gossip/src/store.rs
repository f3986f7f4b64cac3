//! The Gossip's state table and reconciliation logic.
//!
//! "The Gossip compares that state (using the previously registered
//! comparator function) with the latest state message received from other
//! application components. When the Gossip detects that a particular
//! message is out-of-date, it sends a fresh state update to the application
//! component that originated the out-of-date message" (§2.3). The store
//! keeps, per state type, the freshest blob seen anywhere and the last
//! blob seen *from each registered component*; [`GossipStore::stale_components`]
//! is the pairwise comparison pass — `N²` in registered components, the
//! cost §2.3 owns up to and the `gossip_scaling` bench measures.

use std::collections::{BTreeMap, BTreeSet};

use crate::freshness::{Comparator, VersionedBlob};
use crate::messages::{Register, StateCarrier, TypeRegistration};

/// Per-Gossip state table.
#[derive(Default)]
pub struct GossipStore {
    comparators: BTreeMap<u16, Comparator>,
    latest: BTreeMap<u16, VersionedBlob>,
    /// Last state seen from each (component, type).
    component_views: BTreeMap<(u64, u16), VersionedBlob>,
    /// Registered components and their types.
    registrations: BTreeMap<u64, BTreeSet<u16>>,
    /// Freshness comparisons performed (the N² metric).
    comparisons: u64,
}

impl GossipStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a component for the given types. Re-registration extends
    /// the type set (idempotent otherwise).
    pub fn register(&mut self, addr: u64, types: &[TypeRegistration]) {
        let set = self.registrations.entry(addr).or_default();
        for t in types {
            set.insert(t.stype);
            self.comparators
                .entry(t.stype)
                .or_insert_with(|| Comparator::from_wire_id(t.comparator));
        }
    }

    /// Registered component addresses, sorted.
    pub fn components(&self) -> Vec<u64> {
        self.registrations.keys().copied().collect()
    }

    /// Types a component registered for.
    pub fn types_of(&self, addr: u64) -> Vec<u16> {
        self.registrations
            .get(&addr)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The comparator for a type (default if never registered).
    pub fn comparator(&self, stype: u16) -> Comparator {
        self.comparators
            .get(&stype)
            .copied()
            .unwrap_or(Comparator::VersionCounter)
    }

    /// Freshest state known for a type.
    pub fn latest(&self, stype: u16) -> Option<&VersionedBlob> {
        self.latest.get(&stype)
    }

    /// Record a state observed *from a component* (poll reply). Returns
    /// `true` if this freshened the store's latest view.
    pub fn record_component_state(&mut self, addr: u64, stype: u16, blob: VersionedBlob) -> bool {
        self.component_views.insert((addr, stype), blob.clone());
        self.absorb(stype, blob)
    }

    /// Absorb a state from anywhere (gossip sync). Returns `true` if it
    /// freshened the latest view.
    pub fn absorb(&mut self, stype: u16, blob: VersionedBlob) -> bool {
        let cmp = self.comparator(stype);
        match self.latest.get(&stype) {
            None => {
                self.latest.insert(stype, blob);
                true
            }
            Some(cur) => {
                self.comparisons += 1;
                if cmp.compare(&blob, cur) == std::cmp::Ordering::Greater {
                    self.latest.insert(stype, blob);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// The pairwise pass: components whose last-seen state for `stype` is
    /// strictly staler than the store's latest. Each gets a push of the
    /// latest blob. Components that registered for the type but have never
    /// reported are included (their view is [`VersionedBlob::empty`]).
    pub fn stale_components(&mut self, stype: u16) -> Vec<(u64, VersionedBlob)> {
        let Some(latest) = self.latest.get(&stype).cloned() else {
            return Vec::new();
        };
        let cmp = self.comparator(stype);
        let mut out = Vec::new();
        for (&addr, types) in &self.registrations {
            if !types.contains(&stype) {
                continue;
            }
            let view = self
                .component_views
                .get(&(addr, stype))
                .cloned()
                .unwrap_or_else(VersionedBlob::empty);
            self.comparisons += 1;
            if cmp.compare(&latest, &view) == std::cmp::Ordering::Greater {
                out.push((addr, latest.clone()));
            }
        }
        out
    }

    /// The prototype-faithful reconciliation of §2.3: "each Gossip does a
    /// pair-wise comparison of application component state, N² comparisons
    /// are required for N application components". Compares every pair of
    /// component views to find the freshest, then returns the stale ones —
    /// functionally equivalent to [`GossipStore::stale_components`] (which
    /// is the optimized O(N) pass this reproduction's servers use; see
    /// DESIGN.md) but costed as the SC98 prototype was. The
    /// `gossip_scaling` bench measures exactly this.
    pub fn pairwise_reconcile(&mut self, stype: u16) -> Vec<(u64, VersionedBlob)> {
        let cmp = self.comparator(stype);
        let views: Vec<(u64, VersionedBlob)> = self
            .registrations
            .iter()
            .filter(|(_, types)| types.contains(&stype))
            .map(|(&addr, _)| {
                (
                    addr,
                    self.component_views
                        .get(&(addr, stype))
                        .cloned()
                        .unwrap_or_else(VersionedBlob::empty),
                )
            })
            .collect();
        if views.is_empty() {
            return Vec::new();
        }
        // Pairwise tournament: count every comparison, as the prototype did.
        let mut freshest = 0usize;
        for i in 0..views.len() {
            for j in (i + 1)..views.len() {
                self.comparisons += 1;
                let winner = if cmp.compare(&views[i].1, &views[j].1) == std::cmp::Ordering::Less {
                    j
                } else {
                    i
                };
                if cmp.compare(&views[winner].1, &views[freshest].1) == std::cmp::Ordering::Greater
                {
                    freshest = winner;
                }
            }
        }
        let best = views[freshest].1.clone();
        if self
            .latest
            .get(&stype)
            .map(|cur| cmp.compare(&best, cur) == std::cmp::Ordering::Greater)
            .unwrap_or(true)
        {
            self.latest.insert(stype, best.clone());
        }
        let latest = self.latest.get(&stype).cloned().unwrap_or(best);
        views
            .into_iter()
            .filter(|(_, view)| {
                self.comparisons += 1;
                cmp.compare(&latest, view) == std::cmp::Ordering::Greater
            })
            .map(|(addr, _)| (addr, latest.clone()))
            .collect()
    }

    /// Note that a push of `blob` was delivered to `addr` (optimistic view
    /// update so the same push is not repeated every round).
    pub fn note_pushed(&mut self, addr: u64, stype: u16, blob: VersionedBlob) {
        self.component_views.insert((addr, stype), blob);
    }

    /// Snapshot of latest states for a SYNC body.
    pub fn snapshot_states(&self) -> Vec<StateCarrier> {
        self.latest
            .iter()
            .map(|(&stype, blob)| StateCarrier {
                stype,
                blob: blob.clone(),
            })
            .collect()
    }

    /// Snapshot of registrations for a SYNC body.
    pub fn snapshot_registrations(&self) -> Vec<Register> {
        self.registrations
            .iter()
            .map(|(&addr, types)| Register {
                addr,
                types: types
                    .iter()
                    .map(|&stype| TypeRegistration {
                        stype,
                        comparator: self.comparator(stype).wire_id(),
                    })
                    .collect(),
            })
            .collect()
    }

    /// Total freshness comparisons performed (the §2.3 N² cost metric).
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }
}

/// Rendezvous (highest-random-weight) hash: which Gossip in `pool` is
/// responsible for `component`? Deterministic, and when the pool changes
/// only the components mapped to departed/arrived members move — the
/// "dynamically partitioned responsibility" of §2.3.
pub fn responsible_gossip(pool: &[u64], component: u64) -> Option<u64> {
    fn mix(a: u64, b: u64) -> u64 {
        let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        x ^ (x >> 33)
    }
    pool.iter().copied().max_by_key(|&g| (mix(g, component), g))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(stype: u16) -> Vec<TypeRegistration> {
        vec![TypeRegistration {
            stype,
            comparator: 0,
        }]
    }

    #[test]
    fn register_and_components() {
        let mut s = GossipStore::new();
        s.register(10, &reg(1));
        s.register(20, &reg(1));
        s.register(10, &reg(2));
        assert_eq!(s.components(), vec![10, 20]);
        assert_eq!(s.types_of(10), vec![1, 2]);
        assert_eq!(s.types_of(20), vec![1]);
    }

    #[test]
    fn absorb_keeps_freshest() {
        let mut s = GossipStore::new();
        assert!(s.absorb(1, VersionedBlob::new(5, vec![5])));
        assert!(
            !s.absorb(1, VersionedBlob::new(3, vec![3])),
            "stale ignored"
        );
        assert_eq!(s.latest(1).unwrap().version, 5);
        assert!(s.absorb(1, VersionedBlob::new(9, vec![9])));
        assert_eq!(s.latest(1).unwrap().version, 9);
    }

    #[test]
    fn stale_components_found_and_push_noted() {
        let mut s = GossipStore::new();
        s.register(10, &reg(1));
        s.register(20, &reg(1));
        s.register(30, &reg(2)); // different type: not involved
        s.record_component_state(10, 1, VersionedBlob::new(7, vec![7]));
        // 20 never reported; 10 is current.
        let stale = s.stale_components(1);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].0, 20);
        assert_eq!(stale[0].1.version, 7);
        // After noting the push, no one is stale.
        s.note_pushed(20, 1, VersionedBlob::new(7, vec![7]));
        assert!(s.stale_components(1).is_empty());
        // A fresher report from 20 makes 10 stale.
        s.record_component_state(20, 1, VersionedBlob::new(8, vec![8]));
        let stale = s.stale_components(1);
        assert_eq!(stale, vec![(10, VersionedBlob::new(8, vec![8]))]);
    }

    #[test]
    fn stale_components_empty_without_latest() {
        let mut s = GossipStore::new();
        s.register(10, &reg(1));
        assert!(s.stale_components(1).is_empty());
    }

    #[test]
    fn comparisons_scale_with_components() {
        // The N² cost: one full reconciliation round over N components
        // costs N comparisons per type; each poll absorb adds more.
        let mut small = GossipStore::new();
        let mut large = GossipStore::new();
        for i in 0..4 {
            small.register(i, &reg(1));
        }
        for i in 0..64 {
            large.register(i, &reg(1));
        }
        small.record_component_state(0, 1, VersionedBlob::new(1, vec![]));
        large.record_component_state(0, 1, VersionedBlob::new(1, vec![]));
        small.stale_components(1);
        large.stale_components(1);
        assert!(large.comparisons() > 10 * small.comparisons() / 4);
    }

    #[test]
    fn snapshots_cover_all_state() {
        let mut s = GossipStore::new();
        s.register(10, &reg(1));
        s.absorb(1, VersionedBlob::new(2, vec![2]));
        s.absorb(9, VersionedBlob::new(1, vec![1]));
        let states = s.snapshot_states();
        assert_eq!(states.len(), 2);
        let regs = s.snapshot_registrations();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].addr, 10);
    }

    #[test]
    fn pairwise_reconcile_matches_optimized_pass() {
        let mk = || {
            let mut s = GossipStore::new();
            for addr in 0..6u64 {
                s.register(addr, &reg(1));
            }
            for addr in 0..5u64 {
                s.record_component_state(addr, 1, VersionedBlob::new(addr + 1, vec![]));
            }
            s
        };
        let mut a = mk();
        let mut b = mk();
        let fast = a.stale_components(1);
        let slow = b.pairwise_reconcile(1);
        assert_eq!(fast, slow, "both passes find the same stale set");
        // Component 4 (version 5) is freshest; 0..=3 and the silent 5 are
        // stale.
        assert_eq!(slow.len(), 5);
        assert!(slow.iter().all(|(_, blob)| blob.version == 5));
        // And the pairwise pass costs quadratically more.
        assert!(b.comparisons() > 2 * a.comparisons());
    }

    #[test]
    fn pairwise_reconcile_empty_cases() {
        let mut s = GossipStore::new();
        assert!(s.pairwise_reconcile(1).is_empty());
        s.register(1, &reg(1));
        // One registered component that never reported: its empty view is
        // the freshest thing known, so nothing is stale.
        assert!(s.pairwise_reconcile(1).is_empty());
    }

    #[test]
    fn rendezvous_hash_is_deterministic_and_balanced() {
        let pool = vec![100, 200, 300, 400];
        let mut counts = BTreeMap::new();
        for c in 0..10_000u64 {
            let g = responsible_gossip(&pool, c).unwrap();
            let g2 = responsible_gossip(&pool, c).unwrap();
            assert_eq!(g, g2);
            *counts.entry(g).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 4, "every gossip gets work");
        for (&g, &n) in &counts {
            assert!(
                (1500..4000).contains(&n),
                "gossip {g} owns {n} of 10000 (imbalanced)"
            );
        }
    }

    #[test]
    fn rendezvous_hash_minimal_disruption() {
        let pool4 = vec![100, 200, 300, 400];
        let pool3 = vec![100, 200, 300]; // 400 died
        let mut moved_not_from_dead = 0;
        for c in 0..5_000u64 {
            let before = responsible_gossip(&pool4, c).unwrap();
            let after = responsible_gossip(&pool3, c).unwrap();
            if before != 400 && before != after {
                moved_not_from_dead += 1;
            }
        }
        assert_eq!(
            moved_not_from_dead, 0,
            "only components owned by the dead gossip may move"
        );
    }

    #[test]
    fn rendezvous_hash_empty_pool() {
        assert!(responsible_gossip(&[], 5).is_none());
        assert_eq!(responsible_gossip(&[9], 5), Some(9));
    }
}
