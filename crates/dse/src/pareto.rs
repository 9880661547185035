//! Multi-objective Pareto front with streaming insertion and deterministic
//! tie-breaking.
//!
//! The front is *order-independent*: inserting the same set of candidates
//! in any order yields the same members. That is what lets a parallel
//! explorer insert results as workers finish while still matching a naive
//! sequential sweep bit-for-bit (property-tested in
//! `tests/proptest_pareto.rs`).

/// The objective vector of one candidate design (paper Fig 2's axes plus
/// area and an accuracy proxy).
///
/// `energy_per_mac` and `area_mm2` are minimized; `tops_per_watt` and
/// `accuracy_proxy` are maximized. Note that `tops_per_watt` is an exact
/// monotone transform of `energy_per_mac` (2 / (energy·10¹²)), so carrying
/// both never changes a dominance verdict — both are kept because both are
/// the units the paper reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// Energy per useful word-level MAC, joules (minimize).
    pub energy_per_mac: f64,
    /// Energy efficiency, TOPS/W (maximize).
    pub tops_per_watt: f64,
    /// Total silicon area, mm² (minimize).
    pub area_mm2: f64,
    /// Fraction of the full column-sum width the output converter
    /// captures, in `[0, 1]` (maximize).
    pub accuracy_proxy: f64,
}

impl Objectives {
    /// The vector with every axis oriented as "smaller is better".
    fn minimized(&self) -> [f64; 4] {
        [
            self.energy_per_mac,
            -self.tops_per_watt,
            self.area_mm2,
            -self.accuracy_proxy,
        ]
    }

    /// Whether every axis is finite (required for insertion).
    pub fn is_finite(&self) -> bool {
        self.minimized().iter().all(|v| v.is_finite())
    }

    /// Weak dominance: `self` is no worse than `other` on every axis.
    /// Equal vectors dominate each other; strict dominance additionally
    /// requires one strictly better axis.
    pub fn dominates(&self, other: &Objectives) -> bool {
        self.minimized()
            .iter()
            .zip(other.minimized())
            .all(|(a, b)| a.total_cmp(&b).is_le())
    }

    /// Strict dominance: weakly dominates with at least one strictly
    /// better axis.
    pub fn strictly_dominates(&self, other: &Objectives) -> bool {
        self.dominates(other) && self.minimized() != other.minimized()
    }
}

/// One non-dominated candidate retained by the front.
#[derive(Debug, Clone)]
pub struct FrontMember<T> {
    /// The candidate's stable identity (its index in the design grid);
    /// also the tie-breaker between objective-identical candidates.
    pub id: u64,
    /// The candidate's objective vector.
    pub objectives: Objectives,
    /// The caller's payload (typically a design report).
    pub value: T,
}

/// A streaming Pareto front: holds only the non-dominated candidates seen
/// so far, so a sweep of 10k+ designs never materializes all reports.
///
/// Deterministic by construction: the retained set is exactly the
/// strictly-non-dominated candidates, with each class of objective-equal
/// candidates represented by its smallest `id`. Both rules are insertion
/// -order-independent, and members are kept sorted by `id`.
#[derive(Debug, Clone, Default)]
pub struct ParetoFront<T> {
    members: Vec<FrontMember<T>>,
}

impl<T> ParetoFront<T> {
    /// An empty front.
    pub fn new() -> Self {
        ParetoFront {
            members: Vec::new(),
        }
    }

    /// Offers a candidate to the front. Returns `true` if it was retained
    /// (it may still be evicted by a later, dominating candidate).
    ///
    /// # Example
    ///
    /// ```
    /// use cimloop_dse::{Objectives, ParetoFront};
    ///
    /// let obj = |energy: f64, accuracy: f64| Objectives {
    ///     energy_per_mac: energy,
    ///     tops_per_watt: 2.0 / (energy * 1e12),
    ///     area_mm2: 1.0,
    ///     accuracy_proxy: accuracy,
    /// };
    /// let mut front = ParetoFront::new();
    /// assert!(front.insert(0, obj(2e-12, 0.5), "baseline"));
    /// // Cheaper *and* more accurate: evicts the baseline.
    /// assert!(front.insert(1, obj(1e-12, 0.8), "better"));
    /// // Strictly worse than the survivor: rejected.
    /// assert!(!front.insert(2, obj(3e-12, 0.1), "worse"));
    /// // Incomparable trade-off (more energy, more accuracy): retained.
    /// assert!(front.insert(3, obj(2e-12, 0.9), "accurate"));
    /// assert_eq!(front.len(), 2);
    /// ```
    ///
    /// # Panics
    ///
    /// In debug builds, panics on non-finite objectives: a NaN axis would
    /// make dominance non-transitive and the front order-dependent.
    pub fn insert(&mut self, id: u64, objectives: Objectives, value: T) -> bool {
        debug_assert!(
            objectives.is_finite(),
            "non-finite objectives {objectives:?} for design {id}"
        );
        for member in &self.members {
            if member.objectives.strictly_dominates(&objectives) {
                return false;
            }
            // Objective-equal twins: the smallest id represents the class.
            if member.objectives.dominates(&objectives)
                && objectives.dominates(&member.objectives)
                && member.id <= id
            {
                return false;
            }
        }
        self.members.retain(|member| {
            let strictly_worse = objectives.strictly_dominates(&member.objectives);
            let twin_with_larger_id = objectives.dominates(&member.objectives)
                && member.objectives.dominates(&objectives)
                && id < member.id;
            !(strictly_worse || twin_with_larger_id)
        });
        let at = self.members.partition_point(|member| member.id < id);
        self.members.insert(
            at,
            FrontMember {
                id,
                objectives,
                value,
            },
        );
        true
    }

    /// The non-dominated members, ascending by `id`.
    pub fn members(&self) -> &[FrontMember<T>] {
        &self.members
    }

    /// Number of members on the front.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the front is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Merges another front into this one (used to combine per-worker
    /// fronts; equivalent to inserting every member individually).
    pub fn merge(&mut self, other: ParetoFront<T>) {
        for member in other.members {
            self.insert(member.id, member.objectives, member.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(e: f64, area: f64, acc: f64) -> Objectives {
        Objectives {
            energy_per_mac: e,
            tops_per_watt: 2.0 / (e * 1e12),
            area_mm2: area,
            accuracy_proxy: acc,
        }
    }

    #[test]
    fn dominated_candidates_are_rejected_and_evicted() {
        let mut front = ParetoFront::new();
        assert!(front.insert(0, obj(2.0, 2.0, 0.5), "a"));
        // Strictly better on every axis: evicts the first.
        assert!(front.insert(1, obj(1.0, 1.0, 0.8), "b"));
        assert_eq!(front.len(), 1);
        assert_eq!(front.members()[0].id, 1);
        // Strictly worse: rejected.
        assert!(!front.insert(2, obj(3.0, 3.0, 0.1), "c"));
        // Incomparable (worse energy, better accuracy): retained.
        assert!(front.insert(3, obj(2.0, 1.0, 0.9), "d"));
        assert_eq!(front.len(), 2);
    }

    #[test]
    fn equal_objectives_keep_smallest_id() {
        let v = obj(1.0, 1.0, 0.5);
        let mut a = ParetoFront::new();
        a.insert(7, v, ());
        a.insert(3, v, ());
        let mut b = ParetoFront::new();
        b.insert(3, v, ());
        b.insert(7, v, ());
        assert_eq!(a.len(), 1);
        assert_eq!(a.members()[0].id, 3);
        assert_eq!(b.members()[0].id, 3);
    }

    #[test]
    fn members_sorted_by_id() {
        let mut front = ParetoFront::new();
        front.insert(5, obj(1.0, 3.0, 0.5), ());
        front.insert(1, obj(3.0, 1.0, 0.5), ());
        front.insert(3, obj(2.0, 2.0, 0.5), ());
        let ids: Vec<u64> = front.members().iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    #[test]
    fn merge_equals_individual_insertion() {
        let mut a = ParetoFront::new();
        a.insert(0, obj(1.0, 3.0, 0.5), ());
        let mut b = ParetoFront::new();
        b.insert(1, obj(3.0, 1.0, 0.5), ());
        b.insert(2, obj(4.0, 4.0, 0.1), ()); // strictly dominated by id 1
        a.merge(b);
        let ids: Vec<u64> = a.members().iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
