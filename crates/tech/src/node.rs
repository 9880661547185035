use crate::TechError;

/// A CMOS process node.
///
/// Covers the nodes used by the macros the paper models (Table III:
/// 65 nm Macro A, 7 nm Macro B, 130 nm Macro C, 22 nm Macro D) plus the
/// intermediate nodes needed for scaling studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(
    missing_docs,
    reason = "each variant is the node its name spells, in nanometres"
)]
pub enum TechNode {
    N180,
    N130,
    N90,
    N65,
    N45,
    N32,
    N22,
    N16,
    N14,
    N10,
    N7,
}

impl TechNode {
    /// All known nodes, largest feature size first.
    pub const ALL: [TechNode; 11] = [
        TechNode::N180,
        TechNode::N130,
        TechNode::N90,
        TechNode::N65,
        TechNode::N45,
        TechNode::N32,
        TechNode::N22,
        TechNode::N16,
        TechNode::N14,
        TechNode::N10,
        TechNode::N7,
    ];

    /// Feature size in nanometers.
    pub fn nm(self) -> f64 {
        match self {
            TechNode::N180 => 180.0,
            TechNode::N130 => 130.0,
            TechNode::N90 => 90.0,
            TechNode::N65 => 65.0,
            TechNode::N45 => 45.0,
            TechNode::N32 => 32.0,
            TechNode::N22 => 22.0,
            TechNode::N16 => 16.0,
            TechNode::N14 => 14.0,
            TechNode::N10 => 10.0,
            TechNode::N7 => 7.0,
        }
    }

    /// Nominal supply voltage for the node, in volts.
    ///
    /// Values follow the typical foundry nominals used by the Stillmaker &
    /// Baas scaling tables.
    pub fn nominal_vdd(self) -> f64 {
        match self {
            TechNode::N180 => 1.8,
            TechNode::N130 => 1.3,
            TechNode::N90 => 1.2,
            TechNode::N65 => 1.1,
            TechNode::N45 => 1.0,
            TechNode::N32 => 0.9,
            TechNode::N22 => 0.8,
            TechNode::N16 => 0.8,
            TechNode::N14 => 0.8,
            TechNode::N10 => 0.75,
            TechNode::N7 => 0.7,
        }
    }

    /// Typical threshold voltage for the node, in volts.
    ///
    /// Used by the alpha-power-law delay model; roughly `0.35 × V_dd`.
    pub fn threshold_voltage(self) -> f64 {
        0.35 * self.nominal_vdd()
    }

    /// Looks up the node whose feature size matches `nm`.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::UnknownNode`] if no node matches within 0.5 nm.
    pub fn from_nm(nm: f64) -> Result<Self, TechError> {
        Self::ALL
            .into_iter()
            .find(|n| (n.nm() - nm).abs() < 0.5)
            .ok_or(TechError::UnknownNode { nm })
    }
}

impl std::fmt::Display for TechNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}nm", self.nm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_nm_round_trips() {
        for node in TechNode::ALL {
            assert_eq!(TechNode::from_nm(node.nm()).unwrap(), node);
        }
    }

    #[test]
    fn from_nm_rejects_unknown() {
        assert!(matches!(
            TechNode::from_nm(100.0),
            Err(TechError::UnknownNode { .. })
        ));
    }

    #[test]
    fn vdd_monotonically_decreases_with_feature_size() {
        for pair in TechNode::ALL.windows(2) {
            assert!(pair[0].nominal_vdd() >= pair[1].nominal_vdd());
        }
    }

    #[test]
    fn threshold_below_supply() {
        for node in TechNode::ALL {
            assert!(node.threshold_voltage() < node.nominal_vdd());
        }
    }

    #[test]
    fn display_formats_nm() {
        assert_eq!(TechNode::N7.to_string(), "7nm");
        assert_eq!(TechNode::N130.to_string(), "130nm");
    }
}
