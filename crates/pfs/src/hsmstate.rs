//! HSM residency state of a managed file.
//!
//! TSM's space management (HSM for GPFS) distinguishes three states, which
//! the integration relies on throughout (§4.2.2):

use serde::{Deserialize, Serialize};
use std::fmt;

/// Residency state of a file as policies, search and PFTool see it. The
/// file system itself keeps each file's residency, with its tape object id
/// and stub size, in a typed per-file record (`Pfs`'s side table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HsmState {
    /// Data lives only on file-system disk.
    Resident,
    /// Data is on disk *and* a valid copy exists on tape (migration done,
    /// hole not punched yet).
    Premigrated,
    /// Data lives only on tape; the on-disk inode is a stub.
    Migrated,
}

impl HsmState {
    pub fn as_str(self) -> &'static str {
        match self {
            HsmState::Resident => "resident",
            HsmState::Premigrated => "premigrated",
            HsmState::Migrated => "migrated",
        }
    }

    /// True if a tape copy exists.
    pub fn on_tape(self) -> bool {
        matches!(self, HsmState::Premigrated | HsmState::Migrated)
    }

    /// True if the data can be read straight from disk.
    pub fn on_disk(self) -> bool {
        matches!(self, HsmState::Resident | HsmState::Premigrated)
    }
}

impl fmt::Display for HsmState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let states = [
            HsmState::Resident,
            HsmState::Premigrated,
            HsmState::Migrated,
        ];
        assert_eq!(
            states.map(|s| s.to_string()),
            ["resident", "premigrated", "migrated"]
        );
    }

    #[test]
    fn residency_predicates() {
        assert!(HsmState::Resident.on_disk());
        assert!(!HsmState::Resident.on_tape());
        assert!(HsmState::Premigrated.on_disk());
        assert!(HsmState::Premigrated.on_tape());
        assert!(!HsmState::Migrated.on_disk());
        assert!(HsmState::Migrated.on_tape());
    }
}
