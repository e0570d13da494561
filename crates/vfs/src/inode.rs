//! Inode identifiers and attributes.

use copra_simtime::SimInstant;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Inode number. Unique within one file system for its lifetime (inode
/// numbers are not reused; `(ino, generation)` is therefore globally unique
/// too, and higher layers use `ino` as the stable "GPFS file ID" the paper's
/// synchronous deleter keys on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Ino(pub u64);

impl fmt::Display for Ino {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ino:{}", self.0)
    }
}

/// File kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FileType {
    Regular,
    Directory,
}

/// Stat-visible attributes of an inode.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InodeAttr {
    pub ino: Ino,
    pub ftype: FileType,
    /// Logical size in bytes (directories report 0).
    pub size: u64,
    /// Owner uid (the trashcan and ILM policies select on this).
    pub uid: u32,
    /// Last data modification.
    pub mtime: SimInstant,
    /// Last access (reads update it; policy rules select on age).
    pub atime: SimInstant,
    /// Last attribute change.
    pub ctime: SimInstant,
    /// Extended attributes. Higher layers use these for fuse chunk maps;
    /// HSM state and pool placement live in the parallel file system's own
    /// per-ino side table, not here.
    /// Shared with the live inode (copy-on-write): building an attr never
    /// deep-copies the map, which keeps `stat`/`walk`/scan allocation-free
    /// on the hot path.
    pub xattrs: Arc<BTreeMap<String, String>>,
}

impl InodeAttr {
    pub fn is_dir(&self) -> bool {
        self.ftype == FileType::Directory
    }

    pub fn is_file(&self) -> bool {
        self.ftype == FileType::Regular
    }

    pub fn xattr(&self, key: &str) -> Option<&str> {
        self.xattrs.get(key).map(|s| s.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_helpers() {
        let attr = InodeAttr {
            ino: Ino(7),
            ftype: FileType::Regular,
            size: 10,
            uid: 1000,
            mtime: SimInstant::EPOCH,
            atime: SimInstant::EPOCH,
            ctime: SimInstant::EPOCH,
            xattrs: Arc::new(BTreeMap::from([(
                "user.tag".to_string(),
                "blue".to_string(),
            )])),
        };
        assert!(attr.is_file());
        assert!(!attr.is_dir());
        assert_eq!(attr.xattr("user.tag"), Some("blue"));
        assert_eq!(attr.xattr("missing"), None);
        assert_eq!(Ino(7).to_string(), "ino:7");
    }
}
