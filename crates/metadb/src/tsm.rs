//! The exported TSM object catalog — the concrete schema of §4.2.5/§4.2.6.
//!
//! The TSM server owns the authoritative (proprietary) object database; the
//! integration periodically exports rows into this indexed replica. PFTool
//! queries it to (a) resolve file → (tape id, sequence id) and sort recalls
//! into tape order, and (b) resolve GPFS file id → TSM object id for the
//! synchronous deleter.

use crate::table::{IndexKey, Table};
use copra_simtime::SimInstant;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// One exported TSM object row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TsmObjectRow {
    /// TSM object id (primary key).
    pub objid: u64,
    /// Archive-file-system path at migration time.
    pub path: String,
    /// GPFS file id (inode number) the object belongs to.
    pub fs_ino: u64,
    /// Volume the object lives on.
    pub tape: u32,
    /// Sequential record number on that volume.
    pub seq: u32,
    /// Object length in bytes.
    pub len: u64,
    /// When the object was stored.
    pub stored_at: SimInstant,
}

/// Borrowed form of a [`TsmObjectRow`]: what an export offers the replica
/// for one object. [`TsmCatalog::sync`] compares it against the stored row
/// in place and builds an owned row only when they differ.
#[derive(Debug, Clone, Copy)]
pub struct TsmRowView<'a> {
    pub objid: u64,
    pub path: &'a str,
    pub fs_ino: u64,
    pub tape: u32,
    pub seq: u32,
    pub len: u64,
    pub stored_at: SimInstant,
}

impl TsmRowView<'_> {
    /// True if `row` already holds exactly these fields.
    fn matches(&self, row: &TsmObjectRow) -> bool {
        self.objid == row.objid
            && self.path == row.path
            && self.fs_ino == row.fs_ino
            && self.tape == row.tape
            && self.seq == row.seq
            && self.len == row.len
            && self.stored_at == row.stored_at
    }

    fn to_row(self) -> TsmObjectRow {
        TsmObjectRow {
            objid: self.objid,
            path: self.path.to_string(),
            fs_ino: self.fs_ino,
            tape: self.tape,
            seq: self.seq,
            len: self.len,
            stored_at: self.stored_at,
        }
    }
}

fn key_path(_: &u64, r: &TsmObjectRow) -> IndexKey {
    vec![r.path.as_str().into()]
}
fn key_ino(_: &u64, r: &TsmObjectRow) -> IndexKey {
    vec![r.fs_ino.into()]
}
fn key_tape_seq(_: &u64, r: &TsmObjectRow) -> IndexKey {
    vec![r.tape.into(), r.seq.into()]
}

/// Thread-safe exported catalog.
pub struct TsmCatalog {
    table: RwLock<Table<u64, TsmObjectRow>>,
    /// Bumped on every mutation. Recovery compares generations across a
    /// re-export to tell "already consistent" from "repaired".
    generation: AtomicU64,
}

impl Default for TsmCatalog {
    fn default() -> Self {
        Self::new()
    }
}

impl TsmCatalog {
    pub fn new() -> Self {
        let mut table = Table::new("tsm_objects");
        table.add_index("by_path", key_path);
        table.add_index("by_ino", key_ino);
        table.add_index("by_tape_seq", key_tape_seq);
        TsmCatalog {
            table: RwLock::new(table),
            generation: AtomicU64::new(0),
        }
    }

    /// Mutation counter: monotone, bumped once per row written or dropped
    /// by [`record`], [`forget`] and [`sync`].
    ///
    /// [`record`]: TsmCatalog::record
    /// [`forget`]: TsmCatalog::forget
    /// [`sync`]: TsmCatalog::sync
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Insert or refresh one exported row.
    pub fn record(&self, row: TsmObjectRow) {
        self.table.write().upsert(row.objid, row);
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Drop a row (object deleted from TSM).
    pub fn forget(&self, objid: u64) -> Option<TsmObjectRow> {
        let old = self.table.write().remove(&objid);
        if old.is_some() {
            self.generation.fetch_add(1, Ordering::AcqRel);
        }
        old
    }

    /// Make the replica equal an export, under one write lock: write each
    /// of `rows` whose stored row differs or is missing, then drop every
    /// stored row whose objid fails `live`. Rows already identical are
    /// not touched, so the generation counts real drift (one bump per row
    /// written or dropped). Returns rows written.
    pub fn sync<'a>(
        &self,
        rows: impl IntoIterator<Item = TsmRowView<'a>>,
        live: impl Fn(u64) -> bool,
    ) -> usize {
        let mut table = self.table.write();
        let mut written = 0;
        for view in rows {
            if !table.get(&view.objid).is_some_and(|row| view.matches(row)) {
                table.upsert(view.objid, view.to_row());
                written += 1;
            }
        }
        let dropped = table.retain(|objid| live(*objid));
        self.generation
            .fetch_add((written + dropped) as u64, Ordering::AcqRel);
        written
    }

    /// Run [`Table::verify_indexes`] on the replica — scrub's last step.
    pub fn verify_indexes(&self) -> Result<(), String> {
        self.table.read().verify_indexes()
    }

    pub fn lookup(&self, objid: u64) -> Option<TsmObjectRow> {
        self.table.read().get(&objid).cloned()
    }

    pub fn len(&self) -> usize {
        self.table.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.read().len() == 0
    }

    /// All objects recorded for a path (there can be several across
    /// generations; newest last by objid).
    pub fn by_path(&self, path: &str) -> Vec<TsmObjectRow> {
        let t = self.table.read();
        t.select("by_path", &vec![path.into()])
            .into_iter()
            .filter_map(|k| t.get(&k).cloned())
            .collect()
    }

    /// Objects recorded for a GPFS file id.
    pub fn by_ino(&self, fs_ino: u64) -> Vec<TsmObjectRow> {
        let t = self.table.read();
        t.select("by_ino", &vec![fs_ino.into()])
            .into_iter()
            .filter_map(|k| t.get(&k).cloned())
            .collect()
    }

    /// The paper's recall optimization (§4.2.5): given candidate object
    /// ids, return their rows sorted by (tape id, sequence id) so each tape
    /// reads front-to-back. Unknown ids are skipped.
    pub fn sort_for_recall(&self, objids: &[u64]) -> Vec<TsmObjectRow> {
        let t = self.table.read();
        let mut rows: Vec<TsmObjectRow> =
            objids.iter().filter_map(|id| t.get(id).cloned()).collect();
        rows.sort_by_key(|r| (r.tape, r.seq, r.objid));
        rows
    }

    /// Everything on one volume in tape order (volume-drain recalls).
    pub fn on_tape(&self, tape: u32) -> Vec<TsmObjectRow> {
        let t = self.table.read();
        t.index_range(
            "by_tape_seq",
            &vec![tape.into(), 0u32.into()],
            &vec![(tape + 1).into(), 0u32.into()],
        )
        .into_iter()
        .filter_map(|(_, k)| t.get(&k).cloned())
        .collect()
    }

    /// Full dump in objid order (reconcile compares this against tape and
    /// file-system truth).
    pub fn dump(&self) -> Vec<TsmObjectRow> {
        self.table.read().scan().map(|(_, r)| r.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(objid: u64, path: &str, ino: u64, tape: u32, seq: u32) -> TsmObjectRow {
        TsmObjectRow {
            objid,
            path: path.to_string(),
            fs_ino: ino,
            tape,
            seq,
            len: 100,
            stored_at: SimInstant::EPOCH,
        }
    }

    #[test]
    fn record_lookup_forget() {
        let c = TsmCatalog::new();
        c.record(row(1, "/a", 10, 0, 0));
        assert_eq!(c.lookup(1).unwrap().path, "/a");
        assert_eq!(c.len(), 1);
        assert_eq!(c.forget(1).unwrap().fs_ino, 10);
        assert!(c.lookup(1).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn generation_counts_mutations_and_indexes_verify() {
        let c = TsmCatalog::new();
        assert_eq!(c.generation(), 0);
        c.record(row(1, "/a", 10, 0, 0));
        c.record(row(2, "/b", 11, 0, 1));
        assert_eq!(c.generation(), 2);
        c.forget(1);
        assert_eq!(c.generation(), 3);
        c.forget(999); // no-op forget doesn't bump
        assert_eq!(c.generation(), 3);
        assert_eq!(c.verify_indexes(), Ok(()));
    }

    #[test]
    fn path_and_ino_lookups() {
        let c = TsmCatalog::new();
        c.record(row(1, "/f", 10, 0, 0));
        c.record(row(2, "/f", 10, 1, 5)); // newer generation, same path/ino
        c.record(row(3, "/g", 11, 0, 1));
        assert_eq!(c.by_path("/f").len(), 2);
        assert_eq!(c.by_ino(10).len(), 2);
        assert_eq!(c.by_ino(11)[0].objid, 3);
        assert!(c.by_path("/nope").is_empty());
    }

    #[test]
    fn sort_for_recall_orders_by_tape_then_seq() {
        let c = TsmCatalog::new();
        c.record(row(1, "/a", 1, 2, 7));
        c.record(row(2, "/b", 2, 0, 3));
        c.record(row(3, "/c", 3, 2, 1));
        c.record(row(4, "/d", 4, 0, 9));
        let sorted = c.sort_for_recall(&[1, 2, 3, 4, 999]);
        let order: Vec<u64> = sorted.iter().map(|r| r.objid).collect();
        assert_eq!(order, vec![2, 4, 3, 1]); // (0,3) (0,9) (2,1) (2,7)
    }

    #[test]
    fn on_tape_is_volume_local_and_ordered() {
        let c = TsmCatalog::new();
        c.record(row(1, "/a", 1, 1, 5));
        c.record(row(2, "/b", 2, 1, 2));
        c.record(row(3, "/c", 3, 0, 0));
        c.record(row(4, "/d", 4, 2, 0));
        let t1 = c.on_tape(1);
        let order: Vec<u64> = t1.iter().map(|r| r.objid).collect();
        assert_eq!(order, vec![2, 1]);
    }
}
