//! Property tests: pool accounting and HSM state machine invariants under
//! arbitrary operation sequences.

use copra_pfs::{Cmp, HsmState, Pfs, PfsBuilder, PoolConfig, Predicate, Rule};
use copra_simtime::{Clock, DataSize};
use copra_vfs::{Content, Ino};
use proptest::prelude::*;
use std::collections::HashMap;

fn archive() -> Pfs {
    PfsBuilder::new("a", Clock::new())
        .pool(PoolConfig::fast_disk("fast", 2, DataSize::tb(1)))
        .pool(PoolConfig::slow_disk("slow", 2, DataSize::tb(1)))
        .placement(vec![
            Rule {
                name: "small".into(),
                action: copra_pfs::Action::Place {
                    pool: "slow".into(),
                },
                predicate: Predicate::SizeBytes(Cmp::Lt, 1000),
            },
            Rule {
                name: "rest".into(),
                action: copra_pfs::Action::Place {
                    pool: "fast".into(),
                },
                predicate: Predicate::True,
            },
        ])
        .build()
}

/// What the test expects of one file.
struct Model {
    ino: Ino,
    logical: u64,
    state: HsmState,
    objid: Option<u64>,
    orphan: Option<u64>,
}

impl Model {
    /// An overwrite or truncate of a file still on disk.
    fn mutate(&mut self) {
        if self.state == HsmState::Premigrated {
            self.orphan = self.objid;
        }
        self.state = HsmState::Resident;
        self.objid = None;
    }
}

#[derive(Debug, Clone)]
enum Op {
    Create(u8, u32),
    WriteAt(u8, u32, u32),
    Truncate(u8, u32),
    Unlink(u8),
    Premigrate(u8),
    Punch(u8),
    Restore(u8),
    MovePool(u8),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..12, 0u32..100_000).prop_map(|(f, s)| Op::Create(f, s)),
            (0u8..12, 0u32..50_000, 0u32..50_000).prop_map(|(f, o, l)| Op::WriteAt(f, o, l)),
            (0u8..12, 0u32..120_000).prop_map(|(f, s)| Op::Truncate(f, s)),
            (0u8..12).prop_map(Op::Unlink),
            (0u8..12).prop_map(Op::Premigrate),
            (0u8..12).prop_map(Op::Punch),
            (0u8..12).prop_map(Op::Restore),
            (0u8..12).prop_map(Op::MovePool),
        ],
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After any sequence of namespace + DMAPI operations:
    /// * per-pool `used` equals the sum of on-disk bytes of its files;
    /// * logical sizes survive punch/restore;
    /// * the HSM state machine only takes legal transitions;
    /// * a file has a tape object id exactly when it is not resident, and
    ///   an overwrite parks the stale one as its orphan.
    #[test]
    fn pool_accounting_matches_reality(ops in ops()) {
        let pfs = archive();
        let mut files: HashMap<u8, Model> = HashMap::new();
        let mut next_objid = 1u64;
        for op in ops {
            match op {
                Op::Create(f, size) => {
                    if files.contains_key(&f) {
                        continue;
                    }
                    let ino = pfs
                        .create_file(&format!("/f{f}"), 0, Content::synthetic(f as u64, size as u64))
                        .unwrap();
                    files.insert(
                        f,
                        Model {
                            ino,
                            logical: size as u64,
                            state: HsmState::Resident,
                            objid: None,
                            orphan: None,
                        },
                    );
                }
                Op::WriteAt(f, off, len) => {
                    if let Some(m) = files.get_mut(&f) {
                        let r = pfs.write_at(m.ino, off as u64, Content::synthetic(9, len as u64));
                        if m.state == HsmState::Migrated {
                            prop_assert!(r.is_err());
                            continue;
                        }
                        r.unwrap();
                        m.logical = m.logical.max(off as u64 + len as u64);
                        m.mutate();
                    }
                }
                Op::Truncate(f, size) => {
                    if let Some(m) = files.get_mut(&f) {
                        let r = pfs.truncate(m.ino, size as u64);
                        if m.state == HsmState::Migrated {
                            prop_assert!(r.is_err());
                            continue;
                        }
                        r.unwrap();
                        m.logical = size as u64;
                        m.mutate();
                    }
                }
                Op::Unlink(f) => {
                    if let Some(m) = files.get(&f) {
                        let attr = pfs.unlink(&format!("/f{f}")).unwrap();
                        prop_assert_eq!(attr.size, m.logical);
                        files.remove(&f);
                    }
                }
                Op::Premigrate(f) => {
                    if let Some(m) = files.get_mut(&f) {
                        match m.state {
                            HsmState::Resident => {
                                pfs.mark_premigrated(m.ino, next_objid).unwrap();
                                m.state = HsmState::Premigrated;
                                m.objid = Some(next_objid);
                                next_objid += 1;
                            }
                            HsmState::Migrated => {
                                prop_assert!(pfs.mark_premigrated(m.ino, next_objid).is_err());
                            }
                            HsmState::Premigrated => {}
                        }
                    }
                }
                Op::Punch(f) => {
                    if let Some(m) = files.get_mut(&f) {
                        let r = pfs.punch_hole(m.ino);
                        if m.state == HsmState::Premigrated {
                            r.unwrap();
                            m.state = HsmState::Migrated;
                        } else {
                            prop_assert!(r.is_err());
                        }
                    }
                }
                Op::Restore(f) => {
                    if let Some(m) = files.get_mut(&f) {
                        let r = pfs.restore_stub(m.ino, Content::synthetic(1, m.logical));
                        if m.state == HsmState::Migrated {
                            r.unwrap();
                            m.state = HsmState::Premigrated;
                        } else {
                            prop_assert!(r.is_err());
                        }
                    }
                }
                Op::MovePool(f) => {
                    if let Some(m) = files.get(&f) {
                        let target = if pfs.pool(pfs.pool_of(m.ino)).name() == "fast" {
                            "slow"
                        } else {
                            "fast"
                        };
                        pfs.move_to_pool(m.ino, target, copra_simtime::SimInstant::EPOCH)
                            .unwrap();
                    }
                }
            }
            // Invariants after every step.
            let mut per_pool: HashMap<String, u64> = HashMap::new();
            for (f, m) in &files {
                let attr = pfs.stat(&format!("/f{f}")).unwrap();
                prop_assert_eq!(attr.size, m.logical, "logical size of f{}", f);
                prop_assert_eq!(pfs.logical_size(m.ino).unwrap(), m.logical);
                prop_assert_eq!(pfs.hsm_state(m.ino).unwrap(), m.state);
                prop_assert_eq!(pfs.hsm_objid(m.ino).unwrap(), m.objid, "objid of f{}", f);
                prop_assert_eq!(pfs.orphan_objid(m.ino).unwrap(), m.orphan, "orphan of f{}", f);
                let on_disk = if m.state == HsmState::Migrated { 0 } else { m.logical };
                *per_pool
                    .entry(pfs.pool(pfs.pool_of(m.ino)).name().to_string())
                    .or_default() += on_disk;
            }
            for pool in pfs.pools() {
                let want = per_pool.get(pool.name()).copied().unwrap_or(0);
                prop_assert_eq!(
                    pool.usage().used.as_bytes(),
                    want,
                    "pool {} accounting",
                    pool.name()
                );
            }
        }
    }
}
