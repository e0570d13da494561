//! Property tests: secondary indexes always agree with a full scan.

use copra_metadb::{Table, TsmCatalog, TsmObjectRow};
use copra_simtime::SimInstant;
use proptest::prelude::*;

#[derive(Debug, Clone, PartialEq)]
struct Row {
    group: u64,
    name: String,
}

#[derive(Debug, Clone)]
enum Op {
    Upsert(u64, u64, String),
    Remove(u64),
    /// Keep only the keys not divisible by this.
    Retain(u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..40, 0u64..5, "[a-c]{1,3}").prop_map(|(k, g, n)| Op::Upsert(k, g, n)),
            (0u64..40).prop_map(Op::Remove),
            (2u64..7).prop_map(Op::Retain),
        ],
        1..80,
    )
}

proptest! {
    /// After any op sequence, `select` by index equals filtering a scan,
    /// and `index_scan` is exactly the sorted multiset of live rows.
    #[test]
    fn index_agrees_with_scan(ops in ops()) {
        let mut table: Table<u64, Row> = Table::new("t");
        table.add_index("by_group", |_, r: &Row| vec![r.group.into()]);
        table.add_index("by_name", |_, r: &Row| vec![r.name.as_str().into()]);
        let mut model: std::collections::BTreeMap<u64, Row> = Default::default();
        for op in ops {
            match op {
                Op::Upsert(k, group, name) => {
                    let row = Row { group, name };
                    table.upsert(k, row.clone());
                    model.insert(k, row);
                }
                Op::Remove(k) => {
                    prop_assert_eq!(table.remove(&k).is_some(), model.remove(&k).is_some());
                }
                Op::Retain(m) => {
                    let before = model.len();
                    model.retain(|k, _| k % m != 0);
                    prop_assert_eq!(table.retain(|k| k % m != 0), before - model.len());
                }
            }
            prop_assert_eq!(table.len(), model.len());
            // point lookups agree
            for g in 0u64..5 {
                let got = table.select("by_group", &vec![g.into()]);
                let want: Vec<u64> = model
                    .iter()
                    .filter(|(_, r)| r.group == g)
                    .map(|(k, _)| *k)
                    .collect();
                prop_assert_eq!(got, want);
            }
            // full index order agrees
            let got: Vec<(u64, u64)> = table
                .index_scan("by_group")
                .into_iter()
                .map(|(ik, k)| match &ik[0] {
                    copra_metadb::Value::U64(g) => (*g, k),
                    _ => unreachable!(),
                })
                .collect();
            let mut want: Vec<(u64, u64)> =
                model.iter().map(|(k, r)| (r.group, *k)).collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    /// sort_for_recall returns rows sorted by (tape, seq) and exactly the
    /// known subset of the requested ids.
    #[test]
    fn recall_order_is_sorted_and_complete(
        rows in prop::collection::vec((0u64..1000, 0u32..16, 0u32..64), 1..60),
        extra in prop::collection::vec(1000u64..2000, 0..10),
    ) {
        let catalog = TsmCatalog::new();
        let mut known = std::collections::BTreeSet::new();
        for (i, (objid_base, tape, seq)) in rows.iter().enumerate() {
            let objid = objid_base + i as u64 * 1000; // unique
            known.insert(objid);
            catalog.record(TsmObjectRow {
                objid,
                path: format!("/f{objid}"),
                fs_ino: objid + 1,
                tape: *tape,
                seq: *seq,
                len: 1,
                stored_at: SimInstant::EPOCH,
            });
        }
        let mut ask: Vec<u64> = known.iter().cloned().collect();
        ask.extend(extra.iter().cloned().filter(|e| !known.contains(e)));
        let sorted = catalog.sort_for_recall(&ask);
        prop_assert_eq!(sorted.len(), known.len(), "unknown ids must be skipped");
        for w in sorted.windows(2) {
            prop_assert!(
                (w[0].tape, w[0].seq, w[0].objid) <= (w[1].tape, w[1].seq, w[1].objid)
            );
        }
    }
}
