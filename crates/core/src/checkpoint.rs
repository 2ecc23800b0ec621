//! Checkpoint storage and §5 peer-replica reconstruction.
//!
//! The standing-view checkpoint protocol (see [`crate::standing`]) flows an
//! aligned barrier through the data plane every
//! [`checkpoint_interval`](crate::MultiwayConfig::checkpoint_interval)
//! epochs; at alignment every stateful operator serializes its state (the
//! [`squall_join::Snapshot`] contract) and ships the blob to the
//! coordinator. This module is the coordinator side: the
//! [`CheckpointStore`] collects blobs per epoch, knows when a checkpoint is
//! *complete* (every join task plus the view sink reported), and hands a
//! [`RestoreState`] to recovery.
//!
//! It also implements the paper's §5 observation as a store feature: "if
//! the partitioning scheme replicates tuples, a failed node can recover its
//! state from some of its peers rather than from a disk checkpoint".
//! When the newest checkpoint is missing exactly the blobs of a lost
//! worker, [`CheckpointStore::reconstruct_newest`] rebuilds them from the
//! surviving replicas' blobs — provided the scheme's replication makes that
//! sound — instead of falling back to an older complete checkpoint.

use std::collections::BTreeMap;

use squall_common::codec::Reader;
use squall_common::{FxHashMap, Result, SplitMix64, Tuple};
use squall_join::snapshot::{get_base_rows, put_base_rows};
use squall_partition::hypercube::DimRole;
use squall_partition::HypercubeScheme;

use crate::recovery::PlacementTracker;

/// Blob role byte: a join bolt's state.
pub const ROLE_JOIN: u8 = 0;
/// Blob role byte: the view sink's state.
pub const ROLE_SINK: u8 = 1;

/// Join-blob tag byte: full-history join (base relations only — the format
/// peer reconstruction understands).
pub const JOIN_BLOB_FULL: u8 = 0;
/// Join-blob tag byte: windowed join (opaque buffers; restorable but not
/// peer-reconstructable).
pub const JOIN_BLOB_WINDOWED: u8 = 1;

/// One snapshot blob in flight from an operator to the coordinator:
/// `(role, task, epoch, payload)`.
pub type SnapshotBlobMsg = (u8, usize, u64, Vec<u8>);

/// The blobs collected for one checkpoint epoch.
#[derive(Debug, Default, Clone)]
pub struct EpochBlobs {
    /// Join-task id → serialized join state (tag byte + snapshot bytes).
    pub join: FxHashMap<usize, Vec<u8>>,
    /// The view sink's serialized state.
    pub sink: Option<Vec<u8>>,
}

/// Everything needed to restart a standing view from a checkpoint.
#[derive(Debug, Default, Clone)]
pub struct RestoreState {
    /// The checkpoint's epoch: operators resume holding state *through*
    /// this epoch, and the sink dedups replays at it.
    pub epoch: u64,
    /// Join-task id → blob, for every join task.
    pub join: FxHashMap<usize, Vec<u8>>,
    /// The view sink's blob.
    pub sink: Option<Vec<u8>>,
}

/// Coordinator-side store of checkpoint blobs, newest epochs last.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    epochs: BTreeMap<u64, EpochBlobs>,
    n_join_tasks: usize,
}

impl CheckpointStore {
    /// A store expecting `n_join_tasks` join blobs (plus one sink blob) per
    /// complete checkpoint.
    pub fn new(n_join_tasks: usize) -> CheckpointStore {
        CheckpointStore { epochs: BTreeMap::new(), n_join_tasks }
    }

    /// File one blob. Unknown roles are ignored (forward compatibility);
    /// re-sent blobs overwrite.
    pub fn insert(&mut self, (role, task, epoch, payload): SnapshotBlobMsg) {
        let slot = self.epochs.entry(epoch).or_default();
        match role {
            ROLE_JOIN => {
                slot.join.insert(task, payload);
            }
            ROLE_SINK => slot.sink = Some(payload),
            _ => {}
        }
    }

    /// Whether every expected blob for `epoch` arrived.
    pub fn is_complete(&self, epoch: u64) -> bool {
        self.epochs
            .get(&epoch)
            .is_some_and(|b| b.sink.is_some() && b.join.len() >= self.n_join_tasks)
    }

    /// The newest epoch with a complete blob set.
    pub fn latest_complete(&self) -> Option<u64> {
        self.epochs.keys().rev().copied().find(|&e| self.is_complete(e))
    }

    /// The newest epoch any blob arrived for (complete or not).
    pub fn newest(&self) -> Option<u64> {
        self.epochs.keys().next_back().copied()
    }

    /// Assemble the restore state of a complete checkpoint.
    pub fn restore_state(&self, epoch: u64) -> Option<RestoreState> {
        if !self.is_complete(epoch) {
            return None;
        }
        let blobs = self.epochs.get(&epoch)?;
        Some(RestoreState { epoch, join: blobs.join.clone(), sink: blobs.sink.clone() })
    }

    /// Drop every checkpoint older than `keep_from` (bounded storage: once
    /// a newer checkpoint completes, older ones are never restored).
    pub fn trim_below(&mut self, keep_from: u64) {
        self.epochs = self.epochs.split_off(&keep_from);
    }

    /// §5 peer-replica reconstruction: complete the newest (partial)
    /// checkpoint from surviving replicas' blobs, without falling back to
    /// an older epoch. Returns the completed epoch when reconstruction was
    /// sound and succeeded.
    ///
    /// Soundness requires that routing is reproducible (no
    /// [`DimRole::Random`] axes — standing views pin the Hash scheme, which
    /// guarantees this), every present join blob is a full-history blob,
    /// the sink blob arrived (the sink lives on the coordinator), and every
    /// *replica group* (machines agreeing on all non-Spread coordinates)
    /// that lost a member kept at least one member with a blob — otherwise
    /// some tuples are unrecoverable from peers and an older complete
    /// checkpoint must be used instead.
    pub fn reconstruct_newest(&mut self, scheme: &HypercubeScheme, n_rels: usize) -> Option<u64> {
        let epoch = self.newest()?;
        if self.is_complete(epoch) {
            return Some(epoch);
        }
        let blobs = self.epochs.get(&epoch)?;
        blobs.sink.as_ref()?;
        if scheme.roles.iter().flatten().any(|r| matches!(r, DimRole::Random)) {
            return None; // routing not reproducible offline
        }
        if blobs.join.values().any(|b| b.first() != Some(&JOIN_BLOB_FULL)) {
            return None; // windowed blobs are opaque to peers
        }
        let routed = scheme.machines();
        let missing: Vec<usize> =
            (0..self.n_join_tasks).filter(|t| !blobs.join.contains_key(t)).collect();
        for rel in 0..n_rels {
            if !replica_groups_covered(scheme, rel, &missing, &blobs.join) {
                return None;
            }
        }

        // Union the surviving stores and re-derive every tuple's placement
        // with the scheme's (deterministic) routing.
        let mut stored: FxHashMap<(usize, Tuple), i64> = FxHashMap::default();
        for (&task, blob) in &blobs.join {
            if task >= routed {
                continue;
            }
            let rels = parse_full_blob(blob).ok()?;
            for (rel, rows) in rels.into_iter().enumerate() {
                for (tuple, mult) in rows {
                    stored.entry((rel, tuple)).or_insert(mult);
                }
            }
        }
        let mut tracker = PlacementTracker::new();
        let mut rng = SplitMix64::new(0);
        let mut out = Vec::new();
        for (rel, tuple) in stored.keys() {
            scheme.route(*rel, tuple, &mut rng, &mut out);
            tracker.record(*rel, tuple, &out);
        }

        let mut rebuilt: Vec<(usize, Vec<u8>)> = Vec::new();
        for &task in &missing {
            let mut rows: Vec<FxHashMap<Tuple, i64>> = vec![FxHashMap::default(); n_rels];
            if task < routed {
                let plan = tracker.plan_recovery(task);
                if !plan.unrecoverable.is_empty() {
                    return None;
                }
                for r in plan.recovered {
                    let mult = *stored.get(&(r.rel, r.tuple.clone()))?;
                    rows[r.rel].insert(r.tuple, mult);
                }
            }
            rebuilt.push((task, serialize_full_blob(&rows)));
        }
        let slot = self.epochs.get_mut(&epoch)?;
        for (task, blob) in rebuilt {
            slot.join.insert(task, blob);
        }
        Some(epoch)
    }
}

/// True when, for `rel`, every replica group containing a missing task also
/// contains a surviving task with a blob. A replica group is the set of
/// machines agreeing on every non-Spread coordinate — exactly the replica
/// set of the tuples routed there (Spread axes replicate across all their
/// coordinates, §5).
fn replica_groups_covered(
    scheme: &HypercubeScheme,
    rel: usize,
    missing: &[usize],
    present: &FxHashMap<usize, Vec<u8>>,
) -> bool {
    let routed = scheme.machines();
    let group_of = |m: usize| -> Vec<usize> {
        coords(scheme, m)
            .into_iter()
            .zip(&scheme.roles[rel])
            .filter(|(_, role)| !matches!(role, DimRole::Spread))
            .map(|(c, _)| c)
            .collect()
    };
    let mut lost_groups: Vec<Vec<usize>> =
        missing.iter().filter(|&&m| m < routed).map(|&m| group_of(m)).collect();
    lost_groups.sort();
    lost_groups.dedup();
    if lost_groups.is_empty() {
        return true;
    }
    let covered: std::collections::HashSet<Vec<usize>> =
        present.keys().filter(|&&m| m < routed).map(|&m| group_of(m)).collect();
    lost_groups.iter().all(|g| covered.contains(g))
}

/// A machine's hypercube coordinates (row-major, matching the scheme's
/// routing strides).
fn coords(scheme: &HypercubeScheme, machine: usize) -> Vec<usize> {
    let mut strides = vec![1usize; scheme.dims.len()];
    for i in (0..scheme.dims.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * scheme.dims[i + 1].size;
    }
    scheme.dims.iter().zip(&strides).map(|(dim, stride)| (machine / stride) % dim.size).collect()
}

/// Parse a full-history join blob (tag byte + the
/// [`squall_join::DBToasterJoin`] snapshot format) into per-relation
/// `(tuple, multiplicity)` rows.
pub fn parse_full_blob(blob: &[u8]) -> Result<Vec<Vec<(Tuple, i64)>>> {
    let mut r = Reader::new(blob);
    if r.u8()? != JOIN_BLOB_FULL {
        return Err(squall_common::SquallError::Codec("not a full-history join blob".into()));
    }
    let rels = get_base_rows(&mut r)?;
    r.finish()?;
    Ok(rels)
}

/// Serialize per-relation stores into a full-history join blob,
/// byte-identical to what the lost join task itself would have produced.
pub fn serialize_full_blob(rels: &[FxHashMap<Tuple, i64>]) -> Vec<u8> {
    let mut buf = vec![JOIN_BLOB_FULL];
    put_base_rows(&mut buf, rels.iter().map(|rows| rows.iter().map(|(t, &m)| (t, m)).collect()));
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use squall_common::{tuple, DataType, Schema};
    use squall_expr::{JoinAtom, MultiJoinSpec, RelationDef};
    use squall_join::{DBToasterJoin, Snapshot};
    use squall_partition::hypercube::{Dimension, PartitionKind};

    fn chain3() -> MultiJoinSpec {
        let mk = |n: &str| {
            RelationDef::new(n, Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]), 0)
        };
        MultiJoinSpec::new(
            vec![mk("R"), mk("S"), mk("T")],
            vec![JoinAtom::eq(0, 1, 1, 0), JoinAtom::eq(1, 1, 2, 0)],
        )
        .unwrap()
    }

    /// A 2×2 hash cube over the chain: R spreads over z, T spreads over y,
    /// S is hashed on both (fully partitioned — the §5 unsound case).
    fn hash_cube() -> HypercubeScheme {
        HypercubeScheme::new(
            3,
            vec![
                Dimension {
                    name: "y".into(),
                    size: 2,
                    kind: PartitionKind::Hash,
                    members: vec![(0, 1), (1, 0)],
                },
                Dimension {
                    name: "z".into(),
                    size: 2,
                    kind: PartitionKind::Hash,
                    members: vec![(1, 1), (2, 0)],
                },
            ],
            3,
        )
    }

    fn join_blob(j: &DBToasterJoin) -> Vec<u8> {
        let mut buf = vec![JOIN_BLOB_FULL];
        j.snapshot_state(&mut buf);
        buf
    }

    /// Route `n` tuples per relation into per-machine joins and return each
    /// machine's blob.
    fn routed_blobs(scheme: &HypercubeScheme, n: usize) -> Vec<Vec<u8>> {
        let spec = chain3();
        let mut joins: Vec<DBToasterJoin> =
            (0..scheme.machines()).map(|_| DBToasterJoin::new(&spec)).collect();
        let mut rng = squall_common::SplitMix64::new(9);
        let mut out = Vec::new();
        let mut discard = Vec::new();
        for rel in 0..3 {
            for i in 0..n {
                let t = tuple![i as i64 % 5, (i * 31 % 7) as i64];
                scheme.route(rel, &t, &mut rng, &mut out);
                for &m in &out {
                    joins[m].delta(rel, &t, 1, &mut discard);
                    discard.clear();
                }
            }
        }
        joins.iter().map(join_blob).collect()
    }

    #[test]
    fn store_tracks_completeness_and_trims() {
        let mut store = CheckpointStore::new(2);
        store.insert((ROLE_JOIN, 0, 4, vec![1]));
        store.insert((ROLE_JOIN, 1, 4, vec![2]));
        assert!(!store.is_complete(4), "sink blob still missing");
        store.insert((ROLE_SINK, 0, 4, vec![3]));
        assert!(store.is_complete(4));
        store.insert((ROLE_JOIN, 0, 8, vec![4]));
        assert_eq!(store.latest_complete(), Some(4));
        assert_eq!(store.newest(), Some(8));
        let rs = store.restore_state(4).unwrap();
        assert_eq!(rs.epoch, 4);
        assert_eq!(rs.join[&1], vec![2]);
        assert_eq!(rs.sink, Some(vec![3]));
        store.trim_below(8);
        assert_eq!(store.latest_complete(), None);
        assert_eq!(store.newest(), Some(8));
    }

    #[test]
    fn blob_parse_serialize_roundtrips_dbtoaster_bytes() {
        let spec = chain3();
        let mut j = DBToasterJoin::new(&spec);
        let mut discard = Vec::new();
        for i in 0..30i64 {
            j.delta((i % 3) as usize, &tuple![i % 4, i % 6], 1, &mut discard);
            discard.clear();
        }
        let blob = join_blob(&j);
        let rels = parse_full_blob(&blob).unwrap();
        let maps: Vec<FxHashMap<Tuple, i64>> =
            rels.into_iter().map(|rows| rows.into_iter().collect()).collect();
        assert_eq!(serialize_full_blob(&maps), blob, "byte-identical re-serialization");
    }

    #[test]
    fn reconstructs_lost_replicated_blobs_byte_identically() {
        let scheme = hash_cube();
        let blobs = routed_blobs(&scheme, 40);
        // A one-task-per-machine layout; lose machine 3, but keep S sound:
        // S tuples on machine 3 exist nowhere else, so first check the
        // gate rejects, then lose only replicated state.
        let mut store = CheckpointStore::new(4);
        for (task, blob) in blobs.iter().enumerate() {
            if task != 3 {
                store.insert((ROLE_JOIN, task, 4, blob.clone()));
            }
        }
        store.insert((ROLE_SINK, 0, 4, vec![7]));
        assert_eq!(
            store.reconstruct_newest(&scheme, 3),
            None,
            "S is fully partitioned: losing a machine loses S tuples irrecoverably"
        );

        // Fully replicated cube (Spread on every axis for every relation):
        // any single loss is recoverable.
        let spread = HypercubeScheme::new(
            3,
            vec![
                Dimension {
                    name: "~a".into(),
                    size: 2,
                    kind: PartitionKind::Random,
                    members: vec![],
                },
                Dimension {
                    name: "~b".into(),
                    size: 2,
                    kind: PartitionKind::Random,
                    members: vec![],
                },
            ],
            1,
        );
        assert!(
            spread.roles.iter().flatten().all(|r| matches!(r, DimRole::Spread)),
            "dimensions without members spread every relation"
        );
        let blobs = routed_blobs(&spread, 25);
        let mut store = CheckpointStore::new(4);
        for (task, blob) in blobs.iter().enumerate() {
            if task != 2 {
                store.insert((ROLE_JOIN, task, 6, blob.clone()));
            }
        }
        store.insert((ROLE_SINK, 0, 6, vec![9]));
        assert_eq!(store.reconstruct_newest(&spread, 3), Some(6));
        let rs = store.restore_state(6).unwrap();
        assert_eq!(rs.join[&2], blobs[2], "rebuilt blob is byte-identical to the lost one");
    }

    #[test]
    fn tasks_beyond_the_scheme_get_empty_blobs() {
        let scheme = hash_cube();
        let blobs = routed_blobs(&scheme, 10);
        // 6 join tasks but the scheme only routes to 4: tasks 4 and 5 are
        // empty; losing one is always reconstructable.
        let mut store = CheckpointStore::new(6);
        for (task, blob) in blobs.iter().enumerate() {
            store.insert((ROLE_JOIN, task, 2, blob.clone()));
        }
        store.insert((ROLE_JOIN, 4, 2, join_blob(&DBToasterJoin::new(&chain3()))));
        store.insert((ROLE_SINK, 0, 2, vec![1]));
        assert_eq!(store.reconstruct_newest(&scheme, 3), Some(2));
        let rs = store.restore_state(2).unwrap();
        assert_eq!(rs.join[&5], join_blob(&DBToasterJoin::new(&chain3())));
    }
}
