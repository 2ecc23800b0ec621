//! Checkpointable operator state.
//!
//! The checkpoint subsystem snapshots every stateful operator at barrier
//! alignment and restores it on recovery. [`Snapshot`] is the one contract
//! both sides share: `snapshot_state` must be **deterministic** (two
//! operators holding equal logical state serialize byte-identically —
//! hash-map iteration order is sorted away), because recovery correctness
//! is verified by comparing post-recovery snapshots against a no-failure
//! run.
//!
//! Operators serialize the *minimal* state others can't rederive:
//!
//! * [`crate::DBToasterJoin`] writes only its **base** (singleton-view)
//!   tuples; restore replays them through the delta path, rebuilding every
//!   intermediate view — higher-order views are a pure function of the
//!   bases.
//! * [`crate::WindowJoin`] writes only its **live** window buffers plus
//!   frontiers; the wrapped join's state is exactly the joins of the live
//!   tuples.
//! * [`crate::GroupByAggregator`] writes its raw accumulators — AVG is not
//!   invertible from the published rows, so group state ships as-is.

use squall_common::codec::{self, Reader};
use squall_common::{Result, Tuple};

/// Serialize/restore an operator's state for checkpointing.
///
/// `restore_state` is always called on a **freshly constructed** operator
/// (same spec, empty state); implementations may rely on that rather than
/// clearing first.
pub trait Snapshot {
    /// Append this operator's state to `buf`, deterministically: equal
    /// logical state ⇒ equal bytes, regardless of arrival order.
    fn snapshot_state(&self, buf: &mut Vec<u8>);

    /// Rebuild state from a reader positioned at bytes written by
    /// [`Snapshot::snapshot_state`] on an operator of the same shape.
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<()>;
}

/// Write base relations in the full-history join format — per relation,
/// its stored rows with multiplicities, sorted so equal state means equal
/// bytes. Both local joins snapshot this way, and §5 peer reconstruction
/// reads and rebuilds it.
pub fn put_base_rows<'a>(
    buf: &mut Vec<u8>,
    rels: impl ExactSizeIterator<Item = Vec<(&'a Tuple, i64)>>,
) {
    codec::put_u32(buf, rels.len() as u32);
    for mut rows in rels {
        rows.sort_by(|a, b| a.0.cmp(b.0));
        codec::put_u32(buf, rows.len() as u32);
        for (t, m) in rows {
            codec::put_tuple(buf, t);
            codec::put_i64(buf, m);
        }
    }
}

/// Read what [`put_base_rows`] wrote.
pub fn get_base_rows(r: &mut Reader<'_>) -> Result<Vec<Vec<(Tuple, i64)>>> {
    let n_rels = r.len()?;
    let mut rels = Vec::with_capacity(n_rels);
    for _ in 0..n_rels {
        let n = r.len()?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            rows.push((codec::get_tuple(r)?, r.i64()?));
        }
        rels.push(rows);
    }
    Ok(rels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggSpec;
    use crate::window::WindowSpec;
    use crate::{DBToasterJoin, GroupByAggregator, LocalJoin, WindowJoin};
    use squall_common::{tuple, DataType, Schema, SplitMix64, Tuple};
    use squall_expr::{JoinAtom, MultiJoinSpec, RelationDef};

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

    fn snap(s: &impl Snapshot) -> Vec<u8> {
        let mut buf = Vec::new();
        s.snapshot_state(&mut buf);
        buf
    }

    fn restore<S: Snapshot>(s: &mut S, bytes: &[u8]) {
        let mut r = Reader::new(bytes);
        s.restore_state(&mut r).unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn dbtoaster_roundtrips_and_keeps_behaviour() {
        let spec = chain3();
        let mut j = DBToasterJoin::new(&spec);
        let mut rng = SplitMix64::new(7);
        let mut discard = Vec::new();
        let mut inserted: Vec<(usize, Tuple)> = Vec::new();
        for _ in 0..80 {
            let rel = rng.next_below(3);
            let t = tuple![rng.next_range(0, 5), rng.next_range(0, 5)];
            inserted.push((rel, t.clone()));
            j.delta(rel, &t, 1, &mut discard);
            discard.clear();
        }
        // A few retractions so signed multiplicities are exercised.
        for i in [3usize, 10, 25] {
            let (rel, t) = inserted[i].clone();
            j.delta(rel, &t, -1, &mut discard);
            discard.clear();
        }
        let bytes = snap(&j);
        let mut restored = DBToasterJoin::new(&spec);
        restore(&mut restored, &bytes);
        // Byte-identical re-snapshot (the recovery acceptance criterion).
        assert_eq!(snap(&restored), bytes);
        // And identical behaviour on the next delta.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        j.delta(1, &tuple![2, 3], 1, &mut a);
        restored.delta(1, &tuple![2, 3], 1, &mut b);
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(j.stored(), restored.stored());
    }

    #[test]
    fn empty_dbtoaster_roundtrips() {
        let spec = chain3();
        let j = DBToasterJoin::new(&spec);
        let bytes = snap(&j);
        let mut restored = DBToasterJoin::new(&spec);
        restore(&mut restored, &bytes);
        assert_eq!(snap(&restored), bytes);
        assert_eq!(restored.stored(), 0);
    }

    #[test]
    fn window_join_roundtrips_live_buffers() {
        let s = Schema::of(&[("a", DataType::Int), ("ts", DataType::Int)]);
        let spec = MultiJoinSpec::new(
            vec![RelationDef::new("R", s.clone(), 0), RelationDef::new("S", s, 0)],
            vec![JoinAtom::eq(0, 0, 1, 0)],
        )
        .unwrap();
        let mk = || {
            WindowJoin::event_time(
                DBToasterJoin::new(&spec),
                WindowSpec::Sliding { size: 10 },
                &[2, 2],
                &[1, 1],
            )
        };
        let mut w = mk();
        let mut discard = Vec::new();
        for ts in 0..40u64 {
            let rel = (ts % 2) as usize;
            w.insert_weighted(rel, ts, &tuple![(ts % 3) as i64, ts as i64], &mut discard);
            discard.clear();
        }
        let bytes = snap(&w);
        let mut restored = mk();
        restore(&mut restored, &bytes);
        assert_eq!(snap(&restored), bytes);
        assert_eq!(w.live_tuples(), restored.live_tuples());
        // Same results for the next arrival (probes the rebuilt inner
        // state and the restored frontiers/eviction alike).
        let (mut a, mut b) = (Vec::new(), Vec::new());
        w.insert_weighted(0, 40, &tuple![1, 40], &mut a);
        restored.insert_weighted(0, 40, &tuple![1, 40], &mut b);
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(w.inner().stored(), restored.inner().stored());
    }

    #[test]
    fn aggregator_roundtrips_avg_state() {
        let mk = || {
            GroupByAggregator::new(
                vec![0],
                vec![
                    AggSpec::count(),
                    AggSpec::sum_col(1),
                    AggSpec::avg(squall_expr::ScalarExpr::col(1)),
                ],
            )
        };
        let mut agg = mk();
        let mut rng = SplitMix64::new(11);
        for _ in 0..50 {
            agg.update(&tuple![rng.next_range(0, 4), rng.next_range(0, 100)]).unwrap();
        }
        agg.retract(&tuple![1, 5]).unwrap();
        let bytes = snap(&agg);
        let mut restored = mk();
        restore(&mut restored, &bytes);
        assert_eq!(snap(&restored), bytes);
        assert_eq!(agg.snapshot(), restored.snapshot());
        // Continued updates agree (AVG needs the raw sums, not the rows).
        let a = agg.update(&tuple![2, 7]).unwrap();
        let b = restored.update(&tuple![2, 7]).unwrap();
        assert_eq!(a, b);
    }
}
