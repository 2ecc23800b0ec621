//! Window semantics on top of the full-history engine (§2).
//!
//! "Squall provides both full-history and window semantics for its
//! operators. It implements typical stream primitives, such as tumbling and
//! sliding windows, by adding the window expiration logic on top of the
//! full-history engine." — [`WindowJoin`] wraps any [`LocalJoin`], buffers
//! `(timestamp, tuple)` pairs per relation, and removes expired state.
//!
//! Two modes:
//!
//! * **Arrival-order** ([`WindowJoin::new`]) — the classic "expire before
//!   insert" construction. Correct when insertions carry globally
//!   non-decreasing timestamps (a single merged in-order stream); results
//!   are exactly the input combinations co-resident in the window.
//! * **Event-time** ([`WindowJoin::event_time`]) — the mode the distributed
//!   planner uses. Each relation's tuples *carry* their timestamp as a
//!   column, per-relation arrival is timestamp-ordered, but relations may
//!   interleave arbitrarily (independent spouts). Eviction is driven by the
//!   *watermark* (the minimum of the per-relation timestamp frontiers), so
//!   a tuple is only dropped once no future arrival can fall in its window,
//!   and each emitted result is filtered by the window predicate over its
//!   constituent timestamps. The produced result set is therefore a pure
//!   function of the timestamped inputs — deterministic under any
//!   cross-relation interleaving:
//!   * sliding `size`: `max(ts) − min(ts) ≤ size`;
//!   * tumbling `width`: all constituents in the same bucket `⌊ts/width⌋`
//!     (so a tuple with timestamp exactly `k·width` opens window `k` and
//!     never joins window `k−1` state).

use std::collections::VecDeque;
use std::ops::RangeInclusive;

use squall_common::codec::{self, Reader};
use squall_common::{Result, SquallError, Tuple};

use crate::{LocalJoin, Snapshot};

/// Window shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// Keep everything (incremental view maintenance).
    FullHistory,
    /// Non-overlapping windows of `width` time units: tuples join only
    /// within the same bucket `⌊ts/width⌋`.
    Tumbling { width: u64 },
    /// Keep tuples whose timestamp is within `size` of the newest input.
    Sliding { size: u64 },
}

impl WindowSpec {
    /// Every window start a result whose constituent event times span
    /// `[lo, hi]` folds into: the one tumbling bucket `⌊hi/width⌋·width`,
    /// or each sliding start `s ∈ [hi − size, lo]` (every window `[s,
    /// s+size]` that holds all constituents, one per time unit). Full
    /// history has no windows: the range is empty.
    #[inline]
    pub fn window_starts(self, lo: u64, hi: u64) -> RangeInclusive<u64> {
        match self {
            WindowSpec::Tumbling { width } => {
                debug_assert_eq!(lo / width, hi / width, "join window predicate violated");
                let start = hi / width * width;
                start..=start
            }
            WindowSpec::Sliding { size } => hi.saturating_sub(size)..=lo,
            WindowSpec::FullHistory => RangeInclusive::new(1, 0),
        }
    }

    /// Inclusive end of the window starting at `start` (`u64::MAX` under
    /// full history, whose one "window" never ends).
    #[inline]
    pub fn window_end(self, start: u64) -> u64 {
        match self {
            WindowSpec::Tumbling { width } => start + width - 1,
            WindowSpec::Sliding { size } => start + size,
            WindowSpec::FullHistory => u64::MAX,
        }
    }
}

/// One event-time value as a timestamp: negative times are a typed error.
#[inline]
pub fn event_time(v: i64) -> Result<u64> {
    u64::try_from(v).map_err(|_| {
        SquallError::Runtime(format!("negative event-time timestamp {v} in aggregate input"))
    })
}

/// The `[min, max]` event-time span of a join result over its
/// constituent timestamp columns (see [`output_ts_cols`]).
#[inline]
pub fn time_span(row: &Tuple, ts_cols: &[usize]) -> Result<(u64, u64)> {
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for &c in ts_cols {
        let v = event_time(row.get(c).as_int()?)?;
        lo = lo.min(v);
        hi = hi.max(v);
    }
    Ok((lo, hi))
}

/// Positions of each relation's event-time column within a join *output*
/// row. Results concatenate relations in order, so relation `rel`'s
/// timestamp lands at `arities[..rel].sum() + ts_cols[rel]`. Shared by
/// the event-time [`WindowJoin`] (window predicate over emitted results)
/// and the per-window aggregation bolt downstream of it — one mapping,
/// so the two can never drift.
pub fn output_ts_cols(arities: &[usize], ts_cols: &[usize]) -> Vec<usize> {
    assert_eq!(arities.len(), ts_cols.len(), "one ts column per relation");
    let mut out = Vec::with_capacity(arities.len());
    let mut off = 0;
    for (a, &c) in arities.iter().zip(ts_cols) {
        assert!(c < *a, "ts column {c} out of range for arity {a}");
        out.push(off + c);
        off += a;
    }
    out
}

/// A windowed local join: any full-history [`LocalJoin`] plus expiration.
pub struct WindowJoin<J: LocalJoin> {
    inner: J,
    spec: WindowSpec,
    /// Per-relation FIFO of live tuples (timestamps are non-decreasing per
    /// relation, as produced by event-time-ordered spouts and the
    /// runtime's ordered channels).
    live: Vec<VecDeque<(u64, Tuple)>>,
    /// Arrival-order tumbling only: the current window's index.
    current_window: u64,
    /// Event-time mode: the timestamp position of each relation in the
    /// join *output* tuple (results are concatenated in relation order).
    out_ts_cols: Option<Vec<usize>>,
    /// Event-time mode: newest timestamp seen per relation.
    frontier: Vec<Option<u64>>,
    scratch: Vec<Tuple>,
    wscratch: Vec<(Tuple, i64)>,
}

impl<J: LocalJoin> WindowJoin<J> {
    /// Arrival-order mode: correct when `insert` timestamps are globally
    /// non-decreasing across all relations.
    pub fn new(inner: J, n_relations: usize, spec: WindowSpec) -> WindowJoin<J> {
        WindowJoin {
            inner,
            spec,
            live: (0..n_relations).map(|_| VecDeque::new()).collect(),
            current_window: 0,
            out_ts_cols: None,
            frontier: Vec::new(),
            scratch: Vec::new(),
            wscratch: Vec::new(),
        }
    }

    /// Event-time mode: deterministic window semantics for independently
    /// interleaving relations. `arities[rel]` is each relation's tuple
    /// width and `ts_cols[rel]` the timestamp column *within* that
    /// relation; both the inserted tuples and the emitted results must
    /// carry Int, non-negative timestamps there (the planner validates
    /// this before execution).
    pub fn event_time(
        inner: J,
        spec: WindowSpec,
        arities: &[usize],
        ts_cols: &[usize],
    ) -> WindowJoin<J> {
        let out_ts = output_ts_cols(arities, ts_cols);
        WindowJoin {
            inner,
            spec,
            live: (0..arities.len()).map(|_| VecDeque::new()).collect(),
            current_window: 0,
            out_ts_cols: Some(out_ts),
            frontier: vec![None; arities.len()],
            scratch: Vec::new(),
            wscratch: Vec::new(),
        }
    }

    /// Is this join running under event-time (watermark) semantics?
    pub fn is_event_time(&self) -> bool {
        self.out_ts_cols.is_some()
    }

    /// Insert a timestamped tuple; expired state is evicted first and, in
    /// event-time mode, emitted results are filtered by the window
    /// predicate — so `out` receives exactly the in-window joins.
    /// Arrival-order tumbling drops a straggler from an already-closed
    /// window (it neither joins nor is stored).
    pub fn insert(&mut self, rel: usize, ts: u64, tuple: &Tuple, out: &mut Vec<Tuple>) {
        if !self.expire(rel, ts) {
            return;
        }
        self.live[rel].push_back((ts, tuple.clone()));
        match &self.out_ts_cols {
            None => self.inner.insert(rel, tuple, out),
            Some(cols) => {
                let mut buf = std::mem::take(&mut self.scratch);
                buf.clear();
                self.inner.insert(rel, tuple, &mut buf);
                out.extend(buf.drain(..).filter(|t| in_window(self.spec, cols, t)));
                self.scratch = buf;
            }
        }
    }

    /// Weighted-result variant (see [`LocalJoin::insert_weighted`]).
    pub fn insert_weighted(
        &mut self,
        rel: usize,
        ts: u64,
        tuple: &Tuple,
        out: &mut Vec<(Tuple, i64)>,
    ) {
        if !self.expire(rel, ts) {
            return;
        }
        self.live[rel].push_back((ts, tuple.clone()));
        match &self.out_ts_cols {
            None => self.inner.insert_weighted(rel, tuple, out),
            Some(cols) => {
                let mut buf = std::mem::take(&mut self.wscratch);
                buf.clear();
                self.inner.insert_weighted(rel, tuple, &mut buf);
                out.extend(buf.drain(..).filter(|(t, _)| in_window(self.spec, cols, t)));
                self.wscratch = buf;
            }
        }
    }

    /// Evict expired state for an arrival at `now`; returns whether the
    /// arriving tuple should be processed at all (false only for
    /// arrival-order tumbling stragglers from an already-closed window).
    fn expire(&mut self, rel: usize, now: u64) -> bool {
        if matches!(self.spec, WindowSpec::FullHistory) {
            return true;
        }
        if self.out_ts_cols.is_some() {
            // Event-time: advance this relation's frontier and evict by
            // the watermark — only tuples no *future* arrival (which must
            // carry ts ≥ watermark) can co-window with.
            self.frontier[rel] = Some(self.frontier[rel].map_or(now, |f| f.max(now)));
            let Some(watermark) =
                self.frontier.iter().copied().try_fold(u64::MAX, |m, f| f.map(|f| m.min(f)))
            else {
                return true; // some relation unseen: no safe eviction yet
            };
            let expired = |ts: u64| match self.spec {
                WindowSpec::Sliding { size } => ts < watermark.saturating_sub(size),
                WindowSpec::Tumbling { width } => ts / width < watermark / width,
                WindowSpec::FullHistory => false,
            };
            for r in 0..self.live.len() {
                while let Some(&(ts, _)) = self.live[r].front() {
                    if expired(ts) {
                        let (_, t) = self.live[r].pop_front().expect("front exists");
                        self.inner.remove(r, &t);
                    } else {
                        break;
                    }
                }
            }
            return true;
        }
        // Arrival-order mode: `now` is the newest global timestamp.
        match self.spec {
            WindowSpec::FullHistory => {}
            WindowSpec::Sliding { size } => {
                let cutoff = now.saturating_sub(size);
                for r in 0..self.live.len() {
                    while let Some((ts, _)) = self.live[r].front() {
                        if *ts < cutoff {
                            let (_, t) = self.live[r].pop_front().expect("front exists");
                            self.inner.remove(r, &t);
                        } else {
                            break;
                        }
                    }
                }
            }
            WindowSpec::Tumbling { width } => {
                let win = now / width;
                // A straggler from an already-closed window must neither
                // wipe the current state nor join across the boundary:
                // its window is gone, so the tuple is dropped.
                if win < self.current_window {
                    return false;
                }
                if win > self.current_window {
                    for r in 0..self.live.len() {
                        while let Some((_, t)) = self.live[r].pop_front() {
                            self.inner.remove(r, &t);
                        }
                    }
                    self.current_window = win;
                }
            }
        }
        true
    }

    /// The event-time watermark: the minimum of the per-relation timestamp
    /// frontiers, i.e. the largest `w` such that every future arrival is
    /// guaranteed to carry a timestamp ≥ `w`. `None` until every relation
    /// has been seen (no promise can be made yet) or in arrival-order /
    /// full-history mode, which tracks no frontiers.
    pub fn watermark(&self) -> Option<u64> {
        self.out_ts_cols.as_ref()?;
        self.frontier.iter().copied().try_fold(u64::MAX, |m, f| f.map(|f| m.min(f)))
    }

    /// Tuples currently held in the window (all relations).
    pub fn live_tuples(&self) -> usize {
        self.live.iter().map(|q| q.len()).sum()
    }

    pub fn inner(&self) -> &J {
        &self.inner
    }

    /// The wrapped join, for signed full-history deltas that bypass the
    /// window buffers.
    pub fn inner_mut(&mut self) -> &mut J {
        &mut self.inner
    }
}

impl<J: LocalJoin> Snapshot for WindowJoin<J> {
    /// Live window buffers plus frontiers only: the wrapped join's state
    /// is exactly the joins of the live tuples, so restore re-inserts them
    /// (discarding output) instead of shipping inner views. Per-relation
    /// buffers are already deterministic — they hold arrival order, which
    /// the runtime's ordered channels make identical across runs of the
    /// same input prefix.
    fn snapshot_state(&self, buf: &mut Vec<u8>) {
        codec::put_u64(buf, self.current_window);
        codec::put_u32(buf, self.live.len() as u32);
        for q in &self.live {
            codec::put_u32(buf, q.len() as u32);
            for (ts, t) in q {
                codec::put_u64(buf, *ts);
                codec::put_tuple(buf, t);
            }
        }
        codec::put_u32(buf, self.frontier.len() as u32);
        for f in &self.frontier {
            match f {
                None => codec::put_u8(buf, 0),
                Some(ts) => {
                    codec::put_u8(buf, 1);
                    codec::put_u64(buf, *ts);
                }
            }
        }
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<()> {
        self.current_window = r.u64()?;
        let n_rel = r.len()?;
        let mut discard = Vec::new();
        for rel in 0..n_rel {
            let n = r.len()?;
            for _ in 0..n {
                let ts = r.u64()?;
                let t = codec::get_tuple(r)?;
                // Straight into the inner join — no expiry pass: every
                // serialized tuple was live at the snapshot watermark, so
                // none can be expired at restore either.
                self.inner.insert_weighted(rel, &t, &mut discard);
                discard.clear();
                self.live[rel].push_back((ts, t));
            }
        }
        let n_front = r.len()?;
        self.frontier.clear();
        for _ in 0..n_front {
            self.frontier.push(match r.u8()? {
                0 => None,
                _ => Some(r.u64()?),
            });
        }
        Ok(())
    }
}

/// The window predicate over a result tuple's constituent timestamps.
fn in_window(spec: WindowSpec, out_ts_cols: &[usize], result: &Tuple) -> bool {
    let ts = |c: usize| -> u64 {
        result.get(c).as_int().expect("window timestamp column must be Int (validated at plan)")
            as u64
    };
    match spec {
        WindowSpec::FullHistory => true,
        WindowSpec::Sliding { size } => {
            let (mut lo, mut hi) = (u64::MAX, 0u64);
            for &c in out_ts_cols {
                let v = ts(c);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            hi - lo <= size
        }
        WindowSpec::Tumbling { width } => {
            let first = ts(out_ts_cols[0]) / width;
            out_ts_cols[1..].iter().all(|&c| ts(c) / width == first)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbtoaster::DBToasterJoin;
    use crate::traditional::TraditionalJoin;
    use squall_common::{tuple, DataType, Schema};
    use squall_expr::{JoinAtom, MultiJoinSpec, RelationDef};

    fn two_way() -> MultiJoinSpec {
        MultiJoinSpec::new(
            vec![
                RelationDef::new("R", Schema::of(&[("a", DataType::Int)]), 0),
                RelationDef::new("S", Schema::of(&[("a", DataType::Int)]), 0),
            ],
            vec![JoinAtom::eq(0, 0, 1, 0)],
        )
        .unwrap()
    }

    /// Two-way spec where each side is (key, ts) — for event-time tests.
    fn two_way_ts() -> MultiJoinSpec {
        let s = Schema::of(&[("a", DataType::Int), ("ts", DataType::Int)]);
        MultiJoinSpec::new(
            vec![RelationDef::new("R", s.clone(), 0), RelationDef::new("S", s, 0)],
            vec![JoinAtom::eq(0, 0, 1, 0)],
        )
        .unwrap()
    }

    #[test]
    fn full_history_never_expires() {
        let spec = two_way();
        let mut w = WindowJoin::new(DBToasterJoin::new(&spec), 2, WindowSpec::FullHistory);
        let mut out = Vec::new();
        w.insert(0, 0, &tuple![1], &mut out);
        w.insert(1, 1_000_000, &tuple![1], &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn sliding_window_expires_old_state() {
        let spec = two_way();
        let mut w = WindowJoin::new(DBToasterJoin::new(&spec), 2, WindowSpec::Sliding { size: 10 });
        let mut out = Vec::new();
        w.insert(0, 0, &tuple![1], &mut out);
        // Within the window: matches.
        w.insert(1, 5, &tuple![1], &mut out);
        assert_eq!(out.len(), 1);
        // Far in the future: the R tuple (ts 0) has expired.
        out.clear();
        w.insert(1, 100, &tuple![1], &mut out);
        assert!(out.is_empty(), "expired tuple must not join");
        // But the ts=5 S tuple expired too; new R at 101 only sees S@100.
        out.clear();
        w.insert(0, 101, &tuple![1], &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn sliding_window_matches_filter_oracle() {
        // Oracle: (r, s) joins iff |ts_r − ts_s| ≤ size and keys match —
        // checked over an interleaved stream.
        let spec = two_way();
        let size = 8u64;
        let mut w = WindowJoin::new(TraditionalJoin::new(&spec), 2, WindowSpec::Sliding { size });
        let mut rng = squall_common::SplitMix64::new(14);
        let mut events: Vec<(usize, u64, Tuple)> = Vec::new();
        let mut ts = 0u64;
        for _ in 0..200 {
            ts += rng.next_below(4) as u64;
            events.push((rng.next_below(2), ts, tuple![rng.next_range(0, 5)]));
        }
        let mut online = Vec::new();
        for (rel, ts, t) in &events {
            w.insert(*rel, *ts, t, &mut online);
        }
        // The oracle counts unordered matching pairs within the window.
        // (The eager eviction at insert time uses a strict cutoff; mirror
        // it exactly.)
        let mut expected = 0usize;
        for (i, (rel_a, ts_a, a)) in events.iter().enumerate() {
            for (rel_b, ts_b, b) in events.iter().take(i) {
                if rel_a != rel_b && a == b && ts_a.saturating_sub(size) <= *ts_b {
                    expected += 1;
                }
            }
        }
        assert_eq!(online.len(), expected);
    }

    #[test]
    fn tumbling_window_resets_state() {
        let spec = two_way();
        let mut w =
            WindowJoin::new(DBToasterJoin::new(&spec), 2, WindowSpec::Tumbling { width: 10 });
        let mut out = Vec::new();
        w.insert(0, 1, &tuple![1], &mut out);
        w.insert(1, 5, &tuple![1], &mut out);
        assert_eq!(out.len(), 1, "same window joins");
        out.clear();
        // ts 12 is in the next window: state was reset.
        w.insert(1, 12, &tuple![1], &mut out);
        assert!(out.is_empty());
        assert_eq!(w.live_tuples(), 1);
        // Same (new) window still joins.
        w.insert(0, 13, &tuple![1], &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn tumbling_boundary_opens_new_window() {
        // A tuple with timestamp exactly k·width belongs to window k and
        // must NOT join window k−1 state.
        let spec = two_way();
        let mut w =
            WindowJoin::new(DBToasterJoin::new(&spec), 2, WindowSpec::Tumbling { width: 10 });
        let mut out = Vec::new();
        w.insert(0, 9, &tuple![1], &mut out); // window 0
        w.insert(1, 10, &tuple![1], &mut out); // exactly 1·width → window 1
        assert!(out.is_empty(), "boundary tuple joined stale window state");
        assert_eq!(w.live_tuples(), 1, "window-0 state evicted at the boundary");
        // A second window-1 tuple does join.
        w.insert(0, 10, &tuple![1], &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn tumbling_straggler_is_dropped_not_joined() {
        let spec = two_way();
        let mut w =
            WindowJoin::new(DBToasterJoin::new(&spec), 2, WindowSpec::Tumbling { width: 10 });
        let mut out = Vec::new();
        w.insert(0, 21, &tuple![1], &mut out); // window 2
        w.insert(1, 19, &tuple![1], &mut out); // straggler from closed window 1
        assert!(out.is_empty(), "straggler joined across the window boundary");
        assert_eq!(w.live_tuples(), 1, "straggler must not be stored");
        // Window-2 state must have survived the straggler.
        w.insert(1, 22, &tuple![1], &mut out);
        assert_eq!(out.len(), 1, "straggler wiped the current window");
    }

    #[test]
    fn event_time_sliding_filters_out_of_window_results() {
        let spec = two_way_ts();
        let mut w = WindowJoin::event_time(
            DBToasterJoin::new(&spec),
            WindowSpec::Sliding { size: 30 },
            &[2, 2],
            &[1, 1],
        );
        let mut out = Vec::new();
        // R runs far ahead of S (cross-relation skew).
        w.insert(0, 100, &tuple![1, 100], &mut out);
        // S@50: R@100 is still live (watermark 50) but |100−50| > 30.
        w.insert(1, 50, &tuple![1, 50], &mut out);
        assert!(out.is_empty(), "out-of-window pair leaked through");
        // S@80 pairs with R@100: |100−80| ≤ 30.
        w.insert(1, 80, &tuple![1, 80], &mut out);
        assert_eq!(out, vec![tuple![1, 100, 1, 80]]);
    }

    #[test]
    fn event_time_watermark_keeps_late_partners_alive() {
        // Under the old eager eviction, R@100 arriving first would evict
        // R@60; the watermark must keep it for the late S@55.
        let spec = two_way_ts();
        let mut w = WindowJoin::event_time(
            TraditionalJoin::new(&spec),
            WindowSpec::Sliding { size: 30 },
            &[2, 2],
            &[1, 1],
        );
        let mut out = Vec::new();
        w.insert(0, 60, &tuple![7, 60], &mut out);
        w.insert(0, 100, &tuple![7, 100], &mut out);
        w.insert(1, 55, &tuple![7, 55], &mut out);
        assert_eq!(out, vec![tuple![7, 60, 7, 55]], "in-window pair was lost to eager eviction");
    }

    #[test]
    fn event_time_tumbling_boundary() {
        let spec = two_way_ts();
        let mut w = WindowJoin::event_time(
            DBToasterJoin::new(&spec),
            WindowSpec::Tumbling { width: 10 },
            &[2, 2],
            &[1, 1],
        );
        let mut out = Vec::new();
        w.insert(0, 9, &tuple![1, 9], &mut out); // window 0
        w.insert(1, 10, &tuple![1, 10], &mut out); // window 1: no join
        assert!(out.is_empty());
        w.insert(0, 10, &tuple![1, 10], &mut out); // window 1: joins S@10
        assert_eq!(out, vec![tuple![1, 10, 1, 10]]);
    }

    #[test]
    fn event_time_results_are_interleaving_invariant() {
        // The same timestamped inputs under two different cross-relation
        // interleavings (per-relation order preserved) produce the same
        // result multiset.
        let spec = two_way_ts();
        let size = 12u64;
        let mut rng = squall_common::SplitMix64::new(3);
        let mut rels: Vec<Vec<(u64, Tuple)>> = vec![Vec::new(), Vec::new()];
        for rel in rels.iter_mut() {
            let mut ts = 0u64;
            for _ in 0..60 {
                ts += rng.next_below(5) as u64;
                rel.push((ts, tuple![rng.next_range(0, 4), ts as i64]));
            }
        }
        let run = |order: &[usize]| -> Vec<Tuple> {
            let mut w = WindowJoin::event_time(
                TraditionalJoin::new(&spec),
                WindowSpec::Sliding { size },
                &[2, 2],
                &[1, 1],
            );
            let mut pos = [0usize; 2];
            let mut out = Vec::new();
            for &rel in order {
                let (ts, t) = &rels[rel][pos[rel]];
                pos[rel] += 1;
                w.insert(rel, *ts, t, &mut out);
            }
            out.sort();
            out
        };
        // Interleaving A: strict alternation. B: R in two big bursts.
        let alternating: Vec<usize> = (0..120).map(|i| i % 2).collect();
        let mut bursty: Vec<usize> = vec![0; 40];
        bursty.extend(vec![1; 60]);
        bursty.extend(vec![0; 20]);
        let a = run(&alternating);
        let b = run(&bursty);
        assert_eq!(a, b, "window results depended on cross-relation interleaving");
        // And they match the pure timestamp oracle.
        let mut oracle = Vec::new();
        for (tr, r) in &rels[0] {
            for (ts, s) in &rels[1] {
                if r.get(0) == s.get(0) && tr.abs_diff(*ts) <= size {
                    let mut v = r.values().to_vec();
                    v.extend_from_slice(s.values());
                    oracle.push(Tuple::new(v));
                }
            }
        }
        oracle.sort();
        assert_eq!(a, oracle);
    }

    #[test]
    fn event_time_state_stays_bounded() {
        let spec = two_way_ts();
        let mut w = WindowJoin::event_time(
            DBToasterJoin::new(&spec),
            WindowSpec::Sliding { size: 5 },
            &[2, 2],
            &[1, 1],
        );
        let mut out = Vec::new();
        for ts in 0..1000u64 {
            let rel = (ts % 2) as usize;
            w.insert(rel, ts, &tuple![(ts % 7) as i64, ts as i64], &mut out);
        }
        assert!(w.live_tuples() <= 10, "live {} should be ≈ window size", w.live_tuples());
        assert!(w.inner().stored() <= 20, "inner state must stay bounded");
    }

    #[test]
    fn window_keeps_inner_state_bounded() {
        let spec = two_way();
        let mut w = WindowJoin::new(DBToasterJoin::new(&spec), 2, WindowSpec::Sliding { size: 5 });
        let mut out = Vec::new();
        for ts in 0..1000u64 {
            w.insert((ts % 2) as usize, ts, &tuple![(ts % 7) as i64], &mut out);
        }
        assert!(w.live_tuples() <= 8, "live {} should be ≈ window size", w.live_tuples());
        assert!(w.inner().stored() <= 16, "inner state must stay bounded");
    }
}
