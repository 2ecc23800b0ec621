//! Physical operators: the bolts Squall installs into topologies.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hash::Hash;
use std::ops::RangeInclusive;
use std::sync::mpsc::Sender;

use squall_common::array::Array;
use squall_common::codec::Reader;
use squall_common::{Chunk, ChunkBuilder, FxHashMap, Result, SquallError, Tuple, Value};
use squall_expr::ScalarExpr;
use squall_join::{
    event_time, time_span, AggSpec, GroupByAggregator, LocalJoin, Snapshot, WindowJoin, WindowSpec,
};
use squall_runtime::{Bolt, NodeId, OutputCollector};

use crate::checkpoint::{SnapshotBlobMsg, JOIN_BLOB_FULL, JOIN_BLOB_WINDOWED, ROLE_JOIN};

/// Selection + projection in one bolt (Squall co-locates these with the
/// data source whenever possible, §2; a standalone bolt is used when the
/// optimizer cannot).
pub struct SelectProjectBolt {
    /// Optional predicate; tuples failing it are dropped.
    pub predicate: Option<ScalarExpr>,
    /// Optional projection expressions; `None` passes tuples through.
    pub projections: Option<Vec<ScalarExpr>>,
}

impl SelectProjectBolt {
    pub fn select(predicate: ScalarExpr) -> SelectProjectBolt {
        SelectProjectBolt { predicate: Some(predicate), projections: None }
    }

    pub fn project(projections: Vec<ScalarExpr>) -> SelectProjectBolt {
        SelectProjectBolt { predicate: None, projections: Some(projections) }
    }

    /// Apply to one tuple without a runtime (used by tests and the naive
    /// executor).
    pub fn apply(&self, tuple: &Tuple) -> Result<Option<Tuple>> {
        if let Some(p) = &self.predicate {
            if !p.eval_bool(tuple)? {
                return Ok(None);
            }
        }
        match &self.projections {
            None => Ok(Some(tuple.clone())),
            Some(exprs) => {
                let mut values = Vec::with_capacity(exprs.len());
                for e in exprs {
                    values.push(e.eval(tuple)?);
                }
                Ok(Some(Tuple::new(values)))
            }
        }
    }
}

impl SelectProjectBolt {
    /// Evaluate the projection expressions column-at-a-time over `chunk`
    /// and emit one output row per input row.
    fn project_chunk(exprs: &[ScalarExpr], chunk: &Chunk, out: &mut OutputCollector) -> Result<()> {
        let mut arrays = Vec::with_capacity(exprs.len());
        for e in exprs {
            arrays.push(e.eval_chunk(chunk)?);
        }
        for i in 0..chunk.n_rows() {
            out.emit(Tuple::new(arrays.iter().map(|a| a.value(i)).collect::<Vec<_>>()));
        }
        Ok(())
    }
}

impl Bolt for SelectProjectBolt {
    fn execute(&mut self, _origin: NodeId, tuple: Tuple, out: &mut OutputCollector) -> Result<()> {
        if let Some(t) = self.apply(&tuple)? {
            out.emit(t);
        }
        Ok(())
    }

    fn execute_chunk(
        &mut self,
        _origin: NodeId,
        chunk: &Chunk,
        out: &mut OutputCollector,
    ) -> Result<()> {
        if chunk.n_rows() == 0 {
            return Ok(());
        }
        match (&self.predicate, &self.projections) {
            (None, None) => {
                for t in chunk.rows() {
                    out.emit(t);
                }
            }
            (None, Some(exprs)) => Self::project_chunk(exprs, chunk, out)?,
            (Some(p), projections) => {
                let mask = p.eval_bool_chunk(chunk)?;
                match projections {
                    None => {
                        for (i, keep) in mask.iter().enumerate() {
                            if *keep {
                                out.emit(chunk.row(i));
                            }
                        }
                    }
                    Some(exprs) => {
                        // Compact survivors *before* projecting: the row
                        // path never evaluates projections on filtered-out
                        // rows, so neither may we (a projection that only
                        // fails on dropped rows must stay silent).
                        let mut survivors = ChunkBuilder::new();
                        for (i, keep) in mask.iter().enumerate() {
                            if *keep {
                                survivors.push(&chunk.row(i));
                            }
                        }
                        let sub = survivors.finish();
                        if sub.n_rows() > 0 {
                            Self::project_chunk(exprs, &sub, out)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// How a join task exposes its results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinEmit {
    /// Emit every result tuple downstream (needed when an aggregate or
    /// another operator consumes the join).
    Results,
    /// Emit only a per-task `(count)` tuple at end-of-stream — the mode
    /// used for result-count benchmarks where materializing output would
    /// dominate.
    CountOnly,
}

/// The latest watermark of each upstream sender, and their minimum — the
/// promise every watermark-driven operator waits on.
pub(crate) struct Frontiers<K> {
    latest: FxHashMap<K, u64>,
    senders: usize,
}

impl<K: Hash + Eq> Frontiers<K> {
    pub(crate) fn new(senders: usize) -> Frontiers<K> {
        Frontiers { latest: FxHashMap::default(), senders }
    }

    /// Record `ts` from `sender`: the minimum across senders once every
    /// one has promised a frontier (before that no minimum is meaningful).
    pub(crate) fn advance(&mut self, sender: K, ts: u64) -> Option<u64> {
        let slot = self.latest.entry(sender).or_insert(0);
        *slot = (*slot).max(ts);
        (self.latest.len() >= self.senders)
            .then(|| self.latest.values().copied().min().unwrap_or(0))
    }
}

/// The distributed join task: one [`LocalJoin`] instance per machine
/// (task), fed by the partitioning scheme's groupings. With a hypercube
/// grouping and a [`squall_join::DBToasterJoin`] inside, this is the HyLD
/// operator of §3.4.
///
/// It serves one-shot queries and standing views alike. A chunk exactly
/// as wide as its relation is insert-only (weight +1, the one-shot path);
/// one with two more Int columns holds signed `[weight, epoch]` deltas,
/// applied through [`LocalJoin::signed_delta`] or the event-time
/// [`WindowJoin`] (windowed views, append-only) and emitted as
/// `[result…, weight, epoch]`. Deltas apply in epoch order: one ahead of
/// the slowest source's epoch watermark + 1 waits for that watermark, so
/// each result carries the epoch of its newest input.
pub struct JoinBolt {
    /// Maps the upstream node that emitted a tuple to its relation index.
    origin_to_rel: FxHashMap<NodeId, usize>,
    join: WindowJoin<Box<dyn LocalJoin>>,
    /// `tuple[ts_cols[rel]]` supplies the window timestamp; empty for
    /// full-history semantics (timestamps then count arrivals).
    ts_cols: Vec<Option<usize>>,
    /// Payload width of each relation's tuples.
    arities: Vec<usize>,
    arrivals: u64,
    emit: JoinEmit,
    /// Per-machine stored-tuple budget (the §7.3 memory-overflow
    /// experiments); `None` = unlimited.
    budget: Option<usize>,
    machine: usize,
    buf: Vec<Tuple>,
    wbuf: Vec<(Tuple, i64)>,
    results: u64,
    /// Event-time mode with a windowed aggregate downstream: forward the
    /// bolt's watermark whenever it advances by at least this granule
    /// (plus a final `u64::MAX` at end-of-stream). `None` = no forwarding.
    wm_granule: Option<u64>,
    /// Next watermark value at which a forward is due.
    next_wm: u64,
    /// Epoch watermarks per source node.
    frontiers: Frontiers<NodeId>,
    /// The slowest source's epoch watermark, as last forwarded downstream.
    frontier: u64,
    /// Deltas whose epoch is ahead of `frontier + 1`, by epoch:
    /// `(relation, payload, weight)` in arrival order.
    waiting: BTreeMap<u64, Vec<(usize, Tuple, i64)>>,
    /// Checkpoint blob channel (local on the coordinator; forwarded as
    /// `SnapshotBlob` frames by a worker). `None` = checkpoints off.
    blob_tx: Option<Sender<SnapshotBlobMsg>>,
}

impl JoinBolt {
    fn build(
        machine: usize,
        origin_to_rel: FxHashMap<NodeId, usize>,
        join: WindowJoin<Box<dyn LocalJoin>>,
        ts_cols: Vec<Option<usize>>,
        arities: &[usize],
        emit: JoinEmit,
    ) -> JoinBolt {
        JoinBolt {
            frontiers: Frontiers::new(origin_to_rel.len()),
            origin_to_rel,
            join,
            ts_cols,
            arities: arities.to_vec(),
            arrivals: 0,
            emit,
            budget: None,
            machine,
            buf: Vec::new(),
            wbuf: Vec::new(),
            results: 0,
            wm_granule: None,
            next_wm: 0,
            frontier: 0,
            waiting: BTreeMap::new(),
            blob_tx: None,
        }
    }

    /// A full-history join bolt; `arities[rel]` is each relation's tuple
    /// width.
    pub fn new(
        machine: usize,
        origin_to_rel: FxHashMap<NodeId, usize>,
        join: Box<dyn LocalJoin>,
        arities: &[usize],
        emit: JoinEmit,
    ) -> JoinBolt {
        let n = arities.len();
        let join = WindowJoin::new(join, n, WindowSpec::FullHistory);
        JoinBolt::build(machine, origin_to_rel, join, vec![None; n], arities, emit)
    }

    /// A windowed join bolt under *event-time* semantics: `ts_cols[rel]`
    /// names the timestamp column and `arities[rel]` the tuple width of
    /// each relation (both in the bolt's input coordinates). State is
    /// evicted by the cross-relation watermark and every emitted result is
    /// filtered by the window predicate over its constituent timestamps,
    /// so the produced rows are a pure function of the timestamped inputs
    /// no matter how the relations interleave.
    pub fn new_windowed(
        machine: usize,
        origin_to_rel: FxHashMap<NodeId, usize>,
        join: Box<dyn LocalJoin>,
        emit: JoinEmit,
        spec: WindowSpec,
        ts_cols: Vec<usize>,
        arities: &[usize],
    ) -> JoinBolt {
        let join = WindowJoin::event_time(join, spec, arities, &ts_cols);
        let ts_cols = ts_cols.into_iter().map(Some).collect();
        JoinBolt::build(machine, origin_to_rel, join, ts_cols, arities, emit)
    }

    /// Forward this task's event-time watermark downstream whenever it
    /// advances by at least `granule` time units, plus a final `u64::MAX`
    /// watermark at end-of-stream. Windowed aggregation downstream closes
    /// windows on the minimum forwarded watermark across all join tasks;
    /// the granule throttles how often scatter buffers are flushed for a
    /// watermark (one window length is the natural choice). Event-time
    /// bolts only.
    pub fn with_watermark_forwarding(mut self, granule: u64) -> JoinBolt {
        assert!(self.join.is_event_time(), "watermark forwarding needs event-time windows");
        self.wm_granule = Some(granule.max(1));
        self
    }

    pub fn with_budget(mut self, budget: usize) -> JoinBolt {
        self.budget = Some(budget);
        self
    }

    /// Ship a snapshot of the join state to `blob_tx` at every checkpoint
    /// barrier (`None` = checkpoints off).
    pub(crate) fn with_checkpoints(mut self, blob_tx: Option<Sender<SnapshotBlobMsg>>) -> JoinBolt {
        self.blob_tx = blob_tx;
        self
    }

    /// Rebuild join state from a checkpoint blob (tag byte + the join's
    /// [`Snapshot`] bytes) and resume at the checkpoint's `epoch`.
    pub(crate) fn restore(&mut self, epoch: u64, blob: &[u8]) -> Result<()> {
        let mut r = Reader::new(blob);
        match (r.u8()?, self.join.is_event_time()) {
            (JOIN_BLOB_FULL, false) => self.join.inner_mut().restore_state(&mut r)?,
            (JOIN_BLOB_WINDOWED, true) => self.join.restore_state(&mut r)?,
            _ => return Err(SquallError::Codec("join checkpoint blob tag mismatch".into())),
        }
        self.frontier = epoch;
        r.finish()
    }

    fn rel_of(&self, origin: NodeId) -> Result<usize> {
        self.origin_to_rel
            .get(&origin)
            .copied()
            .ok_or_else(|| SquallError::Runtime(format!("unknown origin node {origin}")))
    }

    fn check_budget(&self) -> Result<()> {
        if let Some(budget) = self.budget {
            let stored = self.join.inner().stored();
            if stored > budget {
                return Err(SquallError::MemoryOverflow { machine: self.machine, stored, budget });
            }
        }
        Ok(())
    }

    /// Process one insert-only arrival whose relation is already resolved.
    fn step(&mut self, rel: usize, tuple: Tuple, out: &mut OutputCollector) -> Result<()> {
        self.arrivals += 1;
        let ts = match self.ts_cols[rel] {
            Some(c) => tuple.get(c).as_int()? as u64,
            None => self.arrivals,
        };
        if self.emit == JoinEmit::CountOnly && !self.join.is_event_time() {
            // Weighted fast path: aggregated DBToaster views report
            // (tuple, multiplicity) deltas without materializing hot-key
            // outputs (§3.3).
            self.wbuf.clear();
            self.join.insert_weighted(rel, ts, &tuple, &mut self.wbuf);
            self.results += self.wbuf.iter().map(|(_, m)| *m.max(&0) as u64).sum::<u64>();
        } else {
            self.buf.clear();
            self.join.insert(rel, ts, &tuple, &mut self.buf);
            self.results += self.buf.len() as u64;
            if self.emit == JoinEmit::Results {
                for t in self.buf.drain(..) {
                    out.emit(t);
                }
            }
        }
        if let Some(granule) = self.wm_granule {
            // Watermark forwarding: the results emitted above all carry
            // event time ≥ the bolt's watermark, so promising it downstream
            // is safe; the granule batches promises so buffers are not
            // flushed on every arrival.
            if let Some(w) = self.join.watermark() {
                if w >= self.next_wm {
                    out.emit_watermark(w);
                    self.next_wm = w.saturating_add(granule);
                }
            }
        }
        self.check_budget()
    }

    /// Apply every waiting delta of an epoch at or below `through`, in
    /// epoch order.
    fn release(&mut self, through: u64, out: &mut OutputCollector) -> Result<()> {
        while let Some(entry) = self.waiting.first_entry() {
            if *entry.key() > through {
                break;
            }
            let (epoch, deltas) = entry.remove_entry();
            for (rel, payload, mult) in deltas {
                self.apply_delta(rel, &payload, mult, epoch, out)?;
            }
        }
        Ok(())
    }

    /// Apply one signed delta to the join state and emit its signed
    /// results as `[result…, weight, epoch]`.
    fn apply_delta(
        &mut self,
        rel: usize,
        payload: &Tuple,
        mult: i64,
        epoch: u64,
        out: &mut OutputCollector,
    ) -> Result<()> {
        self.wbuf.clear();
        match self.ts_cols[rel] {
            None => self.join.inner_mut().signed_delta(rel, payload, mult, &mut self.wbuf)?,
            Some(c) => {
                if mult != 1 {
                    return Err(SquallError::Runtime(format!(
                        "windowed standing views are append-only (got a weight-{mult} delta)"
                    )));
                }
                let ts = event_time(payload.get(c).as_int()?)?;
                self.join.insert_weighted(rel, ts, payload, &mut self.wbuf);
            }
        }
        for (t, m) in self.wbuf.drain(..) {
            let mut v = Vec::with_capacity(t.arity() + 2);
            v.extend_from_slice(t.values());
            v.push(Value::Int(m));
            v.push(Value::Int(epoch as i64));
            out.emit(Tuple::new(v));
        }
        self.check_budget()
    }
}

/// The `[weight, epoch]` columns of a delta chunk whose payload is
/// `payload_arity` wide, as Int slices.
pub(crate) fn delta_columns(chunk: &Chunk, payload_arity: usize) -> Result<(&[i64], &[i64])> {
    if chunk.n_cols() != payload_arity + 2 {
        return Err(SquallError::Runtime(format!(
            "a {}-column chunk for a {payload_arity}-column relation \
             (expected the payload, plus [weight, epoch] for deltas)",
            chunk.n_cols()
        )));
    }
    let int = |c: usize| {
        chunk.column(c).as_i64().filter(|a| a.validity().is_none()).map(|a| a.values()).ok_or_else(
            || SquallError::Runtime("delta weight and epoch columns must be non-null Int".into()),
        )
    };
    Ok((int(payload_arity)?, int(payload_arity + 1)?))
}

impl Bolt for JoinBolt {
    fn execute(&mut self, origin: NodeId, tuple: Tuple, out: &mut OutputCollector) -> Result<()> {
        self.execute_chunk(origin, &Chunk::from_tuples(std::slice::from_ref(&tuple)), out)
    }

    fn execute_chunk(
        &mut self,
        origin: NodeId,
        chunk: &Chunk,
        out: &mut OutputCollector,
    ) -> Result<()> {
        // One relation lookup per chunk: every tuple in a batch shares its
        // origin node, so a per-row hash-map probe is pure overhead.
        let rel = self.rel_of(origin)?;
        let arity = self.arities[rel];
        if chunk.n_cols() == arity || chunk.is_empty() {
            for tuple in chunk.rows() {
                self.step(rel, tuple, out)?;
            }
            return Ok(());
        }
        let (weights, epochs) = delta_columns(chunk, arity)?;
        for i in 0..chunk.n_rows() {
            let payload: Tuple = chunk.columns()[..arity].iter().map(|c| c.value(i)).collect();
            // A negative epoch reads as 0, which the view sink rejects.
            let epoch = u64::try_from(epochs[i]).unwrap_or(0);
            if epoch > self.frontier.saturating_add(1) {
                // Ahead of the slowest source: wait for its watermark.
                self.waiting.entry(epoch).or_default().push((rel, payload, weights[i]));
            } else {
                self.apply_delta(rel, &payload, weights[i], epoch, out)?;
            }
        }
        Ok(())
    }

    /// Epoch watermarks from the sources: once every source has reported,
    /// release the deltas the slowest one unblocks, then forward its
    /// epoch downstream.
    fn watermark(
        &mut self,
        origin: NodeId,
        _from_task: usize,
        ts: u64,
        out: &mut OutputCollector,
    ) -> Result<()> {
        let Some(w) = self.frontiers.advance(origin, ts) else { return Ok(()) };
        if w > self.frontier {
            self.frontier = w;
            self.release(w.saturating_add(1), out)?;
            out.emit_watermark(w);
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut OutputCollector) -> Result<()> {
        // Every source is done: nothing can hold a waiting delta back.
        self.release(u64::MAX, out)?;
        if self.wm_granule.is_some() {
            // This task will never emit again: release downstream windows
            // unconditionally (a task that saw no data for some relation
            // never advanced its watermark — without this, windowed
            // aggregation could only close windows at its own finish).
            out.emit_watermark(u64::MAX);
        }
        if self.emit == JoinEmit::CountOnly {
            out.emit(squall_common::tuple![self.results as i64]);
        }
        Ok(())
    }

    /// Barrier alignment: snapshot this task's join state, ship the blob
    /// toward the coordinator's checkpoint store, and forward the barrier
    /// downstream. A synchronous checkpoint round issues no later epoch,
    /// so the state covers exactly the epochs up to the barrier's and
    /// nothing is waiting.
    fn barrier(&mut self, epoch: u64, out: &mut OutputCollector) -> Result<()> {
        debug_assert!(self.waiting.is_empty(), "deltas waiting at an aligned barrier");
        if let Some(tx) = &self.blob_tx {
            let mut buf = Vec::new();
            if self.join.is_event_time() {
                buf.push(JOIN_BLOB_WINDOWED);
                self.join.snapshot_state(&mut buf);
            } else {
                buf.push(JOIN_BLOB_FULL);
                self.join.inner().snapshot_state(&mut buf);
            }
            let _ = tx.send((ROLE_JOIN, self.machine, epoch, buf));
        }
        out.emit_barrier(epoch);
        Ok(())
    }
}

/// The aggregation task: folds every join result into its group and emits
/// the group rows at end-of-stream.
pub struct AggBolt {
    agg: GroupByAggregator,
}

impl AggBolt {
    pub fn new(group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> AggBolt {
        AggBolt { agg: GroupByAggregator::new(group_cols, aggs) }
    }
}

impl Bolt for AggBolt {
    fn execute(&mut self, _origin: NodeId, tuple: Tuple, _out: &mut OutputCollector) -> Result<()> {
        self.agg.update(&tuple).map(drop)
    }

    fn execute_chunk(
        &mut self,
        _origin: NodeId,
        chunk: &Chunk,
        _out: &mut OutputCollector,
    ) -> Result<()> {
        // The per-update output rows are never looked at, so the chunked
        // path skips building them entirely.
        self.agg.update_chunk(chunk, None)
    }

    fn finish(&mut self, out: &mut OutputCollector) -> Result<()> {
        for row in self.agg.snapshot() {
            out.emit(row);
        }
        Ok(())
    }
}

/// Per-window aggregation: the windowed mode of the aggregation component
/// (§2 "window semantics for its operators" — the window applied to the
/// *aggregate*, not just the join).
///
/// State is keyed by `(window_start, group key)`: each incoming join
/// result is folded into every window it belongs to —
///
/// * **tumbling `width`** — exactly one window, `[k·width, (k+1)·width)`
///   where `k = ⌊ts/width⌋` (the window predicate upstream guarantees all
///   constituent timestamps share the bucket);
/// * **sliding `size`** — every window `[s, s+size]` (inclusive, matching
///   the join's `max − min ≤ size` predicate) that contains *all*
///   constituent timestamps: `s ∈ [max−size, min]`, one window per time
///   unit, so adjacent windows overlap.
///
/// A window is **closed** — its rows finalized and emitted, its state
/// dropped — once the minimum watermark across every upstream join task
/// guarantees no further result can fall into it (tumbling: watermark
/// reached the next bucket; sliding: `start < watermark − size`). Closed
/// windows are emitted in ascending `window_start` order, each row shaped
/// `(window_start, window_end, group…, agg…)` with both bounds inclusive,
/// and the remaining windows flush — still in order — at end-of-stream.
///
/// The bolt runs **group-hash sharded**: a `Fields` grouping on the group
/// columns routes every row of a group to one task, so each shard holds
/// `(window_start, group)` state for its groups only and closes windows
/// against its own copy of the cross-task join watermark (watermarks
/// broadcast, so every shard sees every join task's frontier). After
/// closing below a boundary the shard forwards that boundary downstream —
/// the promise "all my future rows have `window_start ≥ boundary`" that
/// [`WindowMergeBolt`] turns back into the global window-order contract.
pub struct WindowedAggBolt {
    spec: WindowSpec,
    /// Positions of each relation's event-time column in the join-output
    /// row (results are concatenated in relation order).
    ts_cols: Vec<usize>,
    group_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    /// Open windows by start, each with its own group-by state.
    windows: BTreeMap<u64, GroupByAggregator>,
    /// Join-task watermarks per upstream task `(node, task)`.
    frontiers: Frontiers<(NodeId, usize)>,
    /// Every window with `start` below this has been emitted; a data row
    /// for such a window would violate the watermark contract.
    closed_before: u64,
    /// Highest window-start boundary forwarded downstream (to the merge
    /// sink); forwards are suppressed until the boundary advances.
    forwarded: u64,
    /// Scratch for closed-window rows between close and emit.
    drain: Vec<Tuple>,
}

impl WindowedAggBolt {
    /// `ts_cols` are the constituent event-time columns in join-output
    /// coordinates; `n_upstream` is the join component's parallelism.
    pub fn new(
        spec: WindowSpec,
        ts_cols: Vec<usize>,
        group_cols: Vec<usize>,
        aggs: Vec<AggSpec>,
        n_upstream: usize,
    ) -> WindowedAggBolt {
        assert!(
            !matches!(spec, WindowSpec::FullHistory),
            "per-window aggregation needs a bounded window shape"
        );
        assert!(!ts_cols.is_empty(), "event-time columns required");
        assert!(n_upstream > 0);
        WindowedAggBolt {
            spec,
            ts_cols,
            group_cols,
            aggs,
            windows: BTreeMap::new(),
            frontiers: Frontiers::new(n_upstream),
            closed_before: 0,
            forwarded: 0,
            drain: Vec::new(),
        }
    }

    /// Close every window with `start < boundary` into `rows`, in window
    /// order — the collector-free face of the close path, shared by the
    /// runtime wrapper below and by benchmarks driving the bare kernel.
    pub fn close_into(&mut self, boundary: u64, rows: &mut Vec<Tuple>) {
        while let Some(entry) = self.windows.first_entry() {
            if *entry.key() >= boundary {
                break;
            }
            let (start, agg) = entry.remove_entry();
            let end = self.spec.window_end(start);
            for row in agg.snapshot() {
                let mut values = Vec::with_capacity(2 + row.arity());
                values.push(Value::Int(start as i64));
                values.push(Value::Int(end as i64));
                values.extend(row.values().iter().cloned());
                rows.push(Tuple::new(values));
            }
        }
        self.closed_before = self.closed_before.max(boundary);
    }

    /// Close every window with `start < boundary` and emit its rows.
    fn emit_closed(&mut self, boundary: u64, out: &mut OutputCollector) {
        let mut rows = std::mem::take(&mut self.drain);
        self.close_into(boundary, &mut rows);
        for t in rows.drain(..) {
            out.emit(t);
        }
        self.drain = rows;
    }

    /// Open windows (testing / introspection).
    pub fn open_windows(&self) -> usize {
        self.windows.len()
    }

    /// The window starts a result spanning event times `[lo, hi]` folds
    /// into (see the type docs), with the late-data check.
    fn starts(&self, lo: u64, hi: u64) -> Result<RangeInclusive<u64>> {
        let starts = self.spec.window_starts(lo, hi);
        if *starts.start() < self.closed_before {
            return Err(SquallError::Runtime(format!(
                "late join result for closed window {} (closed below {})",
                starts.start(),
                self.closed_before
            )));
        }
        Ok(starts)
    }

    /// Fold one join result row into every window it belongs to (the
    /// per-row insert path).
    pub fn insert_row(&mut self, tuple: &Tuple) -> Result<()> {
        let (lo, hi) = time_span(tuple, &self.ts_cols)?;
        for start in self.starts(lo, hi)? {
            self.windows
                .entry(start)
                .or_insert_with(|| {
                    GroupByAggregator::new(self.group_cols.clone(), self.aggs.clone())
                })
                .update(tuple)?;
        }
        Ok(())
    }

    /// Fold one columnar chunk of join results in without materializing a
    /// single per-row [`Tuple`]: window bounds run over the timestamp
    /// columns (straight over the i64 slice when fully-valid Int),
    /// aggregate input expressions evaluate once per chunk, and each row
    /// folds into its windows from the resulting arrays via
    /// [`GroupByAggregator::accumulate`] — the columnar insert kernel that
    /// replaces per-row `chunk.row(i)` + expression re-evaluation.
    pub fn insert_chunk(&mut self, chunk: &Chunk) -> Result<()> {
        let rows = chunk.n_rows();
        if rows == 0 {
            return Ok(());
        }
        let mut lo = vec![u64::MAX; rows];
        let mut hi = vec![0u64; rows];
        for &c in &self.ts_cols {
            let col = chunk.column(c);
            let plain = col.as_i64().filter(|a| a.validity().is_none()).map(|a| a.values());
            for i in 0..rows {
                let v = event_time(match plain {
                    Some(vals) => vals[i],
                    None => col.value(i).as_int()?,
                })?;
                lo[i] = lo[i].min(v);
                hi[i] = hi[i].max(v);
            }
        }
        // Aggregate inputs, column-at-a-time, once per chunk.
        let mut inputs: Vec<Option<Array>> = Vec::with_capacity(self.aggs.len());
        for a in &self.aggs {
            inputs.push(match &a.input {
                Some(e) => Some(e.eval_chunk(chunk)?),
                None => None,
            });
        }
        let mut key: Vec<Value> = Vec::with_capacity(self.group_cols.len());
        let mut vals: Vec<Option<Value>> = Vec::with_capacity(self.aggs.len());
        for i in 0..rows {
            let starts = self.starts(lo[i], hi[i])?;
            key.clear();
            for &c in &self.group_cols {
                key.push(chunk.column(c).value(i));
            }
            vals.clear();
            for a in &inputs {
                vals.push(a.as_ref().map(|arr| arr.value(i)));
            }
            for start in starts {
                self.windows
                    .entry(start)
                    .or_insert_with(|| {
                        GroupByAggregator::new(self.group_cols.clone(), self.aggs.clone())
                    })
                    .accumulate(&key, &vals)?;
            }
        }
        Ok(())
    }
}

impl Bolt for WindowedAggBolt {
    fn execute(&mut self, _origin: NodeId, tuple: Tuple, _out: &mut OutputCollector) -> Result<()> {
        self.insert_row(&tuple)
    }

    fn execute_chunk(
        &mut self,
        _origin: NodeId,
        chunk: &Chunk,
        _out: &mut OutputCollector,
    ) -> Result<()> {
        self.insert_chunk(chunk)
    }

    fn watermark(
        &mut self,
        origin: NodeId,
        from_task: usize,
        ts: u64,
        out: &mut OutputCollector,
    ) -> Result<()> {
        let Some(w) = self.frontiers.advance((origin, from_task), ts) else { return Ok(()) };
        // Any future result carries max-constituent-ts ≥ w, so its
        // earliest window start is that of a result spanning just `w`;
        // everything under that bound is final.
        let boundary = *self.spec.window_starts(w, w).start();
        self.emit_closed(boundary, out);
        // Forward the shard's window-start frontier so the merge sink can
        // release: the rows above were emitted first (and buffers flush
        // ahead of watermarks), so per-sender FIFO keeps every released
        // prefix final. Idle shards forward too — with no data for a
        // group-hash shard, the merge would otherwise wait for it until
        // end-of-stream.
        if boundary > self.forwarded {
            out.emit_watermark(boundary);
            self.forwarded = boundary;
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut OutputCollector) -> Result<()> {
        // All inputs done: every remaining window is final.
        self.emit_closed(u64::MAX, out);
        Ok(())
    }
}

/// Coordinator-side ordered merge of group-hash-sharded windowed
/// aggregation: restores the global window-order contract that the
/// single-task plane provided for free.
///
/// Every shard of [`WindowedAggBolt`] emits its closed windows in
/// ascending `window_start` order and forwards a window-start boundary
/// watermark after each close ("all my future rows have
/// `window_start ≥ boundary`"). The merge buffers incoming rows in a
/// binary min-heap keyed on `(window_start, row)` and releases rows only
/// while `window_start` is below the **minimum** boundary across all
/// shards — by then every row of those windows has arrived (per-sender
/// FIFO puts a shard's rows ahead of its promise), so the released prefix
/// is final and globally ordered.
///
/// Ordering within a window: rows are `(window_start, window_end,
/// group…, agg…)` and group keys are disjoint across shards (group-hash
/// routing), so heap order — lexicographic over the row — coincides with
/// the sorted-by-group-key order a single aggregation task emits.
/// The merged stream is therefore **byte-identical** to the 1-task plane.
pub struct WindowMergeBolt {
    /// Min-heap of buffered rows keyed on `(window_start, row)`.
    heap: BinaryHeap<Reverse<(u64, Tuple)>>,
    /// Window-start boundaries per upstream shard `(node, task)`.
    frontiers: Frontiers<(NodeId, usize)>,
    /// Every row below this window start has been released; a later
    /// arrival below it would violate the shard's boundary promise.
    released_below: u64,
    /// Scratch for released rows between release and emit.
    drain: Vec<Tuple>,
}

impl WindowMergeBolt {
    /// `n_upstream` is the windowed-aggregation shard count.
    pub fn new(n_upstream: usize) -> WindowMergeBolt {
        assert!(n_upstream > 0);
        WindowMergeBolt {
            heap: BinaryHeap::new(),
            frontiers: Frontiers::new(n_upstream),
            released_below: 0,
            drain: Vec::new(),
        }
    }

    /// Buffer one shard row (`window_start` in column 0).
    pub fn push(&mut self, tuple: Tuple) -> Result<()> {
        let start = tuple.get(0).as_int()?;
        if start < 0 {
            return Err(SquallError::Runtime(format!(
                "negative window start {start} at the merge sink"
            )));
        }
        let start = start as u64;
        if start < self.released_below {
            return Err(SquallError::Runtime(format!(
                "late shard row for window {start} (released below {})",
                self.released_below
            )));
        }
        self.heap.push(Reverse((start, tuple)));
        Ok(())
    }

    /// Release every buffered row with `window_start < boundary` into
    /// `rows`, in `(window_start, row)` order.
    pub fn release_below(&mut self, boundary: u64, rows: &mut Vec<Tuple>) {
        while let Some(Reverse((start, _))) = self.heap.peek() {
            if *start >= boundary {
                break;
            }
            let Reverse((_, t)) = self.heap.pop().expect("peeked");
            rows.push(t);
        }
        self.released_below = self.released_below.max(boundary);
    }

    /// Release every buffered row below `boundary` and emit it.
    fn emit_released(&mut self, boundary: u64, out: &mut OutputCollector) {
        let mut rows = std::mem::take(&mut self.drain);
        self.release_below(boundary, &mut rows);
        for t in rows.drain(..) {
            out.emit(t);
        }
        self.drain = rows;
    }

    /// Buffered (not yet released) rows — testing / introspection.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }
}

impl Bolt for WindowMergeBolt {
    fn execute(&mut self, _origin: NodeId, tuple: Tuple, _out: &mut OutputCollector) -> Result<()> {
        self.push(tuple)
    }

    fn watermark(
        &mut self,
        origin: NodeId,
        from_task: usize,
        ts: u64,
        out: &mut OutputCollector,
    ) -> Result<()> {
        let Some(boundary) = self.frontiers.advance((origin, from_task), ts) else { return Ok(()) };
        self.emit_released(boundary, out);
        Ok(())
    }

    fn finish(&mut self, out: &mut OutputCollector) -> Result<()> {
        // Every shard has flushed and punctuated: drain the heap.
        self.emit_released(u64::MAX, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squall_common::tuple;
    use squall_expr::{BinOp, ScalarExpr};

    #[test]
    fn select_project_apply() {
        let b = SelectProjectBolt {
            predicate: Some(ScalarExpr::bin(BinOp::Gt, ScalarExpr::col(0), ScalarExpr::lit(3))),
            projections: Some(vec![ScalarExpr::col(1)]),
        };
        assert_eq!(b.apply(&tuple![5, "keep"]).unwrap(), Some(tuple!["keep"]));
        assert_eq!(b.apply(&tuple![1, "drop"]).unwrap(), None);
    }

    #[test]
    fn select_only_passes_through() {
        let b = SelectProjectBolt::select(ScalarExpr::lit(1));
        assert_eq!(b.apply(&tuple![9, 9]).unwrap(), Some(tuple![9, 9]));
    }

    #[test]
    fn project_only_reshapes() {
        let b = SelectProjectBolt::project(vec![
            ScalarExpr::col(1),
            ScalarExpr::bin(BinOp::Add, ScalarExpr::col(0), ScalarExpr::lit(1)),
        ]);
        assert_eq!(b.apply(&tuple![10, 20]).unwrap(), Some(tuple![20, 11]));
    }

    fn windowed_bolt(spec: WindowSpec) -> WindowedAggBolt {
        // Join-output rows (k, ts_a, ts_b): group on k, COUNT + SUM(2·ts_a).
        WindowedAggBolt::new(
            spec,
            vec![1, 2],
            vec![0],
            vec![
                AggSpec::count(),
                AggSpec::sum(ScalarExpr::bin(BinOp::Mul, ScalarExpr::lit(2), ScalarExpr::col(1))),
            ],
            1,
        )
    }

    fn windowed_rows(n: i64, spread: u64) -> Vec<Tuple> {
        (0..n).map(|i| tuple![i % 3, i, i + (i as u64 % spread) as i64]).collect()
    }

    #[test]
    fn columnar_insert_kernel_matches_row_path() {
        // insert_chunk must leave byte-identical state to per-row
        // insert_row — same windows, same groups, same accumulators.
        for spec in [WindowSpec::Tumbling { width: 64 }, WindowSpec::Sliding { size: 5 }] {
            let spread = match spec {
                WindowSpec::Tumbling { .. } => 1, // same bucket per row
                _ => 4,
            };
            let rows = windowed_rows(200, spread);
            let mut by_row = windowed_bolt(spec);
            let mut by_chunk = windowed_bolt(spec);
            for t in &rows {
                by_row.insert_row(t).unwrap();
            }
            for batch in rows.chunks(64) {
                by_chunk.insert_chunk(&Chunk::from_tuples(batch)).unwrap();
            }
            assert_eq!(by_row.open_windows(), by_chunk.open_windows());
            let (mut a, mut b) = (Vec::new(), Vec::new());
            by_row.close_into(u64::MAX, &mut a);
            by_chunk.close_into(u64::MAX, &mut b);
            assert!(!a.is_empty());
            assert_eq!(a, b, "{spec:?}");
        }
    }

    #[test]
    fn window_merge_releases_in_order_and_rejects_late_rows() {
        let mut m = WindowMergeBolt::new(2);
        // Two shards' window-ordered streams, interleaved out of global
        // order: shard A has windows 0 and 10, shard B windows 5 and 10.
        m.push(tuple![10, 19, 2, 7]).unwrap();
        m.push(tuple![0, 9, 1, 3]).unwrap();
        m.push(tuple![5, 14, 4, 1]).unwrap();
        m.push(tuple![10, 19, 1, 2]).unwrap();
        let mut out = Vec::new();
        m.release_below(10, &mut out);
        assert_eq!(out, vec![tuple![0, 9, 1, 3], tuple![5, 14, 4, 1]]);
        assert_eq!(m.pending(), 2);
        // A row below the released boundary violates the shard promise.
        assert!(m.push(tuple![4, 13, 9, 9]).is_err());
        m.release_below(u64::MAX, &mut out);
        assert_eq!(
            out[2..],
            [tuple![10, 19, 1, 2], tuple![10, 19, 2, 7]],
            "equal starts order by the remaining row columns (disjoint group keys)"
        );
    }
}
