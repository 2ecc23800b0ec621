//! Bench-side reference answers, computed from the generated inputs
//! without the engine. Every relation here is binary: `(a, b)` pairs.

use std::collections::BTreeMap;

use squall::common::{tuple, FxHashMap, Tuple};
use squall::ChangeBatch;

fn counts(keys: impl Iterator<Item = i64>) -> FxHashMap<i64, i64> {
    let mut m = FxHashMap::default();
    for k in keys {
        *m.entry(k).or_insert(0) += 1;
    }
    m
}

/// For every `S.y`: how many `S ⋈ T` rows carry it, i.e. Σ over the `S`
/// rows `(y, z)` of the number of `T` rows with that `z`.
fn st_fanout(s: &[(i64, i64)], t: &[(i64, i64)]) -> FxHashMap<i64, i64> {
    let t_z = counts(t.iter().map(|&(z, _)| z));
    let mut by_y = FxHashMap::default();
    for &(y, z) in s {
        if let Some(&n) = t_z.get(&z) {
            *by_y.entry(y).or_insert(0) += n;
        }
    }
    by_y
}

/// `SELECT COUNT(*) FROM R, S, T WHERE R.y = S.y AND S.z = T.z` over
/// `R(x, y)`, `S(y, z)`, `T(z, w)`, by hash join.
pub fn chain_count(r: &[(i64, i64)], s: &[(i64, i64)], t: &[(i64, i64)]) -> i64 {
    let st = st_fanout(s, t);
    r.iter().filter_map(|(_, y)| st.get(y)).sum()
}

/// `SELECT R.x, COUNT(*) FROM R, S, T WHERE R.y = S.y AND S.z = T.z
/// GROUP BY R.x`, rows sorted like the engine sorts materialized rows.
pub fn chain_count_by_x(r: &[(i64, i64)], s: &[(i64, i64)], t: &[(i64, i64)]) -> Vec<Tuple> {
    let st = st_fanout(s, t);
    let mut by_x: BTreeMap<i64, i64> = BTreeMap::new();
    for (x, y) in r {
        if let Some(&n) = st.get(y) {
            *by_x.entry(*x).or_insert(0) += n;
        }
    }
    by_x.into_iter().map(|(x, n)| tuple![x, n]).collect()
}

/// `SELECT I.ad_id, COUNT(*) FROM impressions I, clicks C WHERE
/// I.ad_id = C.ad_id WINDOW TUMBLING <width> ON ts GROUP BY I.ad_id` over
/// `(ad_id, ts)` streams: one `[window_start, window_end, ad_id, count]`
/// row per window and ad, sorted.
pub fn tumbling_counts(imps: &[(i64, i64)], clicks: &[(i64, i64)], width: i64) -> Vec<Tuple> {
    let per = |rows: &[(i64, i64)]| counts(rows.iter().map(|&(ad, ts)| pack(ts / width, ad)));
    let (i, c) = (per(imps), per(clicks));
    let mut out: Vec<Tuple> = i
        .iter()
        .filter_map(|(key, ni)| c.get(key).map(|nc| (*key, ni * nc)))
        .map(|(key, n)| {
            let (bucket, ad) = unpack(key);
            let start = bucket * width;
            tuple![start, start + width - 1, ad, n]
        })
        .collect();
    out.sort();
    out
}

/// Bucket and ad id share one map key; both fit in 32 bits here.
fn pack(bucket: i64, ad: i64) -> i64 {
    (bucket << 32) | ad
}

fn unpack(key: i64) -> (i64, i64) {
    (key >> 32, key & 0xffff_ffff)
}

/// A view's change stream folded onto its initial rows one batch at a
/// time, so that a reader holds the view's size rather than the stream's.
#[derive(Debug, Default)]
pub struct Fold(BTreeMap<Tuple, i64>);

impl Fold {
    pub fn new(initial: &[Tuple]) -> Fold {
        let mut fold = Fold::default();
        for row in initial {
            fold.add(row, 1);
        }
        fold
    }

    fn add(&mut self, row: &Tuple, delta: i64) {
        let n = self.0.entry(row.clone()).or_insert(0);
        *n += delta;
        if *n == 0 {
            self.0.remove(row);
        }
    }

    pub fn apply(&mut self, batch: &ChangeBatch) {
        for (row, delta) in &batch.changes {
            self.add(row, *delta);
        }
    }

    /// The folded rows sorted, or `None` if some row's count is negative.
    pub fn rows(self) -> Option<Vec<Tuple>> {
        let mut out = Vec::new();
        for (row, n) in self.0 {
            if n < 0 {
                return None;
            }
            out.extend(std::iter::repeat_n(row, n as usize));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // R(x, y) = {(1, 10), (2, 10), (3, 20)}; S(y, z) = {(10, 5), (10, 6),
    // (20, 5), (30, 7)}; T(z, w) = {(5, 0), (5, 1), (6, 0)}.
    // S ⋈ T: y=10 → 2 + 1 = 3 rows, y=20 → 2 rows.
    // R ⋈ S ⋈ T: x=1 → 3, x=2 → 3, x=3 → 2; total 8.
    const R: [(i64, i64); 3] = [(1, 10), (2, 10), (3, 20)];
    const S: [(i64, i64); 4] = [(10, 5), (10, 6), (20, 5), (30, 7)];
    const T: [(i64, i64); 3] = [(5, 0), (5, 1), (6, 0)];

    #[test]
    fn chain_count_by_hand() {
        assert_eq!(chain_count(&R, &S, &T), 8);
        assert_eq!(chain_count(&R, &S, &[]), 0);
    }

    #[test]
    fn chain_count_by_x_by_hand() {
        assert_eq!(chain_count_by_x(&R, &S, &T), vec![tuple![1, 3], tuple![2, 3], tuple![3, 2]]);
    }

    #[test]
    fn tumbling_counts_by_hand() {
        // Width 10: ad 1 has impressions at 0 and 9 (window 0) and 10
        // (window 10); clicks at 5 (window 0) and 19 (window 10). Ad 2
        // has an impression in window 0 and a click only in window 20.
        let imps = [(1, 0), (1, 9), (1, 10), (2, 3)];
        let clicks = [(1, 5), (1, 19), (2, 20)];
        assert_eq!(
            tumbling_counts(&imps, &clicks, 10),
            vec![tuple![0, 9, 1, 2], tuple![10, 19, 1, 1]]
        );
    }

    #[test]
    fn fold_by_hand() {
        let initial = vec![tuple![1, 3], tuple![2, 3]];
        let batches = [
            ChangeBatch { epoch: 2, changes: vec![(tuple![1, 3], -1), (tuple![1, 4], 1)] },
            ChangeBatch { epoch: 3, changes: vec![(tuple![5, 1], 2)] },
        ];
        let mut fold = Fold::new(&initial);
        batches.iter().for_each(|b| fold.apply(b));
        assert_eq!(fold.rows(), Some(vec![tuple![1, 4], tuple![2, 3], tuple![5, 1], tuple![5, 1]]));
        let mut bad = Fold::new(&initial);
        bad.apply(&ChangeBatch { epoch: 2, changes: vec![(tuple![9, 9], -1)] });
        assert_eq!(bad.rows(), None);
    }
}
