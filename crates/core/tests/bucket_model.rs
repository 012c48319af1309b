//! Model-based property test for the Julienne bucketing structure: random
//! operation sequences are applied both to [`Buckets`] and to a trivial
//! BTreeMap reference model, and the extraction sequences must coincide.
//!
//! Two harnesses: `run_scenario` interleaves point updates,
//! `run_batched_scenario` applies each round's moves as one batch with
//! duplicate vertices allowed (last move wins) — once through the public
//! entry points, which apply batches this far below `SEQ_BATCH` inline, and
//! once through the parallel dedup/scatter path itself, so that
//! inline ≡ parallel ≡ model on the same moves.

use proptest::prelude::*;
use sage_core::bucket::{Buckets, Order, Packing, CLOSED, OPEN_BUCKETS};
use std::collections::BTreeMap;

/// Most moves handed over between two extractions in the batched scenarios.
const ROUND_MOVES: usize = 144;

/// Reference model: key -> sorted set of vertices.
struct Model {
    key_of: Vec<u64>, // CLOSED = absent
    order: Order,
}

impl Model {
    fn new(keys: &[u64], order: Order) -> Self {
        Self {
            key_of: keys.to_vec(),
            order,
        }
    }

    fn update(&mut self, v: u32, key: u64) {
        self.key_of[v as usize] = key;
    }

    fn next_bucket(&mut self) -> Option<(u64, Vec<u32>)> {
        let mut by_key: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (v, &k) in self.key_of.iter().enumerate() {
            if k != CLOSED {
                by_key.entry(k).or_default().push(v as u32);
            }
        }
        let (&k, _) = match self.order {
            Order::Increasing => by_key.iter().next()?,
            Order::Decreasing => by_key.iter().next_back()?,
        };
        let vs = by_key.remove(&k).unwrap();
        for &v in &vs {
            self.key_of[v as usize] = CLOSED;
        }
        Some((k, vs))
    }
}

fn run_scenario(
    n: usize,
    keys: Vec<u64>,
    moves: Vec<(u32, u64)>,
    order: Order,
    packing: Packing,
) -> Result<(), TestCaseError> {
    let keys: Vec<u64> = keys.into_iter().take(n).collect();
    let mut model = Model::new(&keys, order);
    let mut buckets = Buckets::new(n, order, packing, |v| {
        let k = keys[v as usize];
        if k == CLOSED {
            None
        } else {
            Some(k)
        }
    });
    let mut move_iter = moves.into_iter();
    loop {
        let got = buckets.next_bucket().map(|(k, mut vs)| {
            vs.sort_unstable();
            (k, vs)
        });
        let want = model.next_bucket();
        prop_assert_eq!(&got, &want, "extraction diverged");
        if got.is_none() {
            break;
        }
        // Interleave a few updates between extractions. Keys are clamped to
        // the just-extracted bucket by both sides (monotonicity contract).
        let (cur, _) = got.unwrap();
        for _ in 0..3 {
            if let Some((v, raw_key)) = move_iter.next() {
                let v = v % n as u32;
                if model.key_of[v as usize] == CLOSED {
                    continue; // already settled; Sage algorithms never reopen
                }
                let key = match order {
                    Order::Increasing => raw_key.clamp(cur, cur + 3 * OPEN_BUCKETS as u64),
                    Order::Decreasing => {
                        raw_key.clamp(cur.saturating_sub(3 * OPEN_BUCKETS as u64), cur)
                    }
                };
                model.update(v, key);
                buckets.update(v, key);
            }
        }
    }
    Ok(())
}

/// Batched variant, on the inline and on the parallel path in turn.
fn run_batched_scenario(
    n: usize,
    keys: Vec<u64>,
    moves: Vec<(u32, u64)>,
    per_round: usize,
    order: Order,
    packing: Packing,
    distinct: bool,
) -> Result<(), TestCaseError> {
    for parallel in [false, true] {
        let (keys, moves) = (keys.clone(), moves.clone());
        run_batched_on(
            n, keys, moves, per_round, order, packing, distinct, parallel,
        )?;
    }
    Ok(())
}

/// Between extractions, drain up to `per_round` moves from the move list,
/// apply them in order to the model, and hand the whole batch (duplicates
/// included) to `update_batch` — or, with `distinct`, collapse it to the
/// last move per vertex and use `update_batch_distinct`. With `parallel`
/// the batch goes to `update_batch_parallel` directly instead (closes,
/// overflow moves and no-op moves included). Extraction sequences must
/// match the model every way.
#[allow(clippy::too_many_arguments)]
fn run_batched_on(
    n: usize,
    keys: Vec<u64>,
    moves: Vec<(u32, u64)>,
    per_round: usize,
    order: Order,
    packing: Packing,
    distinct: bool,
    parallel: bool,
) -> Result<(), TestCaseError> {
    let keys: Vec<u64> = keys.into_iter().take(n).collect();
    let mut model = Model::new(&keys, order);
    let mut buckets = Buckets::new(n, order, packing, |v| {
        let k = keys[v as usize];
        if k == CLOSED {
            None
        } else {
            Some(k)
        }
    });
    let mut move_iter = moves.into_iter();
    loop {
        let got = buckets.next_bucket().map(|(k, mut vs)| {
            vs.sort_unstable();
            (k, vs)
        });
        let want = model.next_bucket();
        prop_assert_eq!(&got, &want, "extraction diverged (parallel = {})", parallel);
        if got.is_none() {
            break;
        }
        let (cur, _) = got.unwrap();
        let mut batch: Vec<(u32, u64)> = Vec::new();
        for _ in 0..per_round {
            let Some((v, raw_key)) = move_iter.next() else {
                break;
            };
            let v = v % n as u32;
            if model.key_of[v as usize] == CLOSED {
                continue; // already settled; Sage algorithms never reopen
            }
            // Clamp like the monotone algorithms; the span deliberately
            // reaches past the open range so batches churn the overflow
            // bucket (and duplicates of the same v may land on both sides).
            // One move in eleven closes its vertex instead.
            let key = match order {
                _ if raw_key % 11 == 0 => CLOSED,
                Order::Increasing => raw_key.clamp(cur, cur + 3 * OPEN_BUCKETS as u64),
                Order::Decreasing => {
                    raw_key.clamp(cur.saturating_sub(3 * OPEN_BUCKETS as u64), cur)
                }
            };
            model.update(v, key);
            batch.push((v, key));
        }
        if distinct {
            // Last move per vertex wins, as the sequential loop would apply.
            let mut last: std::collections::HashMap<u32, u64> = Default::default();
            for &(v, k) in &batch {
                last.insert(v, k);
            }
            batch = last.into_iter().collect();
        }
        match (parallel, distinct) {
            (true, _) => buckets.update_batch_parallel(&batch, distinct),
            (false, true) => buckets.update_batch_distinct(&batch),
            (false, false) => buckets.update_batch(&batch),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn increasing_matches_model(
        n in 1usize..80,
        keys in proptest::collection::vec(0u64..200, 80),
        moves in proptest::collection::vec((any::<u32>(), 0u64..500), 0..60),
    ) {
        run_scenario(n, keys, moves, Order::Increasing, Packing::SemiEager)?;
    }

    #[test]
    fn increasing_lazy_matches_model(
        n in 1usize..80,
        keys in proptest::collection::vec(0u64..200, 80),
        moves in proptest::collection::vec((any::<u32>(), 0u64..500), 0..60),
    ) {
        run_scenario(n, keys, moves, Order::Increasing, Packing::Lazy)?;
    }

    #[test]
    fn decreasing_matches_model(
        n in 1usize..80,
        keys in proptest::collection::vec(0u64..200, 80),
        moves in proptest::collection::vec((any::<u32>(), 0u64..200), 0..60),
    ) {
        run_scenario(n, keys, moves, Order::Decreasing, Packing::SemiEager)?;
    }

    #[test]
    fn keys_far_in_overflow(
        n in 1usize..40,
        keys in proptest::collection::vec(1_000u64..100_000, 40),
    ) {
        run_scenario(n, keys, Vec::new(), Order::Increasing, Packing::SemiEager)?;
    }

    // ---- Batched coverage, inline and parallel path ----

    #[test]
    fn batched_increasing_matches_model(
        n in 8usize..200,
        keys in proptest::collection::vec(0u64..200, 200),
        moves in proptest::collection::vec((any::<u32>(), 0u64..500), 0..600),
    ) {
        // Batches of up to ROUND_MOVES moves with duplicate vertices: hits
        // the parallel dedup and both inserts (the counting-sort scatter
        // itself starts at SEQ_BATCH survivors; `bucket::tests` drives it),
        // including overflow destinations (keys reach cur + 3*OPEN_BUCKETS).
        run_batched_scenario(
            n, keys, moves, ROUND_MOVES, Order::Increasing, Packing::SemiEager, false,
        )?;
    }

    #[test]
    fn batched_increasing_lazy_matches_model(
        n in 8usize..200,
        keys in proptest::collection::vec(0u64..200, 200),
        moves in proptest::collection::vec((any::<u32>(), 0u64..500), 0..600),
    ) {
        run_batched_scenario(
            n, keys, moves, ROUND_MOVES, Order::Increasing, Packing::Lazy, false,
        )?;
    }

    #[test]
    fn batched_decreasing_matches_model(
        n in 8usize..200,
        keys in proptest::collection::vec(0u64..400, 200),
        moves in proptest::collection::vec((any::<u32>(), 0u64..400), 0..600),
    ) {
        // Decreasing order flips the internal key space (u64::MAX - 1 - k);
        // semi-eager packing must still pack the right (reversed) buckets.
        run_batched_scenario(
            n, keys, moves, ROUND_MOVES, Order::Decreasing, Packing::SemiEager, false,
        )?;
    }

    #[test]
    fn batched_overflow_churn_with_duplicates(
        n in 8usize..120,
        keys in proptest::collection::vec(1_000u64..1_400, 120),
        moves in proptest::collection::vec((0u32..40, 1_000u64..2_000), 0..400),
    ) {
        // Start everything in the overflow bucket, then repeatedly move a
        // *small* set of vertices (v % 40 — lots of duplicates per batch)
        // across the open/overflow boundary while extraction re-splits it.
        run_batched_scenario(
            n, keys, moves, 2 * ROUND_MOVES / 3, Order::Increasing, Packing::SemiEager, false,
        )?;
    }

    #[test]
    fn batched_distinct_matches_model(
        n in 8usize..200,
        keys in proptest::collection::vec(0u64..200, 200),
        moves in proptest::collection::vec((any::<u32>(), 0u64..500), 0..600),
    ) {
        // The `update_batch_distinct` fast path (no dedup sort) used by the
        // four peeling consumers.
        run_batched_scenario(
            n, keys, moves, ROUND_MOVES, Order::Increasing, Packing::SemiEager, true,
        )?;
    }
}
