//! The packed exchange shared by the real broker and the virtual engine.
//!
//! A block-pass ships exactly **one** [`Message::PackedDispatch`] frame
//! per worker that has work — every expert batch routed to that worker,
//! column-packed into one row region — then drains one
//! [`Message::PackedResult`] per frame. [`ChunkPlan`] records which batch
//! indices went to which worker, in dispatch order; the reply region's
//! layout is implied by that plan, so replies carry no per-item headers.
//!
//! There is no pipelining ring: the master serializes every frame, then
//! drains. Replies from different workers may arrive in any order, but the
//! broker delivers results to the model in ascending batch-index order
//! (the streamed-combine prefix gate), so arrival order can never change
//! a bit.
//!
//! [`Message::PackedDispatch`]: crate::message::Message::PackedDispatch
//! [`Message::PackedResult`]: crate::message::Message::PackedResult

use std::time::{Duration, Instant};

use vela_obs::LazyCounter;

/// Span around encoding + shipping one block-pass's frames.
pub(crate) const SPAN_SERIALIZE: &str = "runtime.pipeline.serialize";
/// Span around each blocked drain (master idle, replies in flight).
pub(crate) const SPAN_INFLIGHT: &str = "runtime.pipeline.inflight";
/// Span around streamed-combine delivery of a completed batch prefix.
pub(crate) const SPAN_COMBINE: &str = "runtime.pipeline.combine";
/// Span around the boundary migration pump (non-blocking lane service).
pub(crate) const SPAN_MIGRATION_PUMP: &str = "runtime.migration.pump";

/// Master time spent in streamed-combine delivery, µs.
pub(crate) static COMBINE_US: LazyCounter = LazyCounter::new("runtime.pipeline.combine_us");
/// Background migration chunk frames relayed master → destination.
pub(crate) static MIGRATION_CHUNKS: LazyCounter = LazyCounter::new("runtime.migration.chunks");
/// Background migration parameter bytes relayed master → destination.
pub(crate) static MIGRATION_BYTES: LazyCounter = LazyCounter::new("runtime.migration.bytes");
/// Background migrations cut over at a step boundary.
pub(crate) static MIGRATION_COMMITS: LazyCounter = LazyCounter::new("runtime.migration.commits");
/// Master time in the boundary migration pump, µs (lane relays that did
/// not overlap compute — the visible cost of background migration).
pub(crate) static MIGRATION_PUMP_US: LazyCounter = LazyCounter::new("runtime.migration.pump_us");
/// Master time blocked flushing in-flight lanes (`finish_migrations`), µs.
pub(crate) static MIGRATION_FLUSH_US: LazyCounter = LazyCounter::new("runtime.migration.flush_us");
/// Master time spent encoding + enqueueing frames, µs.
static SERIALIZE_US: LazyCounter = LazyCounter::new("runtime.pipeline.serialize_us");
/// Time from the last frame sent to the last reply drained, µs.
static INFLIGHT_US: LazyCounter = LazyCounter::new("runtime.pipeline.inflight_us");
/// Exchange wall time, µs.
static EXCHANGE_US: LazyCounter = LazyCounter::new("runtime.pipeline.exchange_us");

/// Which batch indices each worker serves in one block-pass.
///
/// Built once per exchange from the item → worker assignment; buffers are
/// reused across exchanges. Items keep their dispatch order within each
/// worker's list.
#[derive(Debug, Default)]
pub(crate) struct ChunkPlan {
    by_worker: Vec<Vec<usize>>,
}

impl ChunkPlan {
    /// Groups an item list by worker, given each item's assigned worker
    /// (in item order).
    pub(crate) fn build(&mut self, workers: usize, assignments: impl Iterator<Item = usize>) {
        self.by_worker.resize_with(workers, Vec::new);
        self.by_worker.truncate(workers);
        for list in &mut self.by_worker {
            list.clear();
        }
        for (item, w) in assignments.enumerate() {
            self.by_worker[w].push(item);
        }
    }

    /// The item indices worker `w` serves (empty when it has no work).
    pub(crate) fn items(&self, w: usize) -> &[usize] {
        &self.by_worker[w]
    }

    /// The packed-region layout of worker `w`'s frame: yields
    /// `(item_index, row_offset, rows)` for each of its items, given every
    /// item's row count. Packed frames carry one contiguous data region
    /// and no per-item payload headers, so this is both how a dispatch
    /// region is laid out and how the master re-slices a reply region back
    /// into per-batch tensors — the reply's implicit layout is the plan
    /// itself, never the wire.
    pub(crate) fn chunk_regions<'a>(
        &'a self,
        w: usize,
        rows_of: impl Fn(usize) -> usize + 'a,
    ) -> impl Iterator<Item = (usize, usize, usize)> + 'a {
        self.items(w).iter().scan(0usize, move |offset, &item| {
            let rows = rows_of(item);
            let lo = *offset;
            *offset += rows;
            Some((item, lo, rows))
        })
    }
}

/// Wall/serialize/in-flight stopwatch for one exchange. Inert (every
/// method a no-op) unless obs is enabled, so the untraced path pays one
/// branch.
#[derive(Debug)]
pub(crate) struct ExchangeTimer {
    started: Option<Instant>,
    serialize: Duration,
    sent: Option<Instant>,
    drained: Option<Instant>,
}

impl ExchangeTimer {
    pub(crate) fn new(measure: bool) -> Self {
        ExchangeTimer {
            started: measure.then(Instant::now),
            serialize: Duration::ZERO,
            sent: None,
            drained: None,
        }
    }

    /// A reference instant, or `None` when not measuring.
    pub(crate) fn mark(&self) -> Option<Instant> {
        self.started.map(|_| Instant::now())
    }

    /// Accounts time since `mark` as serialize time and records that
    /// every frame is shipped.
    pub(crate) fn sent(&mut self, from: Option<Instant>) {
        if let Some(t) = from {
            self.serialize += t.elapsed();
            self.sent = Some(Instant::now());
        }
    }

    /// Records a reply drained; the last call closes the in-flight window.
    pub(crate) fn drained(&mut self) {
        if self.started.is_some() {
            self.drained = Some(Instant::now());
        }
    }

    /// Flushes the exchange's counters.
    pub(crate) fn finish(self) {
        let Some(started) = self.started else {
            return;
        };
        let inflight = match (self.sent, self.drained) {
            (Some(sent), Some(drained)) => drained.saturating_duration_since(sent),
            _ => Duration::ZERO,
        };
        SERIALIZE_US.add(self.serialize.as_micros() as u64);
        INFLIGHT_US.add(inflight.as_micros() as u64);
        EXCHANGE_US.add(started.elapsed().as_micros() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(workers: usize, assign: &[usize]) -> ChunkPlan {
        let mut p = ChunkPlan::default();
        p.build(workers, assign.iter().copied());
        p
    }

    #[test]
    fn chunks_are_per_worker_and_order_preserving() {
        // 8 items alternating between 2 workers (the bench placement).
        let assign: Vec<usize> = (0..8).map(|e| e % 2).collect();
        let p = plan(2, &assign);
        assert_eq!(p.items(0), &[0, 2, 4, 6]);
        assert_eq!(p.items(1), &[1, 3, 5, 7]);
    }

    #[test]
    fn single_chunk_plan_is_the_coalesced_baseline() {
        // Every plan is one chunk per worker: all of a worker's items in
        // dispatch order, however they interleave with other workers'.
        let mut p = plan(2, &[0, 1]);
        // Rebuilding reuses the buffers without leaking old items.
        p.build(3, [2, 0, 2, 1].into_iter());
        assert_eq!(p.items(0), &[1]);
        assert_eq!(p.items(1), &[3]);
        assert_eq!(p.items(2), &[0, 2]);
    }

    #[test]
    fn workers_without_items_ship_no_chunks() {
        let p = plan(3, &[1, 1]);
        assert!(p.items(0).is_empty());
        assert!(p.items(2).is_empty());
        assert_eq!(p.items(1), &[0, 1]);
        assert_eq!(p.chunk_regions(0, |_| 1).count(), 0);
    }

    #[test]
    fn chunk_regions_tile_the_packed_layout_densely() {
        // Items 0,2,4 on worker 0 with 1,3,5 rows: one frame, offsets
        // accumulate across the worker's items in dispatch order.
        let p = plan(2, &[0, 1, 0, 1, 0]);
        let rows_of = |i: usize| i + 1;
        let regions: Vec<_> = p.chunk_regions(0, rows_of).collect();
        assert_eq!(regions, vec![(0, 0, 1), (2, 1, 3), (4, 4, 5)]);
        let regions: Vec<_> = p.chunk_regions(1, rows_of).collect();
        assert_eq!(regions, vec![(1, 0, 2), (3, 2, 4)]);
    }

    #[test]
    fn timer_is_inert_when_not_measuring() {
        let mut t = ExchangeTimer::new(false);
        let m = t.mark();
        assert!(m.is_none());
        t.sent(m);
        t.drained();
        assert!(t.sent.is_none() && t.drained.is_none());
        t.finish();
    }

    #[test]
    fn timer_accounts_overlapping_inflight_windows() {
        let mut t = ExchangeTimer::new(true);
        let m = t.mark();
        assert!(m.is_some());
        t.sent(m);
        std::thread::sleep(Duration::from_millis(2));
        t.drained();
        let (sent, drained) = (t.sent.unwrap(), t.drained.unwrap());
        assert!(drained.duration_since(sent) >= Duration::from_millis(2));
        t.finish();
    }
}
