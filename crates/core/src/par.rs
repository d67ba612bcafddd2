//! The workspace's one data-parallel primitive: an ordered, nesting-aware
//! parallel map.
//!
//! Sweep variants, campaign shards and fuzz seeds all fan out through
//! [`par_map`]. A call spawns at most
//! [`available_parallelism`](std::thread::available_parallelism) scoped
//! workers, which claim items from a shared atomic cursor, and returns the
//! results in input order, so callers need no merge machinery of their own
//! to stay deterministic. A call made from inside a worker (a sharded
//! campaign inside a sweep variant, say) runs inline on that worker, so
//! nested fan-outs never oversubscribe the machine.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Set on [`par_map`]'s worker threads, where nested calls run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Applies `f` to every item and returns the results in input order.
///
/// Runs inline on the calling thread when there are fewer than two items,
/// when the machine has a single CPU, or when called from inside another
/// `par_map` worker. Otherwise at most `available_parallelism()` scoped
/// workers claim items one at a time, so uneven item costs balance out.
///
/// # Panics
///
/// Re-raises, with its original payload, the panic of an item once every
/// worker has stopped (the first panicking worker in spawn order wins).
///
/// ```
/// let squares = tmr_core::par_map((1..=4).collect(), |x: u64| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(items.len());
    if workers <= 1 || IN_WORKER.with(Cell::get) {
        return items.into_iter().map(f).collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    // The cursor only hands out indices; the items themselves are published
    // through the slot mutexes, so `Relaxed` suffices.
    let cursor = AtomicUsize::new(0);
    let worker = || {
        IN_WORKER.with(|flag| flag.set(true));
        let mut done = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(index) else {
                return done;
            };
            let item = slot.lock().expect("no thread panics holding a slot").take();
            done.push((index, f(item.expect("each item is claimed once"))));
        }
    };
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles.into_iter().map(|handle| handle.join()).collect()
    });

    let mut results: Vec<Option<R>> = (0..slots.len()).map(|_| None).collect();
    for outcome in joined {
        match outcome {
            Ok(done) => {
                for (index, result) in done {
                    results[index] = Some(result);
                }
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    results
        .into_iter()
        .map(|result| result.expect("every item produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread::{self, ThreadId};

    fn cpus() -> usize {
        thread::available_parallelism().map_or(1, NonZeroUsize::get)
    }

    #[test]
    fn results_keep_input_order_when_the_first_item_finishes_last() {
        // With two or more workers, item 0 blocks until the last item has
        // run on another worker, so completion order is not input order.
        let (sender, receiver) = mpsc::channel();
        let receiver = Mutex::new(receiver);
        let blocking = cpus() > 1;
        let squares = par_map((0..16u64).collect(), |x| {
            if blocking && x == 0 {
                receiver
                    .lock()
                    .expect("test lock")
                    .recv()
                    .expect("item 15 ran");
            }
            if x == 15 {
                sender.send(()).expect("item 0 waits");
            }
            x * x
        });
        let expected: Vec<u64> = (0..16u64).map(|x| x * x).collect();
        assert_eq!(squares, expected);
    }

    #[test]
    fn nested_calls_run_inline_and_never_exceed_the_cpu_count() {
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let outer = par_map((0..8u64).collect(), |x| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            let outer_thread = thread::current().id();
            let inner = par_map((0..4u64).collect(), |y| {
                assert_eq!(
                    thread::current().id(),
                    outer_thread,
                    "a nested call runs on the calling worker"
                );
                x * 10 + y
            });
            live.fetch_sub(1, Ordering::SeqCst);
            inner
        });
        let expected: Vec<Vec<u64>> = (0..8u64)
            .map(|x| (0..4).map(|y| x * 10 + y).collect())
            .collect();
        assert_eq!(outer, expected);
        assert!(peak.load(Ordering::SeqCst) <= cpus());
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_with_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            par_map((0..6u32).collect(), |x| {
                if x == 3 {
                    panic!("item {x} failed");
                }
                x
            })
        });
        let payload = caught.expect_err("the item's panic propagates");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("item 3 failed")
        );
    }

    #[test]
    fn zero_and_one_items_spawn_no_thread() {
        let caller = thread::current().id();
        let none: Vec<ThreadId> = par_map(Vec::<u8>::new(), |_| thread::current().id());
        assert!(none.is_empty());
        let one = par_map(vec![0u8], |_| thread::current().id());
        assert_eq!(one, vec![caller]);
    }
}
