//! The sharded name → metric registry and the process-global instance.

use crate::metrics::{Counter, Histogram};
use crate::snapshot::{CounterEntry, HistEntry, Snapshot};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of mutex shards. Registration and lookup hash the metric name
/// to a shard, so unrelated names never contend; hot paths should cache
/// the returned `Arc` and skip the lookup entirely.
const SHARDS: usize = 16;

/// One registered metric.
enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

/// A registry of named metrics.
///
/// `counter`/`histogram` are get-or-create: the first call under
/// a name registers the metric, later calls return the same `Arc`.
/// Registering one name as two different kinds is a programming error and
/// panics with the offending name.
#[derive(Default)]
pub struct Registry {
    shards: [Mutex<HashMap<String, Metric>>; SHARDS],
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn shard(&self, name: &str) -> &Mutex<HashMap<String, Metric>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        name.hash(&mut h);
        &self.shards[(h.finish() % SHARDS as u64) as usize]
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut shard = self.shard(name).lock().expect("registry shard poisoned");
        match shard
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric `{name}` is already registered as a non-counter"),
        }
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut shard = self.shard(name).lock().expect("registry shard poisoned");
        match shard
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric `{name}` is already registered as a non-histogram"),
        }
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for shard in &self.shards {
            let shard = shard.lock().expect("registry shard poisoned");
            for (name, metric) in shard.iter() {
                match metric {
                    Metric::Counter(c) => snap.counters.push(CounterEntry {
                        name: name.clone(),
                        value: c.get(),
                    }),
                    Metric::Histogram(h) => snap.histograms.push(HistEntry {
                        name: name.clone(),
                        hist: h.snapshot(),
                    }),
                }
            }
        }
        snap.counters.sort_by(|a, b| a.name.cmp(&b.name));
        snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        snap
    }
}

/// The process-global registry.
///
/// Every layer of the stack (core codec, step engine, tracing, network
/// runtime) reports here by default, which is what makes one `threelc
/// metrics` scrape of a server show the codec tier, the traced phases and
/// the transport together.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_metric() {
        let reg = Registry::new();
        let a = reg.counter("hits");
        let b = reg.counter("hits");
        a.inc();
        b.inc();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(reg.snapshot().counter("hits"), Some(2));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.histogram("x");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = Registry::new();
        reg.counter("b");
        reg.counter("a");
        reg.histogram("m");
        let snap = reg.snapshot();
        let names: Vec<_> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(snap.histograms.len(), 1);
    }

    #[test]
    fn cross_thread_aggregation_through_one_registry() {
        let reg = std::sync::Arc::new(Registry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let reg = std::sync::Arc::clone(&reg);
                std::thread::spawn(move || {
                    let h = reg.histogram("work");
                    for i in 0..100 {
                        h.record(i as f64);
                        reg.counter("done").inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("done"), Some(800));
        assert_eq!(snap.histogram("work").expect("histogram").count, 800);
    }
}
