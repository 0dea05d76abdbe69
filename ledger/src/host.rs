//! What the numbers were measured on. Two outputs are only comparable
//! when their fingerprints are equal; the ledger refuses otherwise
//! instead of scaling one host's numbers onto another.

use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub cpu_model: String,
    pub nproc: usize,
    pub rustc: String,
    /// `threelc::kernels::selection().describe()`: the codec tier and how
    /// it was chosen.
    pub codec: String,
    pub workers: usize,
}

impl Fingerprint {
    pub fn of_this_host(workers: usize) -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc,
            codec: threelc::kernels::selection().describe(),
            workers,
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "{} x{} | {} | codec {} | {} workers",
            self.cpu_model, self.nproc, self.rustc, self.codec, self.workers
        )
    }

    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("cpu_model".into(), Value::String(self.cpu_model.clone())),
            ("nproc".into(), Value::Number(self.nproc.to_string())),
            ("rustc".into(), Value::String(self.rustc.clone())),
            ("codec".into(), Value::String(self.codec.clone())),
            ("workers".into(), Value::Number(self.workers.to_string())),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Fingerprint, String> {
        let text = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("fingerprint has no string `{key}`"))
        };
        let count = |key: &str| match v.get(key) {
            Some(Value::Number(n)) => n
                .parse::<usize>()
                .map_err(|_| format!("fingerprint `{key}` is not a count")),
            _ => Err(format!("fingerprint has no number `{key}`")),
        };
        Ok(Fingerprint {
            cpu_model: text("cpu_model")?,
            nproc: count("nproc")?,
            rustc: text("rustc")?,
            codec: text("codec")?,
            workers: count("workers")?,
        })
    }
}

/// The system allocator with a count of live bytes beside it, so a run
/// can report the most heap it ever held. Peak RSS (`VmHWM`) answers the
/// same question but moves by a quarter from run to run with which malloc
/// arena each of the runtime's threads happens to land in; the bytes the
/// program asked for do not.
pub struct CountingAllocator;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

// The counters publish nothing but themselves, so `Relaxed` is enough.
fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.alloc_zeroed`'s.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are `System.dealloc`'s.
        unsafe { System.dealloc(p, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.realloc`'s.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        q
    }
}

/// The most heap this process has held at once, in MB.
pub fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_survives_a_json_round_trip() {
        let fp = Fingerprint {
            cpu_model: "Some CPU @ 2.0GHz".into(),
            nproc: 2,
            rustc: "rustc 1.95.0".into(),
            codec: "simd (auto)".into(),
            workers: 2,
        };
        assert_eq!(Fingerprint::from_json(&fp.to_json()), Ok(fp));
    }

    #[test]
    fn a_fingerprint_missing_a_field_is_an_error() {
        let v = Value::Object(vec![("cpu_model".into(), Value::String("x".into()))]);
        assert!(Fingerprint::from_json(&v).is_err());
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn peak_heap_follows_the_largest_live_allocation() {
        let before = peak_heap_mb();
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let after = peak_heap_mb();
        assert!(after >= 64.0, "a 64 MB vector was live: peak {after} MB");
        assert!(after >= before);
        // Freed memory lowers the live count, not the peak.
        assert_eq!(peak_heap_mb(), after);
    }
}
