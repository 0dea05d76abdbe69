//! Structured JSONL event sink with environment-driven level filtering.
//!
//! Logging is **off by default**. Setting `THREELC_LOG` (to `error`,
//! `warn`, `info`, `debug`, or `trace`) enables it. When disabled, an
//! instrumented probe costs one relaxed atomic load — the arguments of
//! [`event!`](crate::event) are never evaluated.
//!
//! Events are one JSON object per line on stderr: timestamp, level, event
//! name, and any structured fields.

use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Once;
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity, ordered from `Off` (never emitted) to `Trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Logging disabled.
    Off = 0,
    /// Unrecoverable or dropped work.
    Error = 1,
    /// Degraded but continuing (retries, backoff).
    Warn = 2,
    /// Lifecycle milestones (connections, steps).
    Info = 3,
    /// Per-tensor and per-frame detail.
    Debug = 4,
    /// Everything.
    Trace = 5,
}

impl Level {
    #[cfg(test)]
    fn from_u8(v: u8) -> Level {
        match v {
            1 => Level::Error,
            2 => Level::Warn,
            3 => Level::Info,
            4 => Level::Debug,
            5 => Level::Trace,
            _ => Level::Off,
        }
    }

    fn parse(s: &str) -> Level {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Level::Error,
            "warn" | "warning" => Level::Warn,
            "info" => Level::Info,
            "debug" => Level::Debug,
            "trace" => Level::Trace,
            _ => Level::Off,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(0);
static INIT: Once = Once::new();
/// Where the tests capture events instead of stderr.
#[cfg(test)]
static WRITER: std::sync::Mutex<Option<Box<dyn Write + Send>>> = std::sync::Mutex::new(None);

fn init_from_env() {
    INIT.call_once(|| {
        if let Ok(spec) = std::env::var("THREELC_LOG") {
            LEVEL.store(Level::parse(&spec) as u8, Ordering::Relaxed);
        }
    });
}

/// Whether events at `level` are currently emitted. This is the guard to
/// put in front of expensive instrumentation; when logging is off it is a
/// single relaxed atomic load.
pub fn log_enabled(level: Level) -> bool {
    init_from_env();
    level != Level::Off && LEVEL.load(Ordering::Relaxed) >= level as u8
}

/// Appends a JSON string literal (with escaping) to `out`.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Emits one structured event as a JSONL line, if `level` is enabled.
///
/// Prefer the [`event!`](crate::event) macro, which skips evaluating its fields when the
/// level is filtered out.
pub fn emit(level: Level, event: &str, fields: &[(&str, String)]) {
    if !log_enabled(level) {
        return;
    }
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let mut line = String::with_capacity(64 + event.len());
    line.push_str("{\"ts_ms\":");
    line.push_str(&ts_ms.to_string());
    line.push_str(",\"level\":");
    push_json_str(&mut line, level.name());
    line.push_str(",\"event\":");
    push_json_str(&mut line, event);
    for (key, value) in fields {
        line.push(',');
        push_json_str(&mut line, key);
        line.push(':');
        push_json_str(&mut line, value);
    }
    line.push_str("}\n");

    #[cfg(test)]
    if let Some(w) = WRITER.lock().expect("log writer poisoned").as_mut() {
        let _ = w.write_all(line.as_bytes());
        return;
    }
    let _ = std::io::stderr().write_all(line.as_bytes());
}

/// Emits a structured event on the global sink:
/// `event!(Level::Info, "server.accept", worker = id, addr = peer)`.
///
/// Field values are captured with `format!("{:?}", ...)` and are **not
/// evaluated at all** when the level is disabled.
#[macro_export]
macro_rules! event {
    ($level:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::log_enabled($level) {
            $crate::emit($level, $name, &[$((stringify!($key), format!("{:?}", $value))),*]);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// Overrides the log level (wins over `THREELC_LOG`).
    fn set_level(level: Level) {
        init_from_env(); // consume the env spec so it cannot override us later
        LEVEL.store(level as u8, Ordering::Relaxed);
    }

    /// Captures events in `w` instead of stderr.
    fn set_writer(w: Box<dyn Write + Send>) {
        *WRITER.lock().expect("log writer poisoned") = Some(w);
    }

    /// A writer handing every byte to a shared buffer, so tests can read
    /// back what the sink wrote.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("buf").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sink_filters_escapes_and_emits_jsonl() {
        // One test exercises the whole sink lifecycle because level and
        // writer are process-global state shared across parallel tests.
        let buf = Arc::new(Mutex::new(Vec::new()));
        set_writer(Box::new(SharedBuf(Arc::clone(&buf))));

        set_level(Level::Off);
        assert!(!log_enabled(Level::Error));
        emit(Level::Error, "dropped", &[]);
        assert!(buf.lock().expect("buf").is_empty(), "emitted while off");

        set_level(Level::Info);
        assert!(log_enabled(Level::Error));
        assert!(log_enabled(Level::Info));
        assert!(!log_enabled(Level::Trace));
        emit(Level::Debug, "also_dropped", &[]);
        emit(
            Level::Info,
            "step.done",
            &[("step", "7".to_owned()), ("note", "a\"b\nc".to_owned())],
        );
        crate::event!(Level::Info, "macro.event", worker = 3usize);
        fn boom() -> u32 {
            panic!("evaluated a filtered field")
        }
        crate::event!(Level::Trace, "filtered", boom = boom());

        let text = String::from_utf8(buf.lock().expect("buf").clone()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "exactly the two enabled events: {text}");
        assert!(lines[0].contains("\"event\":\"step.done\""), "{text}");
        assert!(lines[0].contains("\"step\":\"7\""), "{text}");
        assert!(
            lines[0].contains("a\\\"b\\nc"),
            "escaped quote and newline: {text}"
        );
        assert!(lines[1].contains("\"event\":\"macro.event\""), "{text}");
        assert!(lines[1].contains("\"worker\":\"3\""), "{text}");
        for line in &lines {
            let parsed: serde_json::Value = serde_json::from_str(line).expect("valid JSON line");
            assert!(parsed.get("ts_ms").is_some());
        }

        set_level(Level::Off);
    }

    #[test]
    fn level_parse_accepts_the_documented_names() {
        assert_eq!(Level::parse("error"), Level::Error);
        assert_eq!(Level::parse("WARN"), Level::Warn);
        assert_eq!(Level::parse("info"), Level::Info);
        assert_eq!(Level::parse(" debug "), Level::Debug);
        assert_eq!(Level::parse("trace"), Level::Trace);
        assert_eq!(Level::parse("nonsense"), Level::Off);
        assert_eq!(Level::from_u8(Level::Debug as u8), Level::Debug);
    }
}
