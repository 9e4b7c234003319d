//! Spans recorded from the benchmark's own code around each public call
//! it makes into the system. Kept in memory and written at exit as
//! Chrome trace-event JSON (load it in `chrome://tracing` or Perfetto).
//! Spans of one job share its `job` id.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    name: String,
    layer: &'static str,
    job: u64,
    tid: u64,
    start_us: f64,
    dur_us: f64,
}

/// Span recorder; a disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn thread_id() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span over `[start, end]` for `job` in `layer`.
    pub fn record(&self, layer: &'static str, name: &str, job: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name: name.to_string(),
            layer,
            job,
            tid: thread_id(),
            start_us: start.saturating_duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
        };
        self.spans.lock().expect("no span writer panics").push(span);
    }

    /// Times `f`, records it as a span, and returns its result with its
    /// wall time in seconds.
    pub fn time<R>(
        &self,
        layer: &'static str,
        name: &str,
        job: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(layer, name, job, start, end);
        (out, (end - start).as_secs_f64())
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("no span writer panics").len()
    }

    /// Writes the spans as Chrome trace-event JSON to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("no span writer panics");
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"job\": {}}}}}",
                s.name, s.layer, s.tid, s.start_us, s.dur_us, s.job
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
