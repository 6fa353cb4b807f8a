//! The benchmark's own spans. A traced run wraps each call into a layer's
//! public functions in a span (name, start, end, parent, job id), keeps
//! the spans in memory and writes them out as JSONL when the run ends. An
//! untraced run uses a disabled tracer, which records nothing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub job: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl SpanRec {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An open span; close it with [`Tracer::close`].
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    job: u64,
    name: &'static str,
    start: Instant,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn open(&self, name: &'static str, parent: Option<&Open>, job: u64) -> Option<Open> {
        self.on.then(|| Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent: parent.map(|p| p.id),
            job,
            name,
            start: Instant::now(),
        })
    }

    pub fn close(&self, open: Option<Open>) {
        if let Some(o) = open {
            let end = Instant::now();
            let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
            let rec = SpanRec {
                id: o.id,
                parent: o.parent,
                job: o.job,
                name: o.name,
                start_us: us(o.start),
                end_us: us(end),
            };
            self.spans.lock().expect("span buffer").push(rec);
        }
    }

    /// Records a span that started at `start` and ends now, for calls whose
    /// span name depends on their result.
    pub fn record(&self, name: &'static str, parent: Option<&Open>, job: u64, start: Instant) {
        if let Some(mut o) = self.open(name, parent, job) {
            o.start = start;
            self.close(Some(o));
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<&Open>,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, job);
        let out = f();
        self.close(span);
        out
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span buffer").clone()
    }

    /// Mean duration of the spans called `name`, in microseconds (0 when
    /// there are none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span buffer");
        let (n, total) = spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0.0), |(n, t), s| (n + 1, t + s.dur_us()));
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.lock().expect("span buffer").iter() {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}\n",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.job,
                s.name,
                s.start_us,
                s.end_us
            ));
        }
        out
    }

    /// Per-span-name count, total and self time (a span's duration minus
    /// the part its direct children cover), largest self time first.
    pub fn layer_table(&self) -> Vec<LayerRow> {
        let spans = self.spans();
        let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_us.entry(p).or_default() += s.dur_us();
            }
        }
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for s in &spans {
            let row = rows.entry(s.name).or_insert_with(|| LayerRow {
                name: s.name,
                ..LayerRow::default()
            });
            row.count += 1;
            row.total_ms += s.dur_us() / 1e3;
            row.self_ms +=
                (s.dur_us() - child_us.get(&s.id).copied().unwrap_or(0.0)).max(0.0) / 1e3;
        }
        let mut rows: Vec<LayerRow> = rows.into_values().collect();
        rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
        rows
    }
}

#[derive(Clone, Debug, Default)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// Renders the layer table with each row's share of all self time.
pub fn render_layer_table(rows: &[LayerRow]) -> String {
    let all: f64 = rows.iter().map(|r| r.self_ms).sum();
    let mut out = format!(
        "{:<26} {:>8} {:>12} {:>12} {:>7}\n",
        "span", "count", "total_ms", "self_ms", "self%"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<26} {:>8} {:>12.3} {:>12.3} {:>6.1}%\n",
            r.name,
            r.count,
            r.total_ms,
            r.self_ms,
            if all > 0.0 {
                100.0 * r.self_ms / all
            } else {
                0.0
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_a_disabled_tracer_records_nothing() {
        let t = Tracer::new(true);
        let root = t.open("root", None, 1);
        t.time("child", root.as_ref(), 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close(root);
        let rows = t.layer_table();
        let get = |n: &str| rows.iter().find(|r| r.name == n).expect("row").clone();
        let (root, child) = (get("root"), get("child"));
        assert!(child.self_ms >= 5.0);
        assert!(root.total_ms >= child.total_ms);
        assert!(root.self_ms < root.total_ms - 4.0);

        let off = Tracer::new(false);
        off.time("x", None, 0, || ());
        assert!(off.spans().is_empty());
    }
}
