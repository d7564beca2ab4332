//! The benchmark's own span recorder: wall-clock spans around the calls
//! into the program (set-up, warm-up, timed run, drain, collect, and every
//! isolation-driver batch), kept in memory and written out at exit.
//! Spans inside the program are a later issue.

use std::time::Instant;

use obs::JsonValue;

/// One recorded span. `parent` is the id of the span that caused it.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Request or batch the span belongs to, when there is one.
    batch: Option<u64>,
}

/// In-memory span store; ids are indices.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            batch: None,
        });
        self.spans.len() - 1
    }

    /// Opens a span tagged with a batch id.
    pub fn begin_batch(&mut self, name: &'static str, parent: Option<usize>, batch: u64) -> usize {
        let id = self.begin(name, parent);
        self.spans[id].batch = Some(batch);
        id
    }

    /// Closes a span.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Self time of a span: its duration minus what its children cover.
    fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    pub fn to_json(&self) -> JsonValue {
        JsonValue::Arr(
            (0..self.spans.len())
                .map(|id| {
                    let s = &self.spans[id];
                    JsonValue::obj(vec![
                        ("id", JsonValue::UInt(id as u64)),
                        ("name", JsonValue::Str(s.name.to_string())),
                        (
                            "parent",
                            s.parent
                                .map_or(JsonValue::Null, |p| JsonValue::UInt(p as u64)),
                        ),
                        ("batch", s.batch.map_or(JsonValue::Null, JsonValue::UInt)),
                        ("start_ns", JsonValue::UInt(s.start_ns)),
                        ("end_ns", JsonValue::UInt(s.end_ns)),
                        ("self_ns", JsonValue::UInt(self.self_ns(id))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new();
        let root = s.begin("root", None);
        let child = s.begin_batch("child", Some(root), 3);
        s.end(child);
        s.end(root);
        let root_total = s.spans[root].end_ns - s.spans[root].start_ns;
        let child_total = s.spans[child].end_ns - s.spans[child].start_ns;
        assert_eq!(s.self_ns(root), root_total - child_total);
        assert_eq!(s.self_ns(child), child_total);
        let json = s.to_json();
        let arr = json.as_arr().unwrap();
        assert_eq!(arr[1].get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(arr[1].get("batch").unwrap().as_u64(), Some(3));
    }
}
