//! In-memory spans recorded around calls into each layer.
//!
//! A span is a name, a start and an end (nanoseconds since the trace
//! began), an optional parent span and the id of the job it belongs to.
//! Spans stay in memory while the benchmark measures and are written out
//! once, when the run ends, so writing them costs nothing while timing.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// What a span measures, which decides the sums it may enter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A whole traced job or operation; its children are pipeline spans.
    Job,
    /// One step of the pipeline the job runs, in the order the library's
    /// own entry point runs them. Pipeline spans of a job sum to at most
    /// the job.
    Pipeline,
    /// An extra execution made only to split a layer's self time (an
    /// interpreter-only or timing-only run, a decode of bytes already in
    /// memory). Never part of a pipeline sum.
    Reference,
    /// Work done on a job's outputs after the job (archive commit and
    /// load, diff against an earlier job). Never part of a pipeline sum.
    Post,
    /// The same job run untraced through the library's entry point, for
    /// the tracing-overhead and unaccounted-time comparison.
    Untraced,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Job => "job",
            Kind::Pipeline => "pipeline",
            Kind::Reference => "reference",
            Kind::Post => "post",
            Kind::Untraced => "untraced",
        }
    }
}

/// Index of a span in its [`Trace`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span covers, e.g. `sampler.pass`.
    pub name: &'static str,
    /// What the span measures.
    pub kind: Kind,
    /// Job or operation the span belongs to.
    pub job: u64,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began (equal to the start while
    /// the span is open).
    pub end_ns: u64,
}

impl Span {
    /// Length of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where the steps of one traced job go: its trace, job id and span.
pub struct Scope<'a> {
    /// The trace the spans are recorded in.
    pub trace: &'a mut Trace,
    /// Job the spans belong to.
    pub job: u64,
    /// The job's own span, parent of every step.
    pub parent: SpanId,
}

/// The spans of one benchmark run.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Opens a span; [`Trace::close`] ends it.
    pub fn open(
        &mut self,
        name: &'static str,
        kind: Kind,
        job: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            kind,
            job,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Ends an open span.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns what it returned.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        kind: Kind,
        job: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, kind, job, parent);
        let out = f();
        self.close(id);
        out
    }

    #[cfg(test)]
    fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Self time of every span: its duration minus the part of it its
    /// child spans cover. Overlapping children are counted once, and
    /// children reaching past their parent are clipped to it.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                children[p].push((
                    s.start_ns.clamp(parent.start_ns, parent.end_ns),
                    s.end_ns.clamp(parent.start_ns, parent.end_ns),
                ));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(parent, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = parent.start_ns;
                for (start, end) in kids {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                parent.duration_ns() - covered
            })
            .collect()
    }

    /// Total duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::duration_ns).sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.named(name).count() as u64
    }

    /// Total duration of the spans of `kind`.
    pub fn kind_total_ns(&self, kind: Kind) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(Span::duration_ns)
            .sum()
    }

    /// Total self time of the spans of `kind`.
    pub fn kind_self_ns(&self, kind: Kind) -> u64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.kind == kind)
            .map(|(_, t)| t)
            .sum()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"kind\": \"{}\", \"job\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.kind.name(),
                s.job,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            kind: Kind::Pipeline,
            job: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_and_ignores_grandchildren() {
        let mut t = Trace::new();
        let job = t.push(span("job", None, 0, 100));
        let a = t.push(span("a", Some(job), 10, 40));
        // Overlaps `a`: only 40..50 is new.
        t.push(span("b", Some(job), 30, 50));
        // Reaches past the parent: clipped to 90..100.
        t.push(span("c", Some(job), 90, 120));
        // A grandchild lies inside `a` and must not be subtracted from `job`
        // a second time.
        t.push(span("a.inner", Some(a), 15, 35));
        let own = t.self_times();
        assert_eq!(own[job], 100 - 30 - 10 - 10);
        assert_eq!(own[a], 30 - 20);
        assert_eq!(own[2], 20);
    }

    #[test]
    fn a_span_without_children_is_all_self_time() {
        let mut t = Trace::new();
        let id = t.push(span("leaf", None, 5, 25));
        assert_eq!(t.self_times()[id], 20);
        assert_eq!(t.total_ns("leaf"), 20);
        assert_eq!(t.count("leaf"), 1);
    }

    #[test]
    fn timed_spans_nest_and_sum_by_kind() {
        let mut t = Trace::new();
        let job = t.open("job", Kind::Job, 7, None);
        let x = t.time("step", Kind::Pipeline, 7, Some(job), || 41 + 1);
        t.close(job);
        assert_eq!(x, 42);
        assert_eq!(t.spans[1].parent, Some(job));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert_eq!(t.kind_total_ns(Kind::Pipeline), t.total_ns("step"));
        assert_eq!(
            t.kind_self_ns(Kind::Job) + t.kind_total_ns(Kind::Pipeline),
            t.total_ns("job")
        );
    }
}
