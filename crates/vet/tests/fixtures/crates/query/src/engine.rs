//! Fixture engine seeding `span-vocab`.
//!
//! Seeded finding: one off-vocabulary span name (`rogue-stage`); the
//! stable `query`, `parse` and `exec` spans around it must stay
//! silent.

impl Engine {
    /// The query entry point.
    pub fn run(&self, q: &str) -> Outcome {
        let mut trace = TraceBuilder::enabled("query");
        trace.begin("parse");
        trace.begin("rogue-stage");
        trace.begin("exec");
        self.pipeline(q, trace)
    }
}
