//! Flat Fiduccia–Mattheyses bipartitioning with fixed vertices.
//!
//! The engine implements the classic FM pass discipline: every movable
//! vertex is moved at most once per pass, moves are chosen from gain
//! buckets (LIFO tie-breaking, or the CLIP shifted-gain variant), and at
//! the end of the pass the best prefix of the move sequence is restored.
//! Fixed vertices never enter the buckets; "or"-fixed vertices
//! ([`vlsi_hypergraph::Fixity::FixedAny`]) move only within their allowed
//! set. Pass lengths can be hard-capped ([`crate::PassCutoff`], Table III
//! of the paper) and every pass's statistics are recorded (Table II).

mod engine;
mod stats;

pub(crate) use engine::FmLevel;
pub use engine::{BipartFm, FmResult, PassTrace};
pub use stats::{PassStats, RunStats};
